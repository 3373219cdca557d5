"""Decay recurrence and per-step constants for the balanced-pair recursion.

The recursion that removes one balanced pair of variables per query carries a
leakage coefficient gamma from one instance size to the next. This module
computes gamma chains, the quartic whose sign certifies gamma <= 1/n decay,
and the closed-form step constants together with their defining constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstraintViolation, DegenerateCase, DivergedChain, NoChain, check_tol

# Chain bases per gap d: (k0, gamma0, base query count).
CHAIN_BASES: dict[int, tuple[int, float, int]] = {
    1: (0, 0.0, 0),
    2: (0, 0.0, 0),
    3: (1, 1.0 / 112.0, 2),
}

# Smallest chain n with sustained gamma_n <= 1/n decay.
DECAY_START: dict[int, int] = {1: 5, 2: 12, 3: 23}


def _check_gamma_prev(gamma_prev: float) -> None:
    if not gamma_prev >= 0.0:
        raise ValueError(f"gamma_prev must be nonnegative, got {gamma_prev}")
    if gamma_prev >= 1.0:
        raise DivergedChain(f"gamma_prev={gamma_prev} is at or past the recurrence pole")


def gamma_next(n: int, d: int, gamma_prev: float) -> float:
    """One step of the leakage recurrence: gamma at size n from size n-2."""
    if not (isinstance(n, int) and isinstance(d, int)):
        raise ValueError(f"gamma_next needs integer n, d, got {n!r}, {d!r}")
    if d < 1 or n <= d:
        raise ValueError(f"gamma_next needs n > d >= 1, got n={n}, d={d}")
    _check_gamma_prev(gamma_prev)
    num = n * n * (n - 2) ** 2 * gamma_prev / (1.0 - gamma_prev) + d**4
    return num / (n * n - d * d) ** 2


def quartic_decay(n: int, d: int) -> int:
    """Quartic whose nonnegativity certifies gamma_prev <= 1/(n-2) => gamma <= 1/n."""
    d2 = d * d
    return n**4 + (-2 * d2 - 4) * n**3 + (6 * d2 - d2 * d2) * n**2 + 4 * d2 * d2 * n - 3 * d2 * d2


@dataclass(frozen=True)
class GammaChain:
    """Gamma values along one recursion chain n = d+2k0, d+2k0+2, ..."""

    d: int
    k0: int
    entries: tuple[tuple[int, float], ...]
    valid: bool
    decays: bool
    n_init: int

    def gamma_at(self, n: int) -> float:
        for m, g in self.entries:
            if m == n:
                return g
        raise NoChain(f"n={n} is not on the d={self.d} chain (entries reach {self.entries[-1][0]})")


def gamma_chain(d: int, k0: int | None = None, gamma0: float | None = None, n_max: int = 41) -> GammaChain:
    """Iterate the recurrence from a chain base up to n_max.

    Without k0/gamma0 the known base for d is used. A custom base is accepted
    when both are given. valid=False marks a chain that hit gamma >= 1 (it is
    truncated there); decays reports gamma_n <= 1/n for all entries past the
    sustained-decay threshold for d.
    """
    if d not in CHAIN_BASES:
        raise NoChain(f"no recursion chain is known for d={d} (supported: 1, 2, 3)")
    base_k0, base_gamma0, _ = CHAIN_BASES[d]
    if k0 is None:
        k0 = base_k0
    if gamma0 is None:
        if k0 != base_k0:
            raise NoChain(f"d={d} has a known base only at k0={base_k0}; pass gamma0 for a custom base")
        gamma0 = base_gamma0
    if k0 < 0:
        raise ValueError(f"k0 must be nonnegative, got {k0}")
    if not gamma0 >= 0.0:
        raise ValueError(f"gamma0 must be nonnegative, got {gamma0}")
    n0 = d + 2 * k0
    if n_max < n0:
        raise NoChain(f"n_max={n_max} is below the chain base n={n0}")
    entries: list[tuple[int, float]] = [(n0, float(gamma0))]
    valid = gamma0 < 1.0
    n, g = n0, float(gamma0)
    while valid and n + 2 <= n_max:
        n += 2
        g = gamma_next(n, d, g)
        entries.append((n, g))
        if g >= 1.0:
            valid = False
    n_init = DECAY_START[d]
    decays = all(g <= 1.0 / m + 1e-15 for m, g in entries if m >= n_init)
    return GammaChain(d=d, k0=k0, entries=tuple(entries), valid=valid, decays=decays, n_init=n_init)


def chain_gamma_at(d: int, n: int) -> float:
    """Gamma of the standard d-chain at size n; NoChain if n is off the chain."""
    if d not in CHAIN_BASES:
        raise NoChain(f"no recursion chain is known for d={d} (supported: 1, 2, 3)")
    n0 = d + 2 * CHAIN_BASES[d][0]
    if n < n0 or (n - n0) % 2 != 0:
        raise NoChain(f"n={n} is not on the d={d} chain starting at n={n0}")
    return gamma_chain(d, n_max=n).gamma_at(n)


@dataclass(frozen=True)
class StepConstants:
    """The twelve constants of one balanced-pair elimination step.

    gamma_prev is the leakage of the size n-2 sub-instance; gamma is the
    leakage this step presents to its own caller.
    """

    n: int
    d: int
    gamma_prev: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float
    c10: float
    c11: float
    gamma: float

    def constraint_residuals(self) -> dict[str, float]:
        n, d = self.n, self.d
        rn = math.sqrt(n)
        rm = math.sqrt(n - 2)
        return {
            "C1": abs(self.c1**2 + self.c2**2 - self.gamma),
            "C2": abs(self.c3 * n - self.c3 * self.c4 - rn),
            "C3": abs(self.c3 * self.c4 + self.c1 * rn),
            "C4": abs(self.c2 - self.c5 * rm),
            "C5": abs(self.c3 - self.c6 * rn),
            "C6": abs(self.c5 - self.c9 * rm),
            "C7": abs(self.c3 * self.c4 * n - self.c6 * self.c7 * rn),
            "C8": abs(self.c3 - self.c8 * rn),
            "C9": abs(self.c5 - self.c10 * rm),
            "C10": abs(self.c8**2 + self.c9**2 - self.c11**2),
            "C11": abs(self.c10 - self.c11 * math.sqrt(self.gamma_prev)),
            "C12": abs(self.c7 - d * d),
        }

    def validate(self, tol: float = 1e-10) -> None:
        """Raise ConstraintViolation when a residual is not within `tol`
        (finite and >= 0), NaN included, or c2 or c11 is negative."""
        check_tol(tol)
        bad = {name: r for name, r in self.constraint_residuals().items() if not r <= tol}
        if self.c2 < 0.0:
            bad["c2-sign"] = -self.c2
        if self.c11 < 0.0:
            bad["c11-sign"] = -self.c11
        if bad:
            raise ConstraintViolation(f"step constants violate {sorted(bad)} at n={self.n}, d={self.d}: {bad}")

    def max_residual(self) -> float:
        """The largest residual, or NaN when one is NaN."""
        residuals = self.constraint_residuals().values()
        return math.nan if any(map(math.isnan, residuals)) else max(residuals)


def solve_step_constants(n: int, d: int, gamma_prev: float) -> StepConstants:
    """Closed-form solution of the step constraints with c1 <= 0 <= c2, c3 > 0."""
    if not (isinstance(n, int) and isinstance(d, int)):
        raise ValueError(f"solve_step_constants needs integer n, d, got {n!r}, {d!r}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n == d:
        raise DegenerateCase(f"n = d = {n} leaves no residual instance to recurse on")
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    if n < 3:
        raise DegenerateCase(f"n={n} has no size n-2 >= 1 sub-instance")
    _check_gamma_prev(gamma_prev)
    denom = n * n - d * d
    c4 = d * d / n
    c3 = n**1.5 / denom
    c1 = -d * d / denom
    c2 = (n * (n - 2) / denom) * math.sqrt(gamma_prev / (1.0 - gamma_prev)) if gamma_prev > 0 else 0.0
    c5 = c2 / math.sqrt(n - 2)
    c6 = c3 / math.sqrt(n)
    c7 = float(d * d)
    c8 = c3 / math.sqrt(n)
    c9 = c5 / math.sqrt(n - 2)
    c10 = c5 / math.sqrt(n - 2)
    c11 = math.hypot(c8, c9)
    gamma = c1 * c1 + c2 * c2
    return StepConstants(
        n=n, d=d, gamma_prev=float(gamma_prev),
        c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6, c7=c7, c8=c8, c9=c9, c10=c10, c11=c11,
        gamma=gamma,
    )
