"""Compiler from symmetric boolean functions to weight-elimination plans.

A symmetric function is given by its value vector a, indexed by Hamming
weight. The compiler pads the instance so that testable weight pairs appear,
then sweeps the center eliminating one candidate weight (or one variable
pair) per query until the answer is forced or a single candidate remains.

The sweeps' sub-plans are memoized like every builder's default builds
(`algorithms._memoized`), keyed on their arguments. So specs whose sweeps
reach one value vector under one radius (two-sided) or padding budget
(outward) share its sub-plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algorithms import _hadamard_test_step, _memoized, _uw_test_step, build_exact_k, weight_truth
from .errors import InconsistentSpec
from .plans import Call, Output, Plan, PlanNode, const, identity_wires

TWO_SIDED = "two-sided-center-sweep"
OUTWARD = "outward-pair-sweep"
STRATEGIES = (TWO_SIDED, OUTWARD)


@dataclass(frozen=True)
class SymSpec:
    """Value vector `a` (one char per weight), optional radius `g`, strategy.

    All weights with a-value 1 must lie within g of n/2; g=None derives the
    smallest valid radius.
    """

    a: str
    g: int | None = None
    strategy: str = TWO_SIDED


def _min_radius(a: str) -> int:
    n = len(a) - 1
    return max((abs(2 * w - n) + 1) // 2 for w, c in enumerate(a) if c == "1") if "1" in a else 0


def sym_claimed_queries(spec: SymSpec) -> int:
    n = len(spec.a) - 1
    g = spec.g if spec.g is not None else _min_radius(spec.a)
    half = (n + 1) // 2
    return half + 7 * g + 1 if spec.strategy == TWO_SIDED else half + 5 * g


def _star(avec: tuple[str, ...], w: int) -> tuple[str, ...]:
    return avec[:w] + ("*",) + avec[w + 1:]


def _leaf_plan(avec: tuple[str, ...], root: PlanNode, claimed: int, strategy: str) -> Plan:
    n_cur = len(avec) - 1
    ones = frozenset(w for w, c in enumerate(avec) if c == "1")
    return Plan(
        family="sym", n=n_cur,
        params=(("a", "".join(avec)), ("strategy", strategy)),
        root=root, claimed_queries=claimed, truth=weight_truth(n_cur, ones),
    )


def _early_exit(avec: tuple[str, ...], strategy: str) -> Plan | None:
    ones = [w for w, c in enumerate(avec) if c == "1"]
    n_cur = len(avec) - 1
    if not ones:
        return _leaf_plan(avec, Output(0), 0, strategy)
    if "0" not in avec:
        return _leaf_plan(avec, Output(1), 0, strategy)
    if len(ones) == 1:
        sub = build_exact_k(n_cur, ones[0])
        root = Call(sub, identity_wires(n_cur))
        return _leaf_plan(avec, root, sub.claimed_queries, strategy)
    return None


@_memoized
def _build_two_sided(avec: tuple[str, ...], m2: int, g: int) -> Plan:
    exit_plan = _early_exit(avec, TWO_SIDED)
    if exit_plan is not None:
        return exit_plan

    n_cur = len(avec) - 1
    testable = [w for w, c in enumerate(avec)
                if c == "1" and 2 * w < n_cur and avec[n_cur - w] == "1"]
    if testable:
        lo = min(testable)
        hi = n_cur - lo
        root, claimed = _hadamard_test_step(n_cur, hi - lo, _build_two_sided(avec[1:-1], m2, g),
                                            _build_two_sided(_star(avec, hi), m2, g),
                                            _build_two_sided(_star(avec, lo), m2, g))
    else:
        if m2 > 4 * g:
            raise InconsistentSpec(
                f"center sweep exhausted with candidates {avec!r} left; "
                f"the radius g={g} does not cover this value vector")
        padded = _build_two_sided(avec + ("0",), m2 + 1, g)
        root = Call(padded, identity_wires(n_cur) + (const(0),))
        claimed = padded.claimed_queries

    return _leaf_plan(avec, root, claimed, TWO_SIDED)


@_memoized
def _build_outward(avec: tuple[str, ...], budget: int) -> Plan:
    exit_plan = _early_exit(avec, OUTWARD)
    if exit_plan is not None:
        return exit_plan

    n_cur = len(avec) - 1
    ones = [w for w, c in enumerate(avec) if c == "1"]
    below = [w for w in ones if 2 * w < n_cur]
    above = [w for w in ones if 2 * w > n_cur]
    if below and above:
        lo, hi = min(below), max(above)
        u, w = n_cur - 2 * lo, 2 * hi - n_cur
        root, claimed = _uw_test_step(n_cur, u, w, _build_outward(avec[1:-1], budget),
                                      _build_outward(_star(avec, lo), budget),
                                      _build_outward(_star(avec, hi), budget))
    else:
        if len(avec) > budget:
            raise InconsistentSpec(
                f"padding budget exhausted with candidates {avec!r} left")
        if max(ones) * 2 <= n_cur:
            padded = _build_outward(("0",) + avec, budget)
            root = Call(padded, identity_wires(n_cur) + (const(1),))
        else:
            padded = _build_outward(avec + ("0",), budget)
            root = Call(padded, identity_wires(n_cur) + (const(0),))
        claimed = padded.claimed_queries

    return _leaf_plan(avec, root, claimed, OUTWARD)


@_memoized
def build_sym(spec: SymSpec) -> Plan:
    """Compile a symmetric function to a plan under the chosen strategy.
    Plans are shared: build_sym(spec) is build_sym(spec)."""
    if not spec.a or any(c not in "01" for c in spec.a):
        raise ValueError(f"value vector must be a nonempty 0/1 string, got {spec.a!r}")
    if spec.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {spec.strategy!r}; choose from {STRATEGIES}")
    n = len(spec.a) - 1
    gmin = _min_radius(spec.a)
    g = spec.g if spec.g is not None else gmin
    if g < gmin:
        raise InconsistentSpec(
            f"radius g={g} too small: weights with value 1 reach distance {gmin} from n/2")

    avec = tuple(spec.a)
    if spec.strategy == TWO_SIDED:
        start = ("0",) * (2 * g) + avec
        inner = _build_two_sided(start, 0, g)
        wires = identity_wires(n) + tuple(const(1) for _ in range(2 * g))
    else:
        inner = _build_outward(avec, len(avec) + 6 * g + 16)
        wires = identity_wires(n)

    return Plan(
        family="sym", n=n,
        params=(("a", spec.a), ("g", g), ("strategy", spec.strategy)),
        root=Call(inner, wires),
        claimed_queries=sym_claimed_queries(SymSpec(spec.a, g, spec.strategy)),
        truth=weight_truth(n, frozenset(w for w, c in enumerate(spec.a) if c == "1")),
    )
