"""Coefficient recurrence, chain tables, and per-step constants."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactq import (
    CHAIN_BASES,
    DECAY_START,
    ConstraintViolation,
    DegenerateCase,
    DivergedChain,
    NoChain,
    StepConstants,
    chain_gamma_at,
    gamma_chain,
    gamma_next,
    quartic_decay,
    solve_step_constants,
)
from exactq import recurrence

# Chain values recomputed independently with exact rational arithmetic.
KNOWN_GAMMAS = {
    (1, 3): Fraction(1, 64),
    (1, 5): Fraction(1, 126),
    (1, 7): Fraction(3, 640),
    (1, 9): Fraction(1, 325),
    (2, 4): Fraction(1, 9),
    (2, 6): Fraction(11, 128),
    (2, 8): Fraction(21, 325),
    (2, 10): Fraction(17, 342),
    (2, 12): Fraction(25, 637),
    (3, 5): Fraction(1, 112),
    (3, 7): Fraction(1277, 22200),
    (3, 9): Fraction(213, 3416),
    (3, 23): Fraction(12387, 406952),
}


def rational_gamma_next(n: int, d: int, g: Fraction) -> Fraction:
    return (n**2 * (n - 2) ** 2 * g / (1 - g) + d**4) / Fraction((n**2 - d**2) ** 2)


class TestGammaNext:
    def test_matches_rational_oracle(self):
        for (d, n), expected in KNOWN_GAMMAS.items():
            k0, g0, _ = CHAIN_BASES[d]
            g = Fraction(g0).limit_denominator(10**6)
            m = 2 * k0 + d
            while m < n:
                m += 2
                g = rational_gamma_next(m, d, g)
            assert g == expected
            assert chain_gamma_at(d, n) == pytest.approx(float(expected), abs=1e-15)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            gamma_next(3, 0, 0.0)
        with pytest.raises(ValueError):
            gamma_next(3, 3, 0.0)
        with pytest.raises(ValueError):
            gamma_next(5, 1, -0.1)

    def test_diverges_at_pole(self):
        with pytest.raises(DivergedChain):
            gamma_next(5, 1, 1.0)
        with pytest.raises(DivergedChain):
            gamma_next(5, 1, math.inf)

    def test_nan_gamma_prev_is_refused(self):
        with pytest.raises(ValueError, match="^gamma_prev must be nonnegative, got nan"):
            gamma_next(5, 1, math.nan)


class TestGammaChain:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_base_chain_stays_below_one(self, d):
        chain = gamma_chain(d, n_max=41)
        assert chain.valid
        assert all(g < 1.0 for _, g in chain.entries)
        assert chain.entries[-1][0] >= 40 if d == 2 else chain.entries[-1][0] >= 41

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_decay_beyond_start(self, d):
        chain = gamma_chain(d, n_max=41)
        assert chain.n_init == DECAY_START[d]
        assert chain.decays
        for n, g in chain.entries:
            if n >= chain.n_init:
                assert g <= 1.0 / n + 1e-15

    def test_known_values(self):
        for (d, n), expected in KNOWN_GAMMAS.items():
            assert chain_gamma_at(d, n) == pytest.approx(float(expected), abs=1e-15)

    def test_matching_base_k0_is_accepted(self):
        chain = gamma_chain(3, k0=1, n_max=23)
        assert chain.entries[-1][0] == 23
        assert chain.entries[-1][1] == pytest.approx(12387 / 406952, abs=1e-15)

    def test_custom_k0_needs_gamma0(self):
        with pytest.raises(NoChain):
            gamma_chain(2, k0=5)

    def test_custom_start_runs(self):
        chain = gamma_chain(2, k0=5, gamma0=0.05, n_max=20)
        assert chain.entries[0] == (12, 0.05)
        assert all(n % 2 == 0 for n, _ in chain.entries)

    def test_off_chain_lookup_raises(self):
        with pytest.raises(NoChain):
            chain_gamma_at(1, 4)
        with pytest.raises(NoChain):
            chain_gamma_at(3, 3)

    def test_nan_gamma0_is_refused(self):
        # It ran to NaN rows that read as a decaying chain.
        with pytest.raises(ValueError, match="^gamma0 must be nonnegative, got nan"):
            gamma_chain(1, 0, math.nan)

    def test_divergent_custom_start_truncates(self):
        chain = gamma_chain(2, k0=4, gamma0=0.9, n_max=30)
        assert not chain.valid
        assert chain.entries[-1][1] >= 1.0


class TestQuarticDecay:
    def test_threshold_per_d(self):
        for d, start in DECAY_START.items():
            assert quartic_decay(start, d) >= 0
            assert all(quartic_decay(n, d) >= 0 for n in range(start, 60))
            assert quartic_decay(start - 2, d) < 0


class TestStepConstants:
    @pytest.mark.parametrize(
        "n,d",
        [(5, 1), (7, 1), (9, 1), (41, 1), (6, 2), (12, 2), (7, 3), (23, 3)],
    )
    def test_constraints_hold_on_chain(self, n, d):
        cs = solve_step_constants(n, d, chain_gamma_at(d, n - 2))
        assert cs.max_residual() < 1e-10
        cs.validate()

    def test_closed_forms_at_first_step(self):
        cs = solve_step_constants(3, 1, 0.0)
        assert cs.c1 == pytest.approx(-1 / 8)
        assert cs.c2 == pytest.approx(0.0)
        assert cs.c4 == pytest.approx(1 / 3)
        assert cs.c7 == pytest.approx(1.0)
        assert cs.gamma == pytest.approx(1 / 64)

    def test_gamma_agrees_with_recurrence(self):
        for (d, n) in [(1, 5), (2, 6), (3, 7), (2, 12)]:
            prev = chain_gamma_at(d, n - 2)
            cs = solve_step_constants(n, d, prev)
            assert cs.gamma == pytest.approx(gamma_next(n, d, prev), abs=1e-15)

    def test_nan_gamma_prev_is_refused(self):
        # It returned the gamma_prev = 0 constants, labelled nan, which
        # validate passed.
        with pytest.raises(ValueError, match="^gamma_prev must be nonnegative, got nan"):
            solve_step_constants(5, 1, math.nan)

    def test_nan_residual_fails_validation(self):
        cs = replace(solve_step_constants(7, 1, 0.1), c3=math.nan)
        assert math.isnan(cs.max_residual())
        with pytest.raises(ConstraintViolation, match="C2"):
            cs.validate()

    def test_degenerate_when_n_equals_d(self):
        with pytest.raises(DegenerateCase):
            solve_step_constants(3, 3, 0.0)

    @pytest.mark.parametrize(
        "field",
        ["c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10", "c11", "gamma"],
    )
    def test_every_field_is_pinned_by_constraints(self, field):
        cs = solve_step_constants(5, 1, chain_gamma_at(1, 3))
        bumped = cs.__class__(
            **{
                **{f: getattr(cs, f) for f in cs.__dataclass_fields__},
                field: getattr(cs, field) + 1e-3,
            }
        )
        assert bumped.max_residual() > 1e-10
        with pytest.raises(ConstraintViolation):
            bumped.validate()

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
    def test_meaningless_tolerance_is_refused(self, tol):
        # With a NaN or infinite tolerance, constants whose c1 is off by 0.1
        # would pass.
        cs = solve_step_constants(5, 1, chain_gamma_at(1, 3))
        bumped = cs.__class__(**{**{f: getattr(cs, f) for f in cs.__dataclass_fields__}, "c1": cs.c1 + 0.1})
        with pytest.raises(ConstraintViolation):
            bumped.validate()
        with pytest.raises(ValueError, match="^tol must be"):
            bumped.validate(tol=tol)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=18),
    )
    def test_residuals_small_along_chains(self, d, steps):
        k0, _, _ = CHAIN_BASES[d]
        n = 2 * k0 + d + 2 * steps
        cs = solve_step_constants(n, d, chain_gamma_at(d, n - 2))
        assert cs.max_residual() < 1e-10
        assert cs.c2 >= 0.0


class TestSymbolicStepConstants:
    """C1-C12 for the closed form of `solve_step_constants` in exact symbols
    n, d and gamma_prev, with n > d >= 1 and 0 <= gamma_prev < 1."""

    @staticmethod
    def closed_form(sympy, n, d, gamma_prev):
        """`solve_step_constants`' closed form, written with exact roots."""
        sq = sympy.sqrt
        denom = n**2 - d**2
        c1 = -(d**2) / denom
        c2 = n * (n - 2) / denom * sq(gamma_prev / (1 - gamma_prev))
        c3 = n**sympy.Rational(3, 2) / denom
        c5 = c2 / sq(n - 2)
        c8 = c3 / sq(n)
        c9 = c5 / sq(n - 2)
        return StepConstants(
            n=n, d=d, gamma_prev=gamma_prev,
            c1=c1, c2=c2, c3=c3, c4=d**2 / n, c5=c5, c6=c3 / sq(n), c7=d**2, c8=c8, c9=c9,
            c10=c5 / sq(n - 2), c11=sq(c8**2 + c9**2), gamma=c1**2 + c2**2,
        )

    @staticmethod
    def symbols(sympy):
        """n = d + m and gamma_prev = t / (1 + t) with d, m, t > 0, so that
        n > d > 0 and 0 < gamma_prev < 1."""
        d, m, t = sympy.symbols("d m t", positive=True)
        return d, m, t, d + m, t / (1 + t)

    def test_closed_form_matches_the_solver(self):
        sympy = pytest.importorskip("sympy")
        d, m, t, n, gamma_prev = self.symbols(sympy)
        exact = self.closed_form(sympy, n, d, gamma_prev)
        for (nv, dv) in [(3, 1), (5, 1), (7, 1), (6, 2), (8, 2), (7, 3), (23, 3)]:
            prev = chain_gamma_at(dv, nv - 2)
            solved = solve_step_constants(nv, dv, prev)
            at = {d: dv, m: nv - dv, t: sympy.Rational(prev) / (1 - sympy.Rational(prev))}
            for field in ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10", "c11", "gamma"):
                value = float(getattr(exact, field).subs(at))
                assert value == pytest.approx(getattr(solved, field), rel=1e-12, abs=1e-15), (nv, dv, field)

    def test_constraints_vanish_exactly(self, monkeypatch):
        sympy = pytest.importorskip("sympy")
        d, m, t, n, gamma_prev = self.symbols(sympy)
        # Run the library's own constraint formulas with an exact square root.
        monkeypatch.setattr(recurrence, "math", SimpleNamespace(sqrt=sympy.sqrt))
        for prev in (gamma_prev, sympy.Integer(0)):
            residuals = self.closed_form(sympy, n, d, prev).constraint_residuals()
            assert sorted(residuals) == sorted(f"C{k}" for k in range(1, 13))
            for name, residual in residuals.items():
                assert sympy.simplify(residual) == 0, (prev, name)
