"""General symmetric-function plans built from a weight value vector."""

from __future__ import annotations

import pytest

from exactq import (
    InconsistentSpec,
    OUTWARD,
    SymSpec,
    TWO_SIDED,
    build_sym,
    sym_claimed_queries,
    verify_exactness,
)
from exactq.verifier import _collect_plans

# (value vector, g) -> measured worst-case queries per strategy, recorded
# from exhaustive simulation.
MEASURED = {
    ("00100", 0): {TWO_SIDED: 2, OUTWARD: 2},
    ("000100", 1): {TWO_SIDED: 5, OUTWARD: 3},
    ("001100", 1): {TWO_SIDED: 6, OUTWARD: 4},
    ("00000", 0): {TWO_SIDED: 0, OUTWARD: 0},
    ("1111", 2): {TWO_SIDED: 10, OUTWARD: 0},
    ("0011100", 1): {TWO_SIDED: 8, OUTWARD: 6},
    ("0010100", 1): {TWO_SIDED: 7, OUTWARD: 5},
    ("010010", 2): {TWO_SIDED: 9, OUTWARD: 5},
}


class TestBuildSym:
    @pytest.mark.parametrize("a,g", sorted(MEASURED))
    @pytest.mark.parametrize("strategy", [TWO_SIDED, OUTWARD])
    def test_exact_within_claimed_budget(self, a, g, strategy):
        spec = SymSpec(a, g, strategy)
        plan = build_sym(spec)
        report = verify_exactness(plan)
        assert report.exact, (a, strategy)
        assert report.worst_case_queries == MEASURED[(a, g)][strategy]
        assert report.worst_case_queries <= plan.claimed_queries

    @pytest.mark.parametrize("a,g", sorted(MEASURED))
    def test_claim_formulas(self, a, g):
        n = len(a) - 1
        half = (n + 1) // 2
        assert sym_claimed_queries(SymSpec(a, g, TWO_SIDED)) == half + 7 * g + 1
        assert sym_claimed_queries(SymSpec(a, g, OUTWARD)) == half + 5 * g

    def test_truth_follows_value_vector(self):
        plan = build_sym(SymSpec("0110", 1))
        for bits, expected in [((0, 0, 0), 0), ((1, 0, 0), 1), ((1, 1, 0), 1), ((1, 1, 1), 0)]:
            assert plan.truth(bits) == expected


class TestSymValidation:
    def test_rejects_bad_characters(self):
        with pytest.raises(ValueError):
            build_sym(SymSpec("01x0", 1))
        with pytest.raises(ValueError):
            build_sym(SymSpec("", 0))

    def test_rejects_too_small_radius(self):
        # a = "000100": the 1 at weight 3 of n=5 sits one off center, so
        # g = 0 cannot cover it.
        with pytest.raises(InconsistentSpec):
            build_sym(SymSpec("000100", 0))

    def test_default_radius_is_minimal_feasible(self):
        plan = build_sym(SymSpec("000100"))
        assert plan.params_dict()["g"] == 1

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            build_sym(SymSpec("00100", 0, "sideways"))


class TestBuildSymMemo:
    def test_same_spec_shares_one_plan(self):
        spec = SymSpec("0011100", 1, OUTWARD)
        assert build_sym(spec) is build_sym(spec)
        assert build_sym(SymSpec("0011100", 1, OUTWARD)) is build_sym(spec)

    def test_radius_and_strategy_give_distinct_plans(self):
        plans = [build_sym(SymSpec("000100", g, strategy))
                 for g in (1, 2) for strategy in (TWO_SIDED, OUTWARD)]
        assert len({id(plan) for plan in plans}) == 4
        assert {(plan.params_dict()["g"], plan.params_dict()["strategy"]) for plan in plans} == {
            (g, strategy) for g in (1, 2) for strategy in (TWO_SIDED, OUTWARD)}

    def test_specs_share_sub_plans(self):
        # Dropping a pair from 001100 leaves 0110, so the two sweeps (both
        # of radius 1) reach the same value vectors.
        def sym_sub_plans(spec):
            return {id(p): p for p in _collect_plans(build_sym(spec)) if p.family == "sym"}
        shared = sym_sub_plans(SymSpec("0110")).keys() & sym_sub_plans(SymSpec("001100")).keys()
        assert shared

    def test_inconsistent_spec_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(InconsistentSpec):
                build_sym(SymSpec("000100", 0))
