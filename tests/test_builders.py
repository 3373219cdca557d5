"""Plan builders: exactness, query counts, contracts, and input validation."""

from __future__ import annotations

import itertools

import pytest

from exactq import (
    InconsistentSpec,
    NoChain,
    build_equality,
    build_exact_kl,
    build_unb,
    build_unbr,
    build_uw_step,
    exact_kl_claimed_queries,
    precomputed_state,
    unb_claimed_queries,
    unbr_claimed_queries,
    verify_exactness,
    weight_truth,
)
from exactq.state_core import S_LABEL, pair


def exact_and_tight(report):
    return report.exact and report.worst_case_queries == report.claimed_bound


class TestTruthAndContract:
    def test_weight_truth(self):
        f = weight_truth(4, frozenset({1, 3}))
        assert f((1, 0, 0, 0)) == 1
        assert f((1, 1, 0, 0)) == 0
        assert f((1, 1, 1, 0)) == 1

    def test_precomputed_state_amplitudes(self):
        make = precomputed_state(3, 0.25)
        s = make((1, -1, 1))
        assert s.amplitude(S_LABEL) == pytest.approx(1.0)
        assert s.amplitude(pair(1, 2)) == pytest.approx(1.0)
        assert s.amplitude(pair(2, 3)) == pytest.approx(-1.0)
        assert s.amplitude(pair(1, 3)) == 0.0

    def test_precomputed_state_checks_arity(self):
        with pytest.raises(ValueError):
            precomputed_state(3, 0.1)((1, 1))
        with pytest.raises(ValueError):
            precomputed_state(3, 0.1)((1, 1, 1, 1))

    def test_zero_gamma_has_no_pair_terms(self):
        s = precomputed_state(3, 0.0)((1, -1, 1))
        assert s.support() == frozenset({S_LABEL})


class TestEquality:
    def test_exact_with_n_minus_one_queries(self, verified):
        for n in (2, 3, 4, 5):
            report = verified("equality", n)
            assert exact_and_tight(report)
            assert report.claimed_bound == n - 1

    def test_single_bit_is_constant_true(self, verified):
        report = verified("equality", 1)
        assert exact_and_tight(report)
        assert report.claimed_bound == 0

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            build_equality(0)


class TestExactK:
    @pytest.mark.parametrize(
        "n,k,queries", [(4, 2, 2), (5, 1, 4), (3, 0, 3), (6, 3, 3), (5, 4, 4)]
    )
    def test_exact_with_max_k_nk_queries(self, verified, n, k, queries):
        report = verified("exact", n, k)
        assert exact_and_tight(report)
        assert report.claimed_bound == queries == max(k, n - k)


class TestUnbR:
    @pytest.mark.parametrize(
        "n,d,queries", [(3, 1, 1), (5, 1, 2), (7, 1, 3), (4, 2, 1), (6, 2, 2), (5, 3, 2)]
    )
    def test_contract_plans_are_exact(self, verified, n, d, queries):
        report = verified("unbr", n, d)
        assert exact_and_tight(report)
        assert report.claimed_bound == queries == unbr_claimed_queries(n, d)

    def test_contract_gamma_matches_chain(self):
        assert build_unbr(5, 1).contract_gamma == pytest.approx(1 / 126)
        assert build_unbr(5, 3).contract_gamma == pytest.approx(1 / 112)

    def test_off_chain_point_rejected(self):
        with pytest.raises(NoChain):
            build_unbr(4, 1)
        with pytest.raises(NoChain):
            build_unbr(3, 3)

    def test_unsupported_gap_rejected(self):
        with pytest.raises(NoChain):
            build_unbr(9, 5)


class TestUnb:
    @pytest.mark.parametrize(
        "n,d,queries",
        [(3, 1, 2), (5, 1, 3), (7, 1, 4), (4, 2, 2), (6, 2, 3), (8, 2, 4), (5, 3, 3)],
    )
    def test_full_plans_are_exact(self, verified, n, d, queries):
        report = verified("unb", n, d)
        assert exact_and_tight(report)
        assert report.claimed_bound == queries == unb_claimed_queries(n, d)

    def test_trivial_all_equal_case(self, verified):
        report = verified("unb", 3, 3)
        assert exact_and_tight(report)
        assert report.claimed_bound == 2

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_unb(4, 1)

    def test_large_gap_redirects(self):
        with pytest.raises(NoChain, match="general"):
            build_unb(8, 4)

    def test_mutated_gamma_breaks_exactness(self):
        plan = build_unb(5, 1, gamma_override=1 / 126 + 1e-3)
        report = verify_exactness(plan)
        assert not report.exact
        assert report.counterexamples

    def test_default_builds_are_shared(self):
        assert build_unb(8, 2) is build_unb(8, 2)
        assert build_unbr(7, 1) is build_unbr(7, 1)
        assert build_unb(5, 1, gamma_override=0.05) is not build_unb(5, 1)


class TestGeneralUnbalance:
    @pytest.mark.parametrize("n,k,queries", [(4, 1, 4), (6, 2, 5)])
    def test_exact_within_claim(self, verified, n, k, queries):
        report = verified("general", n, k)
        assert exact_and_tight(report)
        assert report.claimed_bound == queries == n - k + 1

    def test_k_zero_reduces_to_equality(self, verified):
        report = verified("general", 4, 0)
        assert exact_and_tight(report)
        assert report.claimed_bound == 3


class TestUwStep:
    def test_asymmetric_test_values(self, verified):
        report = verified("uw", 6, 2, 4)
        assert exact_and_tight(report)
        assert report.claimed_bound == 6

    def test_validation(self):
        with pytest.raises(ValueError, match="zero or negative"):
            build_uw_step(6, 0, 4)
        with pytest.raises(ValueError):
            build_uw_step(6, 2, 8)
        with pytest.raises(ValueError):
            build_uw_step(6, 1, 4)


class TestExactKl:
    @pytest.mark.parametrize(
        "n,k,l,queries",
        [(6, 1, 5, 6), (5, 1, 3, 3), (7, 2, 3, 5), (6, 0, 6, 5), (6, 2, 2, 4)],
    )
    def test_padded_reductions_are_exact(self, verified, n, k, l, queries):
        report = verified("exactkl", n, k, l)
        assert exact_and_tight(report)
        assert report.claimed_bound == queries == exact_kl_claimed_queries(n, k, l)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            build_exact_kl(5, 3, 1)
        with pytest.raises(ValueError):
            build_exact_kl(5, 1, 6)

    def test_truth_tables(self):
        plan = build_exact_kl(5, 1, 3)
        for bits in itertools.product((0, 1), repeat=5):
            assert plan.truth(bits) == (1 if sum(bits) in (1, 3) else 0)
