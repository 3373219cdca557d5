"""Plan builders: exactness, query counts, contracts, and input validation."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import pytest

from exactq import (
    DegenerateCase,
    NoChain,
    algorithms,
    build_appendix_a,
    build_equality,
    build_exact_kl,
    build_general_unbalance,
    build_unb,
    build_unbr,
    build_uw_step,
    chain_gamma_at,
    exact_kl_claimed_queries,
    precomputed_state,
    solve_step_constants,
    unb_claimed_queries,
    unbr_claimed_queries,
    verify_exactness,
    weight_truth,
)
from exactq.plans import GadgetStep, MeasureStep, QueryStep
from exactq.state_core import S_LABEL, pair
from test_batch import final_measurement, mutated_unbr


STEP_FIELDS = ("c1", "c2", "c8", "c9", "gamma")


def exact_and_tight(report):
    return report.exact and report.worst_case_queries == report.claimed_bound


class TestTruthAndContract:
    def test_weight_truth(self):
        f = weight_truth(4, frozenset({1, 3}))
        assert f((1, 0, 0, 0)) == 1
        assert f((1, 1, 0, 0)) == 0
        assert f((1, 1, 1, 0)) == 1

    @pytest.mark.parametrize("weight", [-1, 4])
    def test_weight_truth_refuses_a_weight_outside_0_to_n(self, weight):
        with pytest.raises(ValueError, match=r"must lie in 0\.\.3"):
            weight_truth(3, frozenset({1, weight}))

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

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 2), (5, 3)])
    def test_chain_base_rejects_step_knobs(self, n, d):
        constants = solve_step_constants(7, 1, chain_gamma_at(1, 5))
        with pytest.raises(DegenerateCase, match="constants"):
            build_unbr(n, d, constants=constants)
        with pytest.raises(DegenerateCase, match="validate"):
            build_unbr(n, d, constants=constants, validate=False)
        with pytest.raises(DegenerateCase, match="validate"):
            build_unbr(n, d, validate=False)

    def test_appendix_base_points_at_its_overrides(self):
        constants = solve_step_constants(7, 1, chain_gamma_at(1, 5))
        with pytest.raises(DegenerateCase, match="build_appendix_a"):
            build_unbr(5, 3, constants=constants, validate=False)

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("n,d,gamma", [(9, 1, chain_gamma_at(1, 7)), (7, 2, 0.05)])
    def test_constants_of_another_n_or_d_are_refused(self, n, d, gamma, validate):
        # Each set passes its own constraint check, which reads its own n.
        constants = solve_step_constants(n, d, gamma)
        with pytest.raises(ValueError, match=rf"^constants were solved for \(n, d\) = \({n}, {d}\), "
                                             rf"not for \(7, 1\)$"):
            build_unbr(7, 1, constants=constants, validate=validate)


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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equality_case_rejects_gamma_override(self, d):
        with pytest.raises(DegenerateCase, match="gamma_override"):
            build_unb(d, d, gamma_override=0.37)

    def test_default_builds_are_shared(self):
        assert build_unb(8, 2) is build_unb(8, 2)
        assert build_unbr(7, 1) is build_unbr(7, 1)
        assert build_unb(5, 1, gamma_override=0.05) is not build_unb(5, 1)


class TestSharedSteps:
    """Override builds take the steps no knob sets from the default build."""

    @pytest.mark.parametrize("field", STEP_FIELDS)
    def test_unbr_mutants_share_measurement_and_u_stages(self, field):
        default, mutant = build_unbr(7, 1), mutated_unbr(7, 1, field, 1e-3)
        assert mutant is not default
        assert final_measurement(mutant) is final_measurement(default)
        assert mutant.root.child.applications is default.root.child.applications

    def test_unb_gamma_override_shares_measurement(self):
        default, override = build_unb(5, 1), build_unb(5, 1, gamma_override=0.05)
        assert override is not default
        assert final_measurement(override) is final_measurement(default)

    def test_appendix_angle_override_shares_measurement(self):
        angles = algorithms.appendix_a_angles()
        angles["merge2"] += 1e-3
        default, override = build_appendix_a(), build_appendix_a(angle_overrides=angles)
        assert override is not default
        assert final_measurement(override) is final_measurement(default)
        assert override.root.child.applications is default.root.child.applications

    @pytest.mark.parametrize("field", STEP_FIELDS)
    def test_unbr_mutants_of_the_default_gamma_share_its_contract(self, field):
        default, mutant = build_unbr(7, 1), mutated_unbr(7, 1, field, 1e-3)
        assert (mutant.contract is default.contract) == (field != "gamma")
        assert mutant.contract_gamma == default.contract_gamma + (1e-3 if field == "gamma" else 0.0)

    def test_appendix_overrides_of_the_default_gamma_share_its_contract(self):
        default = build_appendix_a()
        angles = algorithms.appendix_a_angles()
        angles["split1"] += 1e-3
        assert build_appendix_a(angle_overrides=angles).contract is default.contract
        assert build_appendix_a(gamma_override=default.contract_gamma).contract is default.contract
        assert build_appendix_a(gamma_override=0.02).contract is not default.contract

    def test_mutants_reuse_the_defaults_compiled_measurement(self):
        default = build_unbr(7, 1)
        verify_exactness(default)
        measurement = final_measurement(default)
        maps = set(measurement.__dict__["_batch_cache"])
        for field in STEP_FIELDS:
            assert not verify_exactness(mutated_unbr(7, 1, field, 1e-3)).exact
        assert set(measurement.__dict__["_batch_cache"]) == maps

    def test_default_report_does_not_depend_on_build_order(self, monkeypatch):
        def default_report(mutants_first):
            monkeypatch.setattr(algorithms, "_PLANS", {})
            if mutants_first:
                for field in STEP_FIELDS:
                    verify_exactness(mutated_unbr(7, 1, field, 1e-3))
            return verify_exactness(build_unbr(7, 1)).as_dict(verbose=True)

        assert default_report(True) == default_report(False)


class TestGammaKnobs:
    """A gamma knob outside [0, 1], or NaN, is refused where it enters, by a
    ValueError that names the knob, its value and the range."""

    BAD = [-0.1, -1e-3, 1.5, math.nan]

    @pytest.mark.parametrize("gamma", BAD)
    def test_unb_gamma_override(self, gamma):
        with pytest.raises(ValueError, match=rf"^gamma_override must be in \[0, 1\], got {gamma!r}$"):
            build_unb(7, 1, gamma_override=gamma)

    @pytest.mark.parametrize("gamma", BAD)
    def test_appendix_a_gamma_override(self, gamma):
        with pytest.raises(ValueError, match=rf"^gamma_override must be in \[0, 1\], got {gamma!r}$"):
            build_appendix_a(gamma_override=gamma)

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("gamma", BAD)
    def test_unbr_constants_gamma(self, gamma, validate):
        # validate=False skips only the C1-C12 check.
        base = solve_step_constants(7, 1, chain_gamma_at(1, 5))
        with pytest.raises(ValueError, match=rf"^constants\.gamma must be in \[0, 1\], got {gamma!r}$"):
            build_unbr(7, 1, constants=replace(base, gamma=gamma), validate=validate)

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_the_ends_of_the_range_build_refuted_mutants(self, gamma):
        base = solve_step_constants(7, 1, chain_gamma_at(1, 5))
        for plan in (build_unb(7, 1, gamma_override=gamma), build_appendix_a(gamma_override=gamma),
                     build_unbr(7, 1, constants=replace(base, gamma=gamma), validate=False)):
            assert plan.contract_gamma in (None, gamma)
            assert verify_exactness(plan).counterexamples


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_a_non_finite_appendix_a_angle_is_refused(angle):
    with pytest.raises(ValueError, match=rf"^angle_overrides\['split1'\] must be finite, got {angle!r}$"):
        build_appendix_a(angle_overrides={"split1": angle})


def appendix_a_override():
    angles = algorithms.appendix_a_angles()
    angles["split2"] += 1e-3
    return build_appendix_a(angle_overrides=angles)


# (default build, override build, the override's rotation pass count)
OVERRIDES = {
    "unbr71": (lambda: build_unbr(7, 1), lambda: mutated_unbr(7, 1, "c1", 1e-3), 2),
    "unbr62": (lambda: build_unbr(6, 2), lambda: mutated_unbr(6, 2, "gamma", 1e-3), 2),
    "unb51": (lambda: build_unb(5, 1), lambda: build_unb(5, 1, gamma_override=0.05), 1),
    "appendixA": (build_appendix_a, appendix_a_override, 4),
}


def spine(plan):
    """The steps of `plan` from its root down to its first measurement, and
    that measurement."""
    steps, node = [], plan.root
    while not isinstance(node, MeasureStep):
        steps.append(node)
        node = node.child
    return steps, node


# (a call with every knob passed at its default, the default call)
KNOBS_AT_DEFAULT = {
    "unb51": (lambda: build_unb(5, 1, gamma_override=None), lambda: build_unb(5, 1)),
    "unbr71": (lambda: build_unbr(7, 1, constants=None, validate=True), lambda: build_unbr(7, 1)),
    "appendixA": (lambda: build_appendix_a(angle_overrides=None, gamma_override=None), build_appendix_a),
}


class TestOverrideCopies:
    """An override build is a copy of its default build in which only the
    rotation passes are new."""

    @pytest.mark.parametrize("name", KNOBS_AT_DEFAULT)
    def test_a_knob_passed_at_its_default_returns_the_default_build(self, name):
        at_default, default = KNOBS_AT_DEFAULT[name]
        assert at_default() is default()

    @pytest.mark.parametrize("name", OVERRIDES)
    def test_a_set_knob_builds_a_new_override_on_every_call(self, name):
        make_default, make_override, _ = OVERRIDES[name]
        default, first, second = make_default(), make_override(), make_override()
        assert first is not second and default is not first and default is not second

    @pytest.mark.parametrize("name", OVERRIDES)
    def test_an_override_is_its_default_with_new_rotation_passes(self, name):
        make_default, make_override, count = OVERRIDES[name]
        default, override = make_default(), make_override()
        (steps, measurement), (copies, own_measurement) = spine(default), spine(override)
        assert own_measurement is measurement
        assert [type(copy) for copy in copies] == [type(step) for step in steps]
        assert (override.label_count, override.callees, override.height) == \
            (default.label_count, default.callees, default.height)
        passes = 0
        for step, copy in zip(steps, copies):
            assert copy is not step
            if isinstance(step, GadgetStep) and step.applications.layouts is not None:
                passes += 1
                assert copy.applications is not step.applications
                assert copy.applications.layouts is step.applications.layouts
            elif isinstance(step, GadgetStep):
                assert copy.applications is step.applications
            else:
                assert vars(copy)["_batch_cache"] is vars(step)["_batch_cache"]
        assert passes == count

    @pytest.mark.parametrize("name", OVERRIDES)
    def test_an_override_of_a_verified_default_compiles_no_query_map(self, name):
        make_default, make_override, _ = OVERRIDES[name]
        verify_exactness(make_default())
        override = make_override()
        queries = [step for step in spine(override)[0] if isinstance(step, QueryStep)]

        def compiled():
            return [set(vars(query).get("_batch_cache", {})) for query in queries]
        before = compiled()
        assert queries and all(before)
        verify_exactness(override)
        assert compiled() == before


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

    def test_derived_count_is_the_papers(self):
        # The test step counts 1 + the most its callees claim; the paper's
        # bound for EXACT_{k,n-k}^n is n - k + 1.
        for n in range(3, 15):
            for k in range(1, (n + 1) // 2):
                assert build_general_unbalance(n, k).claimed_queries == n - k + 1, (n, k)


def uw_case(n: int, u: int, w: int) -> str:
    """Which test values still fit once a pair outcome removes two variables."""
    fits = (u <= n - 2, w <= n - 2)
    return {(True, True): "both", (True, False): "low", (False, True): "high",
            (False, False): "neither"}[fits]


UW_INSTANCES = [(n, u, w) for n in range(1, 9) for u in range(1, n + 1) for w in range(1, n + 1)
                if (n - u) % 2 == 0 and (n - w) % 2 == 0]


class TestUwStep:
    @pytest.mark.parametrize("n,u,w", UW_INSTANCES,
                             ids=[f"{n}-{u}-{w}-{uw_case(n, u, w)}" for n, u, w in UW_INSTANCES])
    def test_every_small_instance_is_exact(self, verified, n, u, w):
        report = verified("uw", n, u, w)
        assert report.exact
        assert report.worst_case_queries <= report.claimed_bound

    def test_small_instances_cover_every_pair_case(self):
        cases = [uw_case(*args) for args in UW_INSTANCES]
        assert {c: cases.count(c) for c in set(cases)} == {"both": 28, "low": 12, "high": 12, "neither": 8}

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

    def test_default_builds_are_shared(self):
        assert build_exact_kl(5, 1, 3) is build_exact_kl(5, 1, 3)

    def test_truth_tables(self):
        plan = build_exact_kl(5, 1, 3)
        for bits in itertools.product((0, 1), repeat=5):
            assert plan.truth(bits) == (1 if sum(bits) in (1, 3) else 0)
