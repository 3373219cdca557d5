"""Acceptance polynomials, leaf degree audits, and weight symmetrization."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactq import (
    Call,
    Contract,
    LabeledState,
    MultilinearPoly,
    Output,
    PartitionGap,
    PrepareState,
    SymSpec,
    ZeroWitnessMissing,
    audit_leaf_degrees,
    build_appendix_a,
    build_equality,
    build_exact_kl,
    build_general_unbalance,
    build_sym,
    build_unb,
    build_unbr,
    chain_gamma_at,
    extract_multilinear,
    root_count_lower_bound,
    run_on_input,
    solve_step_constants,
    symmetrize_to_univariate,
)
from exactq.batch import leaf_values as batch_leaf_values
from exactq.gadgets import OracleSpec
from exactq.plans import var
from exactq.state_core import S_LABEL, idx
from exactq.verifier import (
    DEFAULT_BRANCH_TOL,
    DEFAULT_TOL,
    LeafDegreeRecord,
    _SCRATCH,
    _collect_plans,
    _step,
)
from reference import leaf_values, leaf_weight, output_leaf_paths
from test_batch import STEP_FIELDS, deltas, mutated_unbr
from test_verifier import GAP_OUTCOMES, s_only_measure, small_plan


def exit_states(node, state, oracle, path=(), queries=0):
    """Reference: yield (outcome path, queries, branch state) at every Output
    or Call exit of one plan on one input, without descending into callees."""
    if isinstance(node, (Output, Call)):
        yield path, queries, state
        return
    for oid, child, branch, spent in _step(node, state, state.squared_norm(), oracle):
        yield from exit_states(child, branch, oracle,
                               path if oid is None else path + (oid,), queries + spent)


def reference_audit(plan, coeff_tol=1e-9):
    """Reference: the leaf degree audit run one input at a time on
    LabeledStates, one Fourier inversion per (path, label)."""
    records = []
    for sub in _collect_plans(plan):
        entry_degree = 0 if sub.contract is None else 1
        collected = {}
        queries_by_path = {}
        n_inputs = 1 << sub.n
        for position, bits in enumerate(itertools.product((0, 1), repeat=sub.n)):
            oracle = OracleSpec.from_bits(bits)
            entry = _SCRATCH if sub.contract is None else sub.contract(oracle.xhat)
            for path, queries, state in exit_states(sub.root, entry, oracle):
                queries_by_path[path] = queries
                for label, amp in state.items():
                    slot = collected.setdefault((path, label), [0.0] * n_inputs)
                    slot[position] = amp.real
        for (path, label), values in sorted(collected.items()):
            queries = queries_by_path[path]
            poly = MultilinearPoly.from_values(sub.n, values, tol=coeff_tol)
            records.append(LeafDegreeRecord(
                family=sub.family, n=sub.n, path=path, label=label,
                queries=queries, entry_degree=entry_degree,
                degree=poly.degree(tol=coeff_tol), bound=queries + entry_degree,
            ))
    return tuple(records)


def mutated_unbr_5_1():
    base = solve_step_constants(5, 1, chain_gamma_at(1, 3))
    return build_unbr(5, 1, constants=replace(base, c1=base.c1 + 2e-3), validate=False)


class TestMultilinearPoly:
    def test_xor_truth_table(self):
        poly = MultilinearPoly.from_values(2, [0.0, 1.0, 1.0, 0.0])
        assert poly.coeffs == (((), 0.5), ((1, 2), -0.5))
        assert poly.degree() == 2

    def test_constant(self):
        poly = MultilinearPoly.from_values(1, [1.0, 1.0])
        assert poly.coeffs == (((), 1.0),)
        assert poly.degree() == 0

    def test_single_variable(self):
        values = [1 - 2 * b for b in (0, 1)]
        poly = MultilinearPoly.from_values(1, values)
        assert poly.coeff((1,)) == pytest.approx(1.0)
        assert poly.coeff(()) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**10))
    def test_inversion_roundtrip(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(2**n)
        poly = MultilinearPoly.from_values(n, values, tol=0.0)
        for bits, expected in zip(itertools.product((0, 1), repeat=n), values):
            xhat = [1 - 2 * b for b in bits]
            assert poly.evaluate(xhat) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
    def test_meaningless_tolerance_is_refused(self, tol):
        # A NaN or infinite tolerance would drop every coefficient.
        with pytest.raises(ValueError, match="^tol must be"):
            MultilinearPoly.from_values(2, [1.0, 0.0, 0.0, 1.0], tol=tol)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
    @pytest.mark.parametrize("symmetrized", [False, True], ids=["multilinear", "symmetrized"])
    def test_meaningless_degree_tolerance_is_refused(self, tol, symmetrized):
        # A NaN or infinite tolerance would give degree 0 for degree 2.
        poly = MultilinearPoly.from_values(2, [0.0, 1.0, 1.0, 0.0])
        if symmetrized:
            poly = symmetrize_to_univariate(poly)
        assert poly.degree() == 2
        with pytest.raises(ValueError, match="^tol must be"):
            poly.degree(tol=tol)


class TestAcceptancePolynomials:
    def test_balanced_gap_one_plan(self):
        poly = extract_multilinear(build_unb(3, 1))
        assert poly.degree() == 2
        sym = symmetrize_to_univariate(poly)
        assert tuple(sym.q_values) == pytest.approx((0.0, 1.0, 1.0, 0.0), abs=1e-9)

    def test_equality_acceptance(self):
        poly = extract_multilinear(build_equality(2))
        assert poly.coeff(()) == pytest.approx(0.5)
        assert poly.coeff((1, 2)) == pytest.approx(0.5)

    def test_leaf_selector_masses_sum_to_one(self):
        plan = build_unb(3, 1)
        rest = extract_multilinear(plan, ("leaf", (("rest",),)))
        pair_leaves = [
            extract_multilinear(plan, ("leaf", (("pair", i, j),)))
            for i, j in [(1, 2), (1, 3), (2, 3)]
        ]
        for bits in itertools.product((0, 1), repeat=3):
            xhat = [1 - 2 * b for b in bits]
            total = rest.evaluate(xhat) + sum(p.evaluate(xhat) for p in pair_leaves)
            assert total == pytest.approx(1.0, abs=1e-9)


class TestLeafPolynomials:
    @pytest.mark.parametrize("make_plan,stride", [
        (lambda: build_unb(6, 2), 13),
        (mutated_unbr_5_1, 1),
    ], ids=["unb62", "unbr51-c1-mutated"])
    def test_path_walk_equals_full_run_tree(self, make_plan, stride):
        # The reference path-only walk must read exactly the weight the full
        # run tree holds at the end of the path, on every input. unb(6,2) has
        # 391 output leaf paths; every 13th is checked to keep the test short.
        plan = make_plan()
        trees = [run_on_input(plan, bits) for bits in itertools.product((0, 1), repeat=plan.n)]
        paths = output_leaf_paths(trees)[::stride]
        for path in paths + [path[:-1] for path in paths if path]:
            expected = [leaf_weight(tree, path) for tree in trees]
            assert leaf_values(plan, path) == expected, path
        # extract_multilinear runs the batched walker, whose float64 sums
        # may differ from the tree's in the last bits.
        assert_same_polynomial(extract_multilinear(plan, ("leaf", paths[0])),
                               MultilinearPoly.from_values(plan.n, [leaf_weight(tree, paths[0])
                                                                    for tree in trees]))

    @pytest.mark.parametrize("make_plan", [lambda: build_unb(6, 2), mutated_unbr_5_1],
                             ids=["unb62", "unbr51-c1-mutated"])
    def test_batched_walk_matches_full_run_tree_on_every_path(self, make_plan):
        plan = make_plan()
        trees = [run_on_input(plan, bits) for bits in itertools.product((0, 1), repeat=plan.n)]
        paths = output_leaf_paths(trees)
        for path in paths + [path[:-1] for path in paths if path]:
            expected = [leaf_weight(tree, path) for tree in trees]
            values = batch_leaf_values(plan, path, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL)
            assert np.abs(values - expected).max() <= 1e-12, path
            assert_same_polynomial(MultilinearPoly.from_values(plan.n, values),
                                   MultilinearPoly.from_values(plan.n, expected))


def assert_same_polynomial(poly, expected):
    """Same support, and coefficients within 1e-15."""
    assert [s for s, _ in poly.coeffs] == [s for s, _ in expected.coeffs]
    assert [c for _, c in poly.coeffs] == pytest.approx([c for _, c in expected.coeffs],
                                                        rel=0.0, abs=1e-15)


class TestSymmetrization:
    @pytest.mark.parametrize("seed", range(12))
    def test_q_is_the_mean_of_each_weight_class(self, seed):
        # Averaging coefficients per subset size averages the polynomial over
        # variable permutations, so q(s) is the table's mean over weight s.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 11))
        values = rng.standard_normal(2**n)
        weights = [sum(bits) for bits in itertools.product((0, 1), repeat=n)]
        brute = [np.mean([v for v, w in zip(values, weights) if w == s]) for s in range(n + 1)]
        sym = symmetrize_to_univariate(MultilinearPoly.from_values(n, values, tol=0.0))
        assert sym.q_values == pytest.approx(brute, rel=0.0, abs=1e-12)

    def test_linear_character(self):
        values = []
        for bits in itertools.product((0, 1), repeat=3):
            values.append(1 - 2 * bits[0])
        poly = MultilinearPoly.from_values(3, values)
        sym = symmetrize_to_univariate(poly)
        assert tuple(sym.q_values) == pytest.approx((1.0, 1 / 3, -1 / 3, -1.0))
        assert sym.degree() == 1

    def test_quadratic_character(self):
        values = []
        for bits in itertools.product((0, 1), repeat=3):
            values.append((1 - 2 * bits[0]) * (1 - 2 * bits[1]))
        poly = MultilinearPoly.from_values(3, values)
        sym = symmetrize_to_univariate(poly)
        assert tuple(sym.q_values) == pytest.approx((1.0, -1 / 3, -1 / 3, 1.0))
        assert sym.degree() == 2

    def test_symmetric_inputs_collapse_consistently(self):
        poly = extract_multilinear(build_unb(5, 1))
        sym = symmetrize_to_univariate(poly)
        assert tuple(sym.q_values) == pytest.approx((0, 0, 1, 1, 0, 0), abs=1e-9)

    def test_asymmetric_polynomial_averages_per_class(self):
        poly = MultilinearPoly.from_values(2, [0.0, 1.0, 0.0, 0.0])
        sym = symmetrize_to_univariate(poly)
        assert tuple(sym.q_values) == pytest.approx((0.0, 0.5, 0.0))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_degree_never_grows(self, n):
        # Averaging over permutations cannot raise the degree.
        values = [1.0 if sum(bits) == 0 else 0.0
                  for bits in itertools.product((0, 1), repeat=n)]
        poly = MultilinearPoly.from_values(n, values)
        sym = symmetrize_to_univariate(poly)
        assert sym.degree() <= poly.degree()


class TestLeafDegreeAudit:
    def test_gap_one_contract_plan(self):
        records = audit_leaf_degrees(build_unbr(3, 1))
        assert len(records) == 5
        assert all(r.ok for r in records)
        assert {r.entry_degree for r in records} == {1}

    def test_full_plan_has_fresh_and_contract_entries(self):
        records = audit_leaf_degrees(build_unb(5, 1))
        assert records
        assert all(r.ok for r in records)
        assert {r.entry_degree for r in records} == {0, 1}

    def test_bound_is_path_queries_plus_entry(self):
        for r in audit_leaf_degrees(build_unb(3, 1)):
            assert r.bound == r.queries + r.entry_degree
            assert r.degree <= r.bound

    @pytest.mark.parametrize("coeff_tol", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
    def test_meaningless_coefficient_tolerance_is_refused(self, coeff_tol):
        # A NaN or infinite tolerance would put every record at degree 0.
        with pytest.raises(ValueError, match="^coeff_tol must be"):
            audit_leaf_degrees(build_unbr(3, 1), coeff_tol=coeff_tol)


class TestBatchedDegreeAudit:
    """The batched audit against the per-input reference, under ==."""

    @pytest.mark.parametrize("make_plan", [
        lambda: build_unb(3, 1),
        lambda: build_unb(5, 1),
        lambda: build_unb(6, 2),
        lambda: build_unb(7, 3),
        lambda: build_unbr(5, 1),
        lambda: build_unbr(6, 2),
        lambda: build_equality(4),
        lambda: build_exact_kl(8, 2, 6),
        lambda: build_sym(SymSpec("0011100")),
        lambda: build_general_unbalance(6, 2),
        build_appendix_a,
    ], ids=["unb31", "unb51", "unb62", "unb73", "unbr51", "unbr62", "equality4",
            "exactkl826", "sym0011100", "general62", "appendixA"])
    def test_matches_per_input_audit(self, make_plan):
        plan = make_plan()
        assert audit_leaf_degrees(plan) == reference_audit(plan)

    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from(((5, 1), (6, 2))), st.sampled_from(STEP_FIELDS), deltas)
    def test_mutated_step_constants_match(self, nd, name, delta):
        # The leakage coefficient must stay nonnegative.
        plan = mutated_unbr(*nd, name, abs(delta) if name == "gamma" else delta)
        assert audit_leaf_degrees(plan) == reference_audit(plan)

    def test_measurement_missing_a_populated_label_raises(self):
        state = LabeledState({S_LABEL: 0.6, idx(1): 0.8})
        for other in GAP_OUTCOMES:
            plan = small_plan(PrepareState(state, s_only_measure(other)))
            with pytest.raises(PartitionGap):
                audit_leaf_degrees(plan)
            with pytest.raises(PartitionGap):
                reference_audit(plan)

    def test_contract_norm_above_the_residue_bound_raises(self):
        # Gadget rows below 1e-15 are left out, which is exact only while a
        # column's norm is at most STORE_TOL / 1e-15 = 100.
        def plan_with_norm(norm):
            callee = small_plan(s_only_measure(), contract=Contract(1, (S_LABEL,), (norm,), ((0.0,),)))
            return small_plan(PrepareState(LabeledState({S_LABEL: 1.0}), Call(callee, (var(1),))))

        assert audit_leaf_degrees(plan_with_norm(50.0)) == reference_audit(plan_with_norm(50.0))
        with pytest.raises(ValueError, match="contract norm"):
            audit_leaf_degrees(plan_with_norm(1000.0))


class TestRootCount:
    def test_zero_pattern(self):
        q = {0: 1.0, 1: 0.0, 2: 1e-12, 3: 0.5, 4: 0.0, 5: 1e-10}
        assert root_count_lower_bound(q, 0) == 4

    def test_missing_witness_point(self):
        with pytest.raises(ZeroWitnessMissing):
            root_count_lower_bound({0: 1.0, 1: 0.0}, 2)

    def test_vanishing_witness(self):
        with pytest.raises(ZeroWitnessMissing):
            root_count_lower_bound({0: 1e-12, 1: 1.0}, 0)

    def test_restricted_pattern_matches_degree_bound(self):
        # Restrict q to weights k..n and shift; the zero count equals
        # max{n-k, l} - 1 for the balanced gap-1 plan at n=5 (k=2, l=3).
        poly = extract_multilinear(build_unb(5, 1))
        sym = symmetrize_to_univariate(poly)
        k, l, n = 2, 3, 5
        restricted = {t: sym.q_values[k + t] for t in range(n - k + 1)}
        assert root_count_lower_bound(restricted, 0) == max(n - k, l) - 1

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
    def test_meaningless_tolerance_is_refused(self, tol):
        # A NaN or negative tolerance would count no zeros and skip the
        # witness check.
        q = {0: 1.0, 1: 0.0, 2: 0.0}
        assert root_count_lower_bound(q, 0) == 2
        with pytest.raises(ValueError, match="^tol must be"):
            root_count_lower_bound(q, 0, tol=tol)

    def test_all_nonzero_gives_zero_bound(self):
        assert root_count_lower_bound({0: 1.0, 1: 0.5, 2: -0.25}, 1) == 0
