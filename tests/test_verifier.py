"""Exhaustive simulation: run trees, reports, and branch accounting."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import pytest

from exactq import (
    Call,
    Contract,
    IndexOutOfRange,
    LabeledState,
    MeasureStep,
    Output,
    PartitionGap,
    Plan,
    PrepareState,
    QueryStep,
    RunTree,
    audit_leaf_degrees,
    build_equality,
    build_general_unbalance,
    build_unb,
    build_unbr,
    chain_gamma_at,
    extract_multilinear,
    run_on_input,
    solve_step_constants,
    tree_leaves,
    verify_exactness,
)
from exactq.batch import summarize
from exactq.gadgets import extract_trailing_index
from exactq.plans import var
from exactq.state_core import S_LABEL, anc, comp, idx, pair, tag
from exactq.verifier import DEFAULT_BRANCH_TOL, DEFAULT_TOL
from reference import Executor


def check_norm_conservation(tree, depth=1):
    """Each interior node's mass must equal the sum over its children."""
    if not tree.children:
        return
    total = sum(child.norm_sq for child in tree.children)
    assert abs(total - tree.norm_sq) < 1e-9 * depth, (tree.kind, depth)
    for child in tree.children:
        check_norm_conservation(child, depth + 1)


def mutated_unbr_5_1():
    base = solve_step_constants(5, 1, chain_gamma_at(1, 3))
    return build_unbr(5, 1, constants=replace(base, c1=base.c1 + 2e-3), validate=False)


def lossy_plan(amps):
    """Prepare amplitudes on |1>, |2>, |3>, then measure one outcome whose
    rewrite merges |1> into |2>: the |1>-|2> part cancels and its norm is
    lost."""
    state = LabeledState({idx(i + 1): a for i, a in enumerate(amps)})
    merge = MeasureStep(lambda label: ("all",), ((("all",), {idx(1): idx(2)}, Output(1)),))
    root = PrepareState(state, merge)
    return Plan(family="lossy", n=1, params=(), root=root, claimed_queries=0,
                truth=lambda bits: 1)


# The outcome `s_only_measure` gives the labels other than |S>: None, or an
# id that names no child. Either makes those labels gaps.
GAP_OUTCOMES = (None, ("i",))


def s_only_measure(other=None):
    """Measure a single outcome that holds |S> alone; every other label gets
    the outcome `other`, which names no child."""
    return MeasureStep(lambda label: ("s",) if label == S_LABEL else other, ((("s",), None, Output(1)),))


def small_plan(root, *, n=1, contract=None):
    return Plan(family="small", n=n, params=(), root=root, claimed_queries=1,
                truth=lambda bits: 1, contract=contract)


class TestRunTree:
    def test_input_arity_checked(self):
        plan = build_equality(3)
        with pytest.raises(ValueError):
            run_on_input(plan, (0, 1))

    def test_root_mass_is_one_for_fresh_plans(self):
        plan = build_unb(3, 1)
        for bits in itertools.product((0, 1), repeat=3):
            tree = run_on_input(plan, bits)
            assert tree.norm_sq == pytest.approx(1.0)

    @pytest.mark.parametrize("builder,args", [
        (build_unb, (3, 1)), (build_unb, (5, 1)), (build_unb, (4, 2)),
        (build_equality, (4,)), (build_unbr, (5, 1)),
    ])
    def test_norm_conserved_at_every_level(self, builder, args):
        plan = builder(*args)
        for bits in itertools.product((0, 1), repeat=plan.n):
            check_norm_conservation(run_on_input(plan, bits))

    def test_leaves_carry_single_output(self):
        plan = build_unb(5, 1)
        for bits in itertools.product((0, 1), repeat=5):
            leaves = tree_leaves(run_on_input(plan, bits))
            outputs = {leaf.output for leaf in leaves}
            assert outputs == {plan.truth(bits)}

    @pytest.mark.parametrize("branch_tol", [2.0, -0.1, math.nan], ids=["2", "negative", "nan"])
    def test_branch_tol_out_of_range_is_refused(self, branch_tol):
        # 2.0 would prune the root and NaN would prune nothing.
        with pytest.raises(ValueError, match="^branch_tol must be"):
            run_on_input(build_equality(2), (0, 1), branch_tol=branch_tol)

    def test_contract_plan_enters_through_contract(self):
        plan = build_unbr(3, 1)
        tree = run_on_input(plan, (0, 0, 1))
        assert tree.norm_sq == pytest.approx(1.0)
        assert tree_leaves(tree)

    @pytest.mark.parametrize("make_plan", [
        lambda: build_unb(6, 2),
        lambda: build_unbr(5, 1),
        mutated_unbr_5_1,
        lambda: build_unb(5, 1, gamma_override=0.05),
    ], ids=["unb62", "unbr51", "unbr51-c1-mutated", "unb51-gamma-0.05"])
    def test_leaves_match_summary(self, make_plan):
        # The traced tree, the memoized summary and the input-batched
        # summaries must account for the same mass per output, "gap" leaves
        # (output -1) included, and agree on the deepest query count.
        plan = make_plan()
        executor = Executor()
        _, sums = summarize(plan, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL)
        for index, bits in enumerate(itertools.product((0, 1), repeat=plan.n)):
            summary = executor.run_plan(plan, bits)
            leaves = tree_leaves(run_on_input(plan, bits))
            traced: dict[int, float] = {}
            for leaf in leaves:
                traced[leaf.output] = traced.get(leaf.output, 0.0) + leaf.norm_sq
            expected = dict(summary.mass)
            batched = {output: sums.total[output + 1, index] for output in (-1, 0, 1)}
            for output in traced.keys() | expected.keys() | batched.keys():
                assert traced.get(output, 0.0) == pytest.approx(
                    expected.get(output, 0.0), abs=1e-9), (bits, output)
                assert traced.get(output, 0.0) == pytest.approx(batched[output], abs=1e-9), (bits, output)
            deepest = max((leaf.queries for leaf in leaves), default=0)
            assert deepest == summary.max_queries == max(0, sums.maxq[index])


class TestVerifyExactness:
    def test_report_fields(self):
        report = verify_exactness(build_unb(3, 1))
        assert report.family == "unb"
        assert report.n == 3
        assert report.exact
        assert report.inputs_checked == 8
        assert report.counterexamples == ()
        assert report.worst_case_queries == 2
        assert report.max_norm_residual < 1e-12

    def test_truth_override(self):
        plan = build_equality(2)
        report = verify_exactness(plan, truth=lambda bits: 0)
        assert not report.exact
        assert len(report.counterexamples) == 2

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            verify_exactness(build_unb(3, 1), limit=2)

    def test_counterexamples_record_wrong_outputs_above_tol(self):
        plan = build_unb(5, 1, gamma_override=0.05)
        report = verify_exactness(plan)
        assert not report.exact
        for bits, output, weight in report.counterexamples:
            assert len(bits) == 5
            assert output != plan.truth(bits)
            assert weight > 1e-9

    def test_as_dict_shapes(self):
        report = verify_exactness(build_unb(3, 1))
        flat = report.as_dict()
        assert set(flat) == {
            "family", "params", "exact", "worst_case_queries",
            "claimed_bound", "max_norm_residual",
        }
        verbose = report.as_dict(verbose=True)
        assert verbose["inputs_checked"] == 8
        assert verbose["counterexamples"] == []


class TestLostNorm:
    def test_plan_losing_all_norm_is_not_exact(self):
        report = verify_exactness(lossy_plan((math.sqrt(0.5), -math.sqrt(0.5))))
        assert report.max_norm_residual == pytest.approx(1.0)
        assert not report.exact

    def test_plan_losing_part_of_its_norm_is_not_exact(self):
        report = verify_exactness(lossy_plan((0.6, -0.6, math.sqrt(0.28))))
        assert report.max_norm_residual == pytest.approx(0.72)
        assert report.counterexamples == ()
        assert not report.exact


class TestErrorSemantics:
    @pytest.mark.parametrize("knobs", [
        {"tol": math.nan}, {"tol": -1.0}, {"tol": math.inf},
        {"branch_tol": math.nan}, {"branch_tol": -0.5}, {"branch_tol": 1.0}, {"branch_tol": 2.0},
    ], ids=["tol-nan", "tol-negative", "tol-inf", "branch-tol-nan", "branch-tol-negative",
            "branch-tol-1", "branch-tol-2"])
    @pytest.mark.parametrize("check", [verify_exactness, extract_multilinear], ids=["verify", "extract"])
    def test_meaningless_tolerance_is_refused(self, check, knobs):
        (name, _), = knobs.items()
        with pytest.raises(ValueError, match=f"^{name} must be"):
            check(build_equality(2), **knobs)

    def test_top_level_measurement_missing_a_label_reports_minus_one(self):
        # The measurement has no outcome for |1>: the branch ends there, and
        # its weight lands on output -1, in the summary and in the run tree.
        state = LabeledState({S_LABEL: 0.6, idx(1): 0.8})
        for other in GAP_OUTCOMES:
            plan = small_plan(PrepareState(state, s_only_measure(other)))
            report = verify_exactness(plan)
            assert not report.exact
            assert report.counterexamples == (((0,), -1, pytest.approx(1.0)), ((1,), -1, pytest.approx(1.0)))
            assert Executor().run_plan(plan, (1,)).mass == ((-1, pytest.approx(1.0)),)
            gap = RunTree("gap", None, pytest.approx(1.0), 0, -1, True, ())
            assert run_on_input(plan, (1,)).children == (gap,)

    def test_minus_one_is_never_within_tol(self):
        # A branch of weight 1e-7 gaps, below tol = 1e-6 and above branch_tol:
        # the plan is not exact, and the gap is a counterexample.
        tol, mass = 1e-6, 1e-7
        state = LabeledState({S_LABEL: math.sqrt(1.0 - mass), idx(1): math.sqrt(mass)})
        split = MeasureStep({S_LABEL: ("s",), idx(1): ("i",)}.get,
                            ((("s",), None, Output(1)), (("i",), None, s_only_measure())))
        plan = small_plan(PrepareState(state, split))
        report = verify_exactness(plan, tol=tol)
        assert report.max_norm_residual <= tol
        assert report.counterexamples == (((0,), -1, pytest.approx(mass)), ((1,), -1, pytest.approx(mass)))
        assert not report.exact

    def test_mismatched_call_leaving_the_callee_partition_reports_minus_one(self):
        # The call's state is not proportional to the callee's contract |S>,
        # so the callee runs on it directly, and its measurement has no
        # outcome for |1>: the branch's weight there, the whole call's,
        # lands on output -1.
        for other in GAP_OUTCOMES:
            callee = small_plan(s_only_measure(other), contract=Contract(1, (S_LABEL,), (1.0,), ((0.0,),)))
            state = LabeledState({S_LABEL: 0.6, idx(1): 0.8})
            report = verify_exactness(small_plan(PrepareState(state, Call(callee, (var(1),)))))
            assert not report.exact
            assert [(bits, output) for bits, output, _ in report.counterexamples] == [((0,), -1), ((1,), -1)]
            assert [weight for _, _, weight in report.counterexamples] == pytest.approx([1.0, 1.0])
            assert report.max_norm_residual == pytest.approx(0.8)

    def test_gap_reports_its_own_query_depth(self):
        # One query, then a call whose state misses the callee's contract |S>,
        # so the callee is walked directly; it queries once more and gaps.
        # The gap is two queries deep.
        callee = small_plan(QueryStep(extract_trailing_index, s_only_measure()),
                            contract=Contract(1, (S_LABEL,), (1.0,), ((0.0,),)))
        state = LabeledState({S_LABEL: 0.6, idx(1): 0.8})
        plan = small_plan(PrepareState(state, QueryStep(extract_trailing_index, Call(callee, (var(1),)))))
        report = verify_exactness(plan)
        assert report.worst_case_queries == 2
        assert [output for _, output, _ in report.counterexamples] == [-1, -1]
        for bits in ((0,), (1,)):
            assert Executor().run_plan(plan, bits).max_queries == 2
            assert [leaf.queries for leaf in tree_leaves(run_on_input(plan, bits))] == [2]

    @pytest.mark.parametrize("make_plan,dropped", [
        (lambda: build_equality(4), S_LABEL),
        (lambda: build_unb(6, 2), tag("R", pair(1, 2))),
        (lambda: build_general_unbalance(6, 1), comp(anc(0), S_LABEL)),
    ], ids=["equality4", "unb62", "general61"])
    def test_measurement_dropping_a_populated_label_raises(self, make_plan, dropped):
        # A structural mutant: the root's measurement, reached through
        # unitary steps only, gives one populated label no outcome. The
        # degree audit raises; verification reports output -1 and refutes it.
        plan = make_plan()
        spine = [plan.root]
        while not isinstance(spine[-1], MeasureStep):
            spine.append(spine[-1].child)
        measure = spine.pop()
        node = replace(measure, outcome_of=lambda label: None if label == dropped
                       else measure.outcome_of(label))
        for step in reversed(spine):
            node = replace(step, child=node)
        mutant = replace(plan, root=node)
        assert verify_exactness(plan).exact
        with pytest.raises(PartitionGap):
            audit_leaf_degrees(mutant)
        report = verify_exactness(mutant)
        assert not report.exact
        assert any(output == -1 for _, output, _ in report.counterexamples)

    def test_query_index_out_of_range_raises(self):
        root = PrepareState(LabeledState({idx(3): 1.0}), QueryStep(extract_trailing_index, Output(1)))
        with pytest.raises(IndexOutOfRange):
            verify_exactness(small_plan(root, n=2))

    @pytest.mark.parametrize("run", [verify_exactness, extract_multilinear,
                                     lambda plan: run_on_input(plan, (0, 1))],
                             ids=["verify", "extract", "run_on_input"])
    def test_call_wire_past_the_parents_n_raises(self, run):
        plan = Plan(family="wired", n=2, params=(), root=Call(build_equality(2), (var(1), var(3))),
                    claimed_queries=1, truth=lambda bits: 1)
        with pytest.raises(IndexOutOfRange, match=r"equality: wire var\(3\) is past the caller's n=2"):
            run(plan)

    @staticmethod
    def merge_plan(amps):
        """Prepare amplitudes on |1>, |2>, |3>, merge |1> into |2>, then
        measure |3> into outcome a and |2> into outcome b."""
        state = LabeledState({idx(i + 1): a for i, a in enumerate(amps) if a})
        inner = MeasureStep({idx(3): ("a",), idx(2): ("b",)}.get,
                            ((("a",), None, Output(1)), (("b",), None, Output(0))))
        return small_plan(PrepareState(state, MeasureStep(lambda label: ("all",),
                                                          ((("all",), {idx(1): idx(2)}, inner),))))

    def test_merged_label_that_cancels_loses_its_norm(self):
        # The merged |2> cancels, so outcome b receives nothing; the lost
        # norm refutes the plan.
        plan = self.merge_plan((0.6, -0.6, math.sqrt(0.28)))
        report = verify_exactness(plan)
        assert not report.exact and report.counterexamples == ()
        assert report.max_norm_residual == pytest.approx(0.72)
        assert Executor().run_plan(plan, (0,)).mass == ((1, pytest.approx(0.28)),)


class TestVacuousContracts:
    def test_zero_contract_inputs_are_skipped(self):
        # The gap-1 contract state vanishes identically for balanced inputs
        # on even n; such inputs carry no mass and cannot refute the plan.
        plan = build_unbr(3, 1)
        report = verify_exactness(plan)
        assert report.inputs_checked == 8
        assert report.exact
