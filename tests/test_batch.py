"""Differential tests: the input-batched summary walk, and the leaf values it
reads off a plan marked along an outcome path, against the per-input
LabeledState reference of tests/reference.py."""

from __future__ import annotations

import functools
import gc
import itertools
import math
import random
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from exactq import (
    OUTWARD,
    TWO_SIDED,
    BindingConflict,
    Call,
    Contract,
    GadgetStep,
    LabeledState,
    MeasureStep,
    Output,
    PartitionGap,
    Plan,
    PrepareState,
    QueryStep,
    appendix_a_angles,
    build_appendix_a,
    SymSpec,
    build_equality,
    build_exact_k,
    build_exact_kl,
    build_general_unbalance,
    build_sym,
    build_unb,
    build_unbr,
    chain_gamma_at,
    identity_binding,
    isometry_from_columns,
    solve_step_constants,
    verify_exactness,
    weight_truth,
)
from exactq import algorithms, batch, plans, state_core
from exactq.batch import (_Bindings, _Sums, _Walker, _columns, _route, _runs, _sub_inputs, exit_amplitudes,
                          leaf_values, summarize)
from exactq.gadgets import OracleSpec, extract_trailing_index, q_rotation
from exactq.plans import WeightTruth, const, identity_wires, var
from exactq.state_core import S_LABEL, ZERO_LABEL, anc, idx
from exactq.verifier import DEFAULT_BRANCH_TOL, DEFAULT_TOL, _collect_plans, _enter, _entry_state, _step
import reference
import reports
import test_verifier
from reference import Executor
from test_verifier import GAP_OUTCOMES, s_only_measure, small_plan

OUTPUTS = (-1, 0, 1)
STEP_FIELDS = ("c1", "c2", "c8", "c9", "gamma")


def reference_report(plan, *, tol=DEFAULT_TOL):
    """(exact, worst-case queries, counterexample (input, output, total mass)
    list) of the per-input executor, by the verdict rule of
    `verify_exactness`: output -1 is never within `tol`."""
    executor = Executor(tol=tol)
    worst, residual, wrong_mass, gapped, counterexamples = 0, 0.0, 0.0, False, []
    for bits in itertools.product((0, 1), repeat=plan.n):
        if executor.entry_state(plan, OracleSpec.from_bits(bits)) is None:
            continue
        summary = executor.run_plan(plan, bits)
        worst = max(worst, summary.max_queries)
        total = sum(t for _, t in summary.mass)
        residual = max(residual, abs(total - 1.0), summary.residual)
        wrong = [(output, t) for output, t in summary.mass if output != plan.truth(bits)]
        wrong_mass = max(wrong_mass, sum(t for _, t in wrong))
        gapped = gapped or any(output == -1 and t > 0 for output, t in wrong)
        counterexamples += [(bits, output, t) for output, t in wrong if t > (0.0 if output == -1 else tol)]
    exact = wrong_mass <= tol and residual <= tol and not gapped
    return exact, worst, counterexamples


def assert_batch_matches_executor(plan):
    entered, sums = summarize(plan, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL)
    executor = Executor()
    for index, bits in enumerate(itertools.product((0, 1), repeat=plan.n)):
        summary = executor.run_plan(plan, bits)
        masses = dict(summary.mass)
        for row, output in enumerate(OUTPUTS):
            assert sums.total[row, index] == pytest.approx(masses.get(output, 0.0), abs=1e-12), (bits, output)
        assert sums.resid[index] == pytest.approx(summary.residual, abs=1e-12), bits
        assert max(0, sums.maxq[index]) == summary.max_queries, bits
        assert (sums.maxq[index] >= 0) == bool(summary.mass), bits
    report = verify_exactness(plan)
    exact, worst, counterexamples = reference_report(plan)
    assert report.exact == exact
    assert report.worst_case_queries == worst
    assert [(bits, output) for bits, output, _ in report.counterexamples] == \
        [(bits, output) for bits, output, _ in counterexamples]
    for (bits, output, norm_sq), (_, _, total) in zip(report.counterexamples, counterexamples):
        assert norm_sq == pytest.approx(total, abs=1e-12), (bits, output)


def final_measurement(plan) -> MeasureStep:
    """The measurement at the end of a plan's single-child spine."""
    node = plan.root
    while not isinstance(node, MeasureStep):
        node = node.child
    return node


def mutated_unbr(n, d, name, delta):
    base = solve_step_constants(n, d, chain_gamma_at(d, n - 2))
    return build_unbr(n, d, constants=replace(base, **{name: getattr(base, name) + delta}),
                      validate=False)


deltas = st.floats(1e-4, 1e-2).flatmap(lambda x: st.sampled_from((x, -x)))


VALID_PLANS = {
    "unb62": lambda: build_unb(6, 2),
    "unbr51": lambda: build_unbr(5, 1),
    "equality4": lambda: build_equality(4),
    "exactkl826": lambda: build_exact_kl(8, 2, 6),
    # Measurements with 21 sibling calls into one contract-free plan.
    "sym0011100two": lambda: build_sym(SymSpec("0011100", strategy=TWO_SIDED)),
    "sym0011100out": lambda: build_sym(SymSpec("0011100", strategy=OUTWARD)),
    "general61": lambda: build_general_unbalance(6, 1),
}


@pytest.mark.parametrize("name", VALID_PLANS)
def test_valid_plans_match(name):
    assert_batch_matches_executor(VALID_PLANS[name]())


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(((5, 1), (6, 2))), st.sampled_from(STEP_FIELDS), deltas)
def test_mutated_step_constants_match(nd, name, delta):
    # The leakage coefficient must stay nonnegative.
    assert_batch_matches_executor(mutated_unbr(*nd, name, abs(delta) if name == "gamma" else delta))


@settings(max_examples=4, deadline=None)
@given(st.floats(0.0, 0.5))
def test_gamma_override_matches(gamma):
    assert_batch_matches_executor(build_unb(5, 1, gamma_override=gamma))


@settings(max_examples=4, deadline=None)
@given(st.sampled_from(sorted(appendix_a_angles())), st.floats(1e-4, 1e-1), st.booleans())
def test_appendix_a_angle_override_matches(name, delta, negative):
    angle = appendix_a_angles()[name] + (-delta if negative else delta)
    assert_batch_matches_executor(build_appendix_a(angle_overrides={name: angle}))


def measures_below(node):
    """Whether a measurement is reachable from `node`, across Calls."""
    if isinstance(node, Output):
        return False
    if isinstance(node, MeasureStep):
        return True
    return measures_below(node.plan.root if isinstance(node, Call) else node.child)


def draw_spine(data, node):
    """A drawn walk from `node` to a measurement, as its spine: (step, index
    of the child taken, None for a Call or a step with one child) pairs,
    then the measurement. At each measurement the walk stops, or descends
    into a drawn child from which a measurement is reachable; it crosses
    Calls into their callees."""
    spine = []
    while True:
        if isinstance(node, MeasureStep):
            onward = [k for k, (_, _, child) in enumerate(node.children) if measures_below(child)]
            if not onward or data.draw(st.booleans(), label="stop"):
                return spine, node
            k = data.draw(st.sampled_from(onward), label="child")
            spine.append((node, k))
            node = node.children[k][2]
        else:
            spine.append((node, None))
            node = node.plan.root if isinstance(node, Call) else node.child


def rebuilt(spine, node):
    """The root of a plan whose spine `spine` ends in `node` instead. Each
    Call on the spine calls a copy of its callee rebuilt on the rest of the
    spine; every other Call keeps the original callee."""
    for step, k in reversed(spine):
        if isinstance(step, Call):
            node = replace(step, plan=replace(step.plan, root=node))
        elif k is None:
            node = replace(step, child=node)
        else:
            children = list(step.children)
            children[k] = children[k][:2] + (node,)
            node = replace(step, children=tuple(children))
    return node


DROP_PLANS = {
    "equality4": lambda: build_equality(4),
    "unb62": lambda: build_unb(6, 2),
    "general61": lambda: build_general_unbalance(6, 1),
    "unbr51": lambda: build_unbr(5, 1),
}


def dropped_outcome_mutant(data, plan):
    """A structural mutant of `plan`: one drawn measurement, at the root plan
    or inside a callee, gives the labels of one of its outcomes no outcome."""
    spine, measure = draw_spine(data, plan.root)
    dropped = data.draw(st.sampled_from([oid for oid, _, _ in measure.children]), label="dropped")
    node = replace(measure, outcome_of=lambda label: None if measure.outcome_of(label) == dropped
                   else measure.outcome_of(label))
    return replace(plan, root=rebuilt(spine, node))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(DROP_PLANS)), st.data())
def test_dropped_outcome_mutants_match(name, data):
    # Wherever the reference puts weight on output -1, the mutant is refuted.
    plan = DROP_PLANS[name]()
    mutant = dropped_outcome_mutant(data, plan)
    assert_batch_matches_executor(mutant)
    executor = Executor()
    if any(dict(executor.run_plan(mutant, bits).mass).get(-1, 0.0) > 0
           for bits in itertools.product((0, 1), repeat=plan.n)):
        assert not verify_exactness(mutant).exact


def test_wrong_mass_spread_over_branches_is_not_exact():
    # Two wrong branches of 0.8 tol each: neither exceeds tol, but together
    # they carry 1.6 tol of output 0, so on each input that output is a
    # counterexample and the plan is not exact.
    tol, mass = 1e-6, 0.8e-6
    state = LabeledState({S_LABEL: math.sqrt(1.0 - 2 * mass), idx(1): math.sqrt(mass),
                          idx(2): math.sqrt(mass)})
    root = MeasureStep(lambda label: (label,), (((S_LABEL,), None, Output(1)),
                                                ((idx(1),), None, Output(0)),
                                                ((idx(2),), None, Output(0))))
    plan = Plan(family="spread", n=1, params=(), root=PrepareState(state, root),
                claimed_queries=0, truth=lambda bits: 1)
    report = verify_exactness(plan, tol=tol)
    assert report.counterexamples == (((0,), 0, pytest.approx(2 * mass, abs=1e-15)),
                                      ((1,), 0, pytest.approx(2 * mass, abs=1e-15)))
    assert report.max_norm_residual <= tol
    assert not report.exact
    exact, worst, counterexamples = reference_report(plan, tol=tol)
    assert (exact, worst) == (False, 0)
    assert [(bits, output) for bits, output, _ in counterexamples] == [((0,), 0), ((1,), 0)]


# ---------------------------------------------------------------------------
# Folding the summaries of sibling calls
# ---------------------------------------------------------------------------


def bits_of(array):
    return np.ascontiguousarray(array).view(np.uint64)


def check_zero_clean(patch):
    """Patch the walkers to check, at every step, the premise that lets a
    walk skip work bit for bit: every state a step receives is zero-clean
    (`_zero_small` leaves it as it is), so `_Bindings.apply` may copy its
    kept rows unzeroed, and a QueryStep leaves the weights as they were.
    Returns a one-item list that counts the steps checked."""
    steps = [0]
    advance, query, apply = batch._advance, batch._query, _Bindings.apply

    def checked_advance(node, rows, amps, *rest):
        clean = amps.copy()
        batch._zero_small(clean)
        assert np.array_equal(bits_of(clean), bits_of(amps)), node
        steps[0] += 1
        return advance(node, rows, amps, *rest)

    def checked_query(node, rows, amps, *rest):
        weight = batch._weights(amps)
        query(node, rows, amps, *rest)
        assert np.array_equal(bits_of(batch._weights(amps)), bits_of(weight))

    def checked_apply(self, amps):
        rows, out = apply(self, amps)
        assert np.array_equal(bits_of(out[:len(self.keep)]), bits_of(amps[self.keep]))
        clean = out.copy()
        batch._zero_small(clean)
        assert np.array_equal(bits_of(clean), bits_of(out))
        return rows, out

    patch.setattr(batch, "_advance", checked_advance)
    patch.setattr(batch, "_query", checked_query)
    patch.setattr(_Bindings, "apply", checked_apply)
    return steps


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(sorted(DROP_PLANS)), st.data())
def test_steps_receive_zero_clean_states_on_dropped_outcome_mutants(name, data):
    with pytest.MonkeyPatch.context() as patch:
        steps = check_zero_clean(patch)
        summarize(dropped_outcome_mutant(data, DROP_PLANS[name]()), tol=DEFAULT_TOL,
                  branch_tol=DEFAULT_BRANCH_TOL)
    assert steps[0]


# The plans of the verify-chain and verify-dispatch benchmark workloads.
BENCHMARK_PLANS = {
    "unb82": lambda: build_unb(8, 2),
    "unb71": lambda: build_unb(7, 1),
    "unb73": lambda: build_unb(7, 3),
    "exact105": lambda: build_exact_k(10, 5),
    "equality12": lambda: build_equality(12),
    "exactkl826": lambda: build_exact_kl(8, 2, 6),
    "sym0011100": lambda: build_sym(SymSpec("0011100")),
    "general82": lambda: build_general_unbalance(8, 2),
}


def residue_plans():
    """Plans whose steps leave entries of at most STORE_TOL for the walk to
    zero before the next step: a PrepareState entered at weight 0.36, whose
    1.5e-13 entry becomes 9e-14, and a rewrite that merges 0.1 + 0.2 with
    -0.3 into 5.6e-17."""
    prepared = PrepareState(LabeledState({S_LABEL: 1.0, idx(1): 1.5e-13}),
                            QueryStep(extract_trailing_index, s_i_measure(Output(0), Output(1))))
    merged = MeasureStep(lambda label: ("all",), ((("all",), {idx(1): idx(2)},
                                                   QueryStep(extract_trailing_index, Output(1))),))
    state = LabeledState({idx(1): 0.1 + 0.2, idx(2): -0.3, idx(3): math.sqrt(0.82)})
    return {"prepare": split_plan(prepared, Output(1)),
            "merge": small_plan(PrepareState(state, merged), n=3)}


@pytest.mark.parametrize("name", [*BENCHMARK_PLANS, "prepare", "merge"])
def test_steps_receive_zero_clean_states(name, monkeypatch):
    steps = check_zero_clean(monkeypatch)
    plan = BENCHMARK_PLANS[name]() if name in BENCHMARK_PLANS else residue_plans()[name]
    summarize(plan, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL)
    for sub in _collect_plans(plan):
        exit_amplitudes(sub)
    assert steps[0]


def random_sums(rng, width):
    """Summaries of `width` columns with totals over many magnitudes, so that
    the order of additions shows in the last bits."""
    sums = _Sums.vacuous(width)
    sums.total[:] = rng.random((3, width)) * 10.0 ** rng.integers(-15, 1, (3, width))
    sums.maxq[:] = rng.integers(-1, 12, width)
    sums.resid[:] = rng.random(width) * 1e-9
    return sums


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 25), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["some", "none", "all", "one"]))
@example(count=25, width=3, seed=0, live="one")
def test_fold_equals_sequential_merges(count, width, seed, live):
    # A call group folds only its members' live columns, each into its
    # measurement column, in member order; a dead column is vacuous, so it
    # would add exactly nothing. "one" leaves one column live in every
    # member, so its totals take `count` additions in a row.
    rng = np.random.default_rng(seed)
    prior = random_sums(rng, width)
    members = random_sums(rng, count * width)
    spot = np.arange(count * width) % width
    alive = {"some": rng.random(count * width) < 0.5, "none": np.zeros(count * width, dtype=bool),
             "all": np.ones(count * width, dtype=bool), "one": spot == rng.integers(width)}[live]
    members.data[:, ~alive] = _Sums.vacuous(1).data
    folded, sequential = _Sums(prior.data.copy()), _Sums(prior.data.copy())
    cols = np.flatnonzero(alive)
    folded.merge(members.take(cols), spot[cols])
    for m in range(count):
        sequential.merge(members.take(slice(m * width, (m + 1) * width)))
    assert folded.data.tobytes() == sequential.data.tobytes()


def s_i_measure(on_s, on_i, k=1):
    """Measure |S> into outcome s and |k> into outcome i."""
    return MeasureStep({S_LABEL: ("s",), idx(k): ("i",)}.get, ((("s",), None, on_s), (("i",), None, on_i)))


def sibling_call_plan(order):
    """A two-variable plan that measures |1>, |S> and |2>, in that order,
    into children given by `order`: "A" calls a contract-free plan that
    outputs its variable, wired to x1 at the first such child and to x2 at
    the second, and "O" outputs 1."""
    r = math.sqrt(0.5)
    hadamard = isometry_from_columns("hadamard", {S_LABEL: {S_LABEL: r, idx(1): r},
                                                  idx(1): {S_LABEL: r, idx(1): -r}})
    interfere = GadgetStep(((identity_binding(hadamard), False),), s_i_measure(Output(0), Output(1)))
    callee = Plan(family="bit", n=1, params=(), claimed_queries=1, truth=lambda bits: bits[0],
                  root=PrepareState(LabeledState({S_LABEL: r, idx(1): r}),
                                    QueryStep(extract_trailing_index, interfere)))
    calls = iter((Call(callee, (var(1),)), Call(callee, (var(2),))))
    labels = (idx(1), S_LABEL, idx(2))
    measure = MeasureStep({label: (k,) for k, label in enumerate(labels)}.get,
                          tuple(((k,), None, next(calls) if kind == "A" else Output(1))
                                for k, kind in enumerate(order)))
    state = LabeledState({idx(1): 0.48, S_LABEL: 0.6, idx(2): 0.64})
    return small_plan(PrepareState(state, measure), n=2), measure


@pytest.mark.parametrize("order,groups", [("AOA", {}), ("AAO", {0: 2}), ("OAA", {1: 2})])
def test_sibling_calls_group_only_when_adjacent(order, groups):
    plan, measure = sibling_call_plan(order)
    assert_batch_matches_executor(plan)
    compiled = [maps[2] for maps in vars(measure)["_batch_cache"].values()]
    assert compiled and all({k: group[2] for k, group in found.items()} == groups for found in compiled)


def measured_plan(state, children):
    """A two-variable plan that prepares `state` and measures each label of
    the (label, child) pairs `children` into its own child."""
    measure = MeasureStep({label: (k,) for k, (label, _) in enumerate(children)}.get,
                          tuple(((k,), None, child) for k, (_, child) in enumerate(children)))
    return small_plan(PrepareState(state, measure), n=2), measure


def group_results(monkeypatch):
    """The parts every `_Walker.call_group` returns, as they are returned."""
    results = []
    call_group = _Walker.call_group

    def recorded(self, *args):
        results.append(call_group(self, *args))
        return results[-1]

    monkeypatch.setattr(_Walker, "call_group", recorded)
    return results


@pytest.mark.parametrize("empty,first", [(1, 0), (0, 1)], ids=["middle", "first"])
def test_a_sibling_call_without_rows_leaves_its_group(empty, first, monkeypatch):
    # The label |S> of child `empty` is not in the state, so its call holds
    # no row: the group has two members, starts at child `first` and spans
    # the three children.
    bit = read_plan(1, 1)
    labels = [idx(1), idx(2)]
    labels.insert(empty, S_LABEL)
    plan, measure = measured_plan(LabeledState({idx(1): 0.6, idx(2): 0.8}), [
        (label, Call(bit, (var(1 + k % 2),))) for k, label in enumerate(labels)])
    results = group_results(monkeypatch)
    assert_batch_matches_executor(plan)
    compiled = [maps[2] for maps in vars(measure)["_batch_cache"].values()]
    assert compiled and all({k: (group[2], group[-1]) for k, group in found.items()} == {first: (2, 3)}
                            for found in compiled)
    assert results and all(len(cols) == 2 * 4 for parts in results for cols, _ in parts)


def test_a_group_whose_member_columns_are_all_dead_folds_nothing(monkeypatch):
    # Both calls carry weight 1e-10 <= DEFAULT_BRANCH_TOL on every input.
    bit = read_plan(1, 1)
    plan, measure = measured_plan(
        LabeledState({idx(1): 1e-5, idx(2): 1e-5, S_LABEL: math.sqrt(1.0 - 2e-10)}),
        [(idx(1), Call(bit, (var(1),))), (idx(2), Call(bit, (var(2),))), (S_LABEL, Output(1))])
    results = group_results(monkeypatch)
    assert_batch_matches_executor(plan)
    assert results and all(parts == [] for parts in results)
    entered, sums = summarize(plan, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL)
    assert sums.total[2].tolist() == [1.0 - 2e-10] * 4
    assert sums.maxq.tolist() == [0.0] * 4


# The live member columns, those with weight above DEFAULT_BRANCH_TOL, of all
# call groups while the plan is verified: half of the 54 304 (exact(10,5))
# and 53 698 (general(8,2)) member columns.
@pytest.mark.parametrize("make_plan,live", [(lambda: build_exact_k(10, 5), 27152),
                                            (lambda: build_general_unbalance(8, 2), 25810)],
                         ids=["exact105", "general82"])
def test_call_groups_fold_their_live_columns_into_no_wider_block(make_plan, live, monkeypatch):
    plan = make_plan()
    widths, folded = [], []
    vacuous, merge = _Sums.vacuous.__func__, _Sums.merge

    def recorded_vacuous(cls, width):
        widths.append(width)
        return vacuous(cls, width)

    def recorded_merge(self, other, *cols):
        if cols and cols[0] is not None:
            folded.append(len(cols[0]))
        merge(self, other, *cols)

    monkeypatch.setattr(_Sums, "vacuous", classmethod(recorded_vacuous))
    monkeypatch.setattr(_Sums, "merge", recorded_merge)
    verify_exactness(plan)
    # Every block built to fold into is at most a block wide; only the one
    # memo read of a group spans its live member columns.
    assert max(widths) <= max(_columns(sub.label_count) for sub in _collect_plans(plan))
    assert sum(folded) == live


def groups_by_callee(branches):
    """The groups of sibling calls a measurement would form from all its
    children that call one plan without merging labels, adjacent or not."""
    callers: dict[int, list[int]] = {}
    for k, (child, _, _, target) in enumerate(branches):
        if isinstance(child, Call) and target is None:
            callers.setdefault(id(child.plan), []).append(k)
    return sorted(ks for ks in callers.values() if len(ks) > 1)


BUILDER_PLANS = {
    **VALID_PLANS,
    "unb71": lambda: build_unb(7, 1),
    "exact63": lambda: build_exact_k(6, 3),
    "general82": lambda: build_general_unbalance(8, 2),
    "appendixA": build_appendix_a,
}


@pytest.mark.parametrize("name", BUILDER_PLANS)
def test_builder_sibling_calls_are_adjacent(name):
    # Groups form only from adjacent sibling calls; in the builders' plans
    # every group of sibling calls into one plan is such a run, so the walk
    # groups all of them.
    plan = BUILDER_PLANS[name]()
    verify_exactness(plan)
    measured = 0
    for sub in _collect_plans(plan):
        stack = [sub.root]
        while stack:
            node = stack.pop()
            if isinstance(node, MeasureStep):
                stack += [child for _, _, child in node.children]
                for _, branches, groups in vars(node).get("_batch_cache", {}).values():
                    measured += 1
                    assert groups_by_callee(branches) == sorted(
                        list(range(k, k + group[2])) for k, group in groups.items())
            elif isinstance(node, (GadgetStep, PrepareState, QueryStep)):
                stack.append(node.child)
    assert measured


def plan_nodes(plan):
    """Every node of `plan`, not of its callees, depth first, a
    measurement's children in branch order."""
    stack = [plan.root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, MeasureStep):
            stack += reversed([child for _, _, child in node.children])
        elif not isinstance(node, (Output, Call)):
            stack.append(node.child)


def written_labels(plan):
    """The labels that the gadgets and prepared states of `plan`, not of its
    callees, write. A measurement's rewrite only renames the branch that it
    hands on to a callee."""
    labels = set()
    for node in plan_nodes(plan):
        if isinstance(node, GadgetStep):
            labels.update(label for binding, _ in node.applications for label in binding.to_gadget)
        elif isinstance(node, PrepareState):
            labels.update(node.state.support())
    return labels


def test_a_plan_knows_its_shape_when_built():
    # Recounted over each plan's nodes: every label its steps write, a
    # measurement's rewrites included, the plans its calls name in the order
    # they first appear, and its call height.
    heights = {}

    def recount(plan):
        if id(plan) in heights:
            return heights[id(plan)][1]
        labels = written_labels(plan)
        callees = {}
        for node in plan_nodes(plan):
            if isinstance(node, MeasureStep):
                labels.update(label for _, rewrite, _ in node.children if rewrite for label in rewrite.values())
            elif isinstance(node, Call):
                callees.setdefault(id(node.plan), node.plan)
        height = 1 + max(map(recount, callees.values()), default=-1)
        assert (plan.label_count, plan.callees, plan.height) == (len(labels), tuple(callees.values()), height), plan
        heights[id(plan)] = (plan, height)
        return height

    for make in reports.PLANS.values():
        recount(make())
    assert max(height for _, height in heights.values()) > 1


def test_leaf_copies_keep_their_plans_shape_and_compile_their_own_measurements(monkeypatch):
    # A cut plan copy holds fewer labels and calls than its original, but
    # walks in its original's blocks and order. A measurement's maps name
    # its children, so its copy compiles its own.
    plan = build_unb(6, 2)
    verify_exactness(plan)
    copies = []

    def recorded(obj, shared=batch._shared, **changes):
        copy = shared(obj, **changes)
        copies.append((obj, copy, dict(vars(copy).get("_batch_cache", {}))))
        return copy

    monkeypatch.setattr(batch, "_shared", recorded)
    for path in reports.LEAF_PATHS:
        leaf_values(plan, path, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL)
    kinds = {type(obj) for obj, _, _ in copies}
    assert {Plan, MeasureStep} <= kinds
    for obj, copy, cache in copies:
        if isinstance(obj, Plan):
            assert (copy.label_count, copy.height) == (obj.label_count, obj.height)
        elif isinstance(obj, MeasureStep):
            assert vars(obj)["_batch_cache"] and cache == {}
            assert vars(copy).get("_batch_cache") is not vars(obj)["_batch_cache"]


def test_a_root_holding_a_non_node_is_refused_when_built():
    with pytest.raises(TypeError, match="^small: None is not a plan node"):
        small_plan(PrepareState(LabeledState({S_LABEL: 1.0}), None))


def claims_grid_and_symmetric_plans():
    for n in range(1, 9):
        for k in range(n + 1):
            for l in range(k, n + 1):
                yield build_exact_kl(n, k, l)
    for bits in (b for n in range(5) for b in itertools.product("01", repeat=n + 1)):
        for strategy in (OUTWARD, TWO_SIDED):
            yield build_sym(SymSpec("".join(bits), None, strategy))


def test_calls_hand_their_callee_no_label_it_writes_outside_its_contract():
    # A label outside the callee's contract that the callee's own steps also
    # write would be read there as the callee's own amplitude.
    calls, aliased = 0, set()
    for plan in claims_grid_and_symmetric_plans():
        verify_exactness(plan)
        for sub in _collect_plans(plan):
            for node in plan_nodes(sub):
                if not isinstance(node, MeasureStep):
                    continue
                for _, branches, _ in vars(node).get("_batch_cache", {}).values():
                    for child, _, labels, _ in branches:
                        if isinstance(child, Call) and child.plan.contract is not None:
                            calls += 1
                            stray = set(labels) - set(child.plan.contract.labels)
                            aliased.update((repr(child.plan), label)
                                           for label in stray & written_labels(child.plan))
    assert calls
    assert not aliased, sorted(aliased, key=repr)[:10]


# ---------------------------------------------------------------------------
# Calls into contract-free plans: wrapper plans and wire runs
# ---------------------------------------------------------------------------


def read_plan(m, k, then=None, *, gap=False, other=None):
    """A contract-free plan on `m` variables that reads x_k with one query and
    outputs it, or continues to then[x_k]. With `gap`, the label that x_k = 1
    leaves gets the outcome `other`, which names no child, so the plan gaps
    on those inputs."""
    r = math.sqrt(0.5)
    hadamard = isometry_from_columns("hadamard", {S_LABEL: {S_LABEL: r, idx(k): r},
                                                  idx(k): {S_LABEL: r, idx(k): -r}})
    read = s_only_measure(other) if gap else s_i_measure(*(then or (Output(0), Output(1))), k)
    truth = (lambda bits: bits[k - 1]) if then is None else \
        (lambda bits: then[bits[k - 1]].plan.truth(bits))
    return Plan(family="read", n=m, params=(("k", k),), claimed_queries=1 + (then is not None),
                truth=truth,
                root=PrepareState(LabeledState({S_LABEL: r, idx(k): r}),
                                  QueryStep(extract_trailing_index,
                                            GadgetStep(((identity_binding(hadamard), False),), read))))


def wrapper(sub, wires, n):
    """A contract-free plan on `n` variables whose root calls `sub`."""
    def truth(bits):
        return sub.truth(tuple(bits[i - 1] if kind == "var" else i for kind, i in wires))
    return Plan(family="wrap", n=n, params=(), root=Call(sub, wires),
                claimed_queries=sub.claimed_queries, truth=truth)


def collapsible(plan):
    return plan.contract is None and isinstance(plan.root, Call) and plan.root.plan.contract is None


def plans_run(plan, method="run"):
    """The plans `_Walker.run` walks (or, with `method` "memo", whose memos
    `_Walker.memo` reads), each with the inputs of that call, in order,
    while `plan` is verified."""
    seen = []
    original = getattr(_Walker, method)

    def run(self, sub, inputs):
        seen.append((sub, inputs))
        return original(self, sub, inputs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Walker, method, run)
        verify_exactness(plan)
    return seen


def reader():
    """A contract-free plan on four variables that outputs x1 if x2 else x3."""
    return read_plan(4, 2, then=(Call(read_plan(4, 3), identity_wires(4)),
                                 Call(read_plan(4, 1), identity_wires(4))))


def wrapper_chain(kind):
    inner = reader()
    if kind == "identity":
        return wrapper(inner, identity_wires(4), 4), inner
    if kind == "permuted":
        # The inner wrapper pads three variables out to its wider callee.
        middle = wrapper(inner, (var(2), const(1), var(3), var(1)), 3)
        return wrapper(middle, (var(4), var(1), var(3)), 4), inner
    # A callee with no variables, which calls its wider callee on constants.
    middle = wrapper(inner, (const(1), const(0), const(1), const(1)), 0)
    return wrapper(middle, (), 2), inner


@pytest.mark.parametrize("kind", ["identity", "permuted", "empty"])
def test_wrapper_chains_match(kind):
    plan, inner = wrapper_chain(kind)
    assert_batch_matches_executor(plan)
    assert verify_exactness(plan).exact
    # Only the top-level plan and the innermost callee, with its own calls,
    # run: the wrappers share the innermost callee's memo.
    run = [sub for sub, _ in plans_run(plan)]
    assert inner in run
    assert all(sub is plan or not collapsible(sub) for sub in run)


def test_gap_through_wrappers_at_top_level():
    # The gapping plan's measurement finds all the weight on |1> where
    # x1 = 1, after one query: those inputs end there as output -1.
    for other in GAP_OUTCOMES:
        gapping = read_plan(2, 1, gap=True, other=other)
        plan = wrapper(wrapper(gapping, (var(2), var(1)), 2), (var(2), var(1)), 2)
        assert_batch_matches_executor(plan)
        entered, sums = summarize(plan, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL)
        assert sums.total[0].tolist() == [0.0, 0.0, pytest.approx(1.0), pytest.approx(1.0)]
        assert sums.maxq.tolist() == [1.0] * 4
        assert Executor().run_plan(plan, (1, 0)).mass == ((-1, pytest.approx(1.0)),)


def test_gap_through_wrappers_under_a_direct_walk():
    # The call's state is not proportional to the callee's contract |S>, so
    # the callee is walked directly. Its branch |S> (weight 0.36) calls the
    # wrappers of a plan that gaps where x2 = 1; on those inputs that branch
    # reports output -1, and branch |1> still outputs 1.
    for other in GAP_OUTCOMES:
        gapping = read_plan(2, 1, gap=True, other=other)
        wrapped = wrapper(wrapper(gapping, (var(2), var(1)), 2), identity_wires(2), 2)
        callee = small_plan(s_i_measure(Call(wrapped, identity_wires(2)), Output(1)),
                            n=2, contract=Contract(2, (S_LABEL,), (1.0,), ((0.0, 0.0),)))
        state = LabeledState({S_LABEL: 0.6, idx(1): 0.8})
        plan = small_plan(PrepareState(state, Call(callee, identity_wires(2))), n=2)
        assert_batch_matches_executor(plan)
        entered, sums = summarize(plan, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL)
        assert sums.total[0].tolist() == [0.0, pytest.approx(0.36), 0.0, pytest.approx(0.36)]
        assert sums.total[2].tolist() == [pytest.approx(1.0), pytest.approx(0.64)] * 2


@pytest.mark.parametrize("constants", [(1.0, 0.0), (0.6, 0.8)], ids=["matched", "mismatched"])
def test_wrapper_into_a_contract_does_not_collapse(constants):
    # The wrapper enters its callee from |0>, which the callee's contract
    # matches or not: the call is a contract check, so the wrapper runs.
    callee = small_plan(MeasureStep({ZERO_LABEL: ("z",), S_LABEL: ("s",)}.get,
                                    ((("z",), None, Output(1)), (("s",), None, Output(0)))),
                        n=2, contract=Contract(2, (ZERO_LABEL, S_LABEL), constants,
                                               ((0.0, 0.0), (0.0, 0.0))))
    checked = wrapper(callee, (var(2), var(1)), 2)
    plan = wrapper(checked, identity_wires(2), 2)
    assert_batch_matches_executor(plan)
    assert checked in [sub for sub, _ in plans_run(plan)]


@pytest.mark.parametrize("make_plan", [
    lambda: build_sym(SymSpec("0011100", strategy=TWO_SIDED)),
    lambda: build_sym(SymSpec("0011100", strategy=OUTWARD)),
    lambda: build_exact_kl(8, 2, 6),
    lambda: build_general_unbalance(8, 2),
], ids=["sym-two-sided", "sym-outward", "exactkl826", "general82"])
def test_builders_run_no_wrapper_below_the_top(make_plan):
    plan = make_plan()
    run = plans_run(plan)
    assert all(sub is plan or not collapsible(sub) for sub, _ in run)
    # The memos fill once some subroutine waits on a block width of reads,
    # or after the last top-level block. A fill runs each subroutine on
    # every input the calls since the last fill miss, a block width at a
    # time, and no input runs twice.
    blocks = []
    for sub, inputs in run:
        if sub is plan:
            blocks.append({})
        else:
            blocks[-1].setdefault(id(sub), (sub, []))[1].append(inputs)
    for block in blocks:
        for sub, runs in block.values():
            missing = np.concatenate(runs)
            assert len(np.unique(missing)) == len(missing), sub.family
            assert len(runs) <= -(-len(missing) // _columns(sub.label_count)), sub.family
    if plan.family == "sym" and plan.params_dict()["strategy"] == TWO_SIDED:
        # 153 runs over 73 plans when every wrapper filled its own memo, and
        # 69 when every call that reached new inputs filled the memo of its
        # callee: 24 plans, each run once.
        assert len(run) == 24


def test_a_chain_runs_each_callee_once_per_fill_of_full_blocks():
    # equality(12) walks 4096 inputs in three top-level blocks, and its
    # chain of eleven callees fills once, after the last (twelve runs, the
    # first callee's in two blocks). A fill after each block would run the
    # chain three times: 27 runs in all.
    plan = build_equality(12)
    assert 1 << plan.n > 2 * _columns(plan.label_count)
    assert len(plans_run(plan)) == 15


def test_a_call_group_reads_its_memo_once():
    # exact(10,5) measures 45 pairs, each calling one plan on 8 bits. Reads
    # of 2 members at a time, as a 744-column block allows a callee with
    # a contract, would make 38.
    assert len(plans_run(build_exact_k(10, 5), "memo")) == 7


# unb(10,2)'s subroutines wait on a block width of reads after each of its
# three top-level blocks.
@pytest.mark.parametrize("make_plan", [*BENCHMARK_PLANS.values(), lambda: build_unb(10, 2)],
                         ids=[*BENCHMARK_PLANS, "unb102"])
def test_no_top_level_block_starts_while_a_plan_waits_on_a_block_width(make_plan, monkeypatch):
    plan = make_plan()
    starts = []
    run = _Walker.run

    def checked(self, sub, inputs):
        if sub is plan:
            starts.append(len(inputs))
            for waiting, reads in self.demand.values():
                assert sum(map(len, reads)) < _columns(waiting.label_count), waiting.family
        return run(self, sub, inputs)

    monkeypatch.setattr(_Walker, "run", checked)
    verify_exactness(plan)
    assert sum(starts) == 1 << plan.n


def test_a_memo_read_of_no_inputs_is_a_hit():
    walker = _Walker(DEFAULT_TOL, DEFAULT_BRANCH_TOL)
    sums = walker.memo(build_unb(5, 1), np.zeros(0, dtype=np.int64))
    assert isinstance(sums, _Sums) and sums.data.shape == (5, 0)
    assert walker.demand == {}


@pytest.mark.parametrize("make_plan", [
    lambda: build_sym(SymSpec("0011100")),
    lambda: build_equality(12),
    lambda: build_exact_kl(8, 2, 6),
    lambda: build_unb(8, 2),
    lambda: mutated_unbr(7, 1, "c1", 1e-3),
], ids=["sym0011100", "equality12", "exactkl826", "unb82", "unbr71-c1"])
def test_summaries_do_not_depend_on_which_inputs_share_a_block(make_plan, monkeypatch):
    # A memo fills on whichever inputs a top-level block's calls miss, so an
    # input's summary must not depend on the inputs beside it. Smaller blocks
    # group every input with others. BLAS rounds a product by the shape of
    # its block (one column is a matrix-vector product), so masses may differ
    # by rounding; all else is equal.
    plan = make_plan()
    entered, sums = summarize(plan, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL)
    monkeypatch.setattr(batch, "BLOCK_BYTES", 1 << 12)
    assert _columns(plan.label_count) < len(entered)
    small_entered, small = summarize(plan, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL)
    assert small_entered.tolist() == entered.tolist()
    assert small.maxq.tolist() == sums.maxq.tolist()
    assert np.abs(small.data - sums.data).max() <= 1e-14


def test_missing_inputs_take_memory_in_the_inputs_read():
    # A padded plan's callees are read at few of their 2^n inputs. A memo
    # of a small plan finds the same inputs in a table by input.
    small = batch._Memo(4)
    small.add(np.array([5]), _Sums.vacuous(1))
    assert small.missing(np.array([9, 5, 2, 9])).tolist() == [2, 9]
    memo = batch._Memo(20)
    memo.add(np.array([5]), _Sums.vacuous(1))
    memo.missing(np.array([5]))  # numpy imports what it needs at its first call
    tracemalloc.start()
    try:
        missing = memo.missing(np.array([9, 5, 2]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert missing.tolist() == [2, 9]
    assert peak < 64 << 10


def test_branches_fold_in_branch_order_behind_a_pending_read():
    # The first branch's memo read waits for its fill; the two outputs after
    # it fold after it, in branch order, as floats add in that order.
    amps = (math.sqrt(0.1), math.sqrt(0.1), math.sqrt(0.8))
    measure = MeasureStep({S_LABEL: ("s",), idx(1): ("i",), idx(2): ("j",)}.get, (
        (("s",), None, Call(small_plan(Output(1)), (var(1),))),
        (("i",), None, Output(1)),
        (("j",), None, Output(1))))
    state = LabeledState(dict(zip((S_LABEL, idx(1), idx(2)), amps)))
    entered, sums = summarize(small_plan(PrepareState(state, measure)), tol=DEFAULT_TOL,
                              branch_tol=DEFAULT_BRANCH_TOL)
    first, second, third = (a * a for a in amps)
    assert ((0.0 + second) + third) + first != ((0.0 + first) + second) + third
    assert sums.total[2].tolist() == [((0.0 + first) + second) + third] * 2


def gap_then_siblings(other):
    """A two-variable measurement of |S>, |1> and |2>: the first branch calls
    a contract-free plan that gaps where x1 = 1, the second calls one that
    reads x2, and the third outputs 1."""
    return MeasureStep({S_LABEL: ("s",), idx(1): ("i",), idx(2): ("j",)}.get, (
        (("s",), None, Call(read_plan(2, 1, gap=True, other=other), identity_wires(2))),
        (("i",), None, Call(read_plan(2, 2), identity_wires(2))),
        (("j",), None, Output(1))))


GAP_STATE = LabeledState({S_LABEL: 0.6, idx(1): 0.48, idx(2): 0.64})


def test_gap_in_a_memo_read_before_its_siblings():
    # The gapping call's memo fills after its siblings have walked the
    # columns it gaps. Where x1 = 1 its branch |S> (weight 0.36) ends as
    # output -1, and the sibling branches keep their outputs, at top level
    # and under a direct walk alike.
    for other in GAP_OUTCOMES:
        callee = small_plan(gap_then_siblings(other), n=2,
                            contract=Contract(2, (S_LABEL,), (1.0,), ((0.0, 0.0),)))
        for plan in (small_plan(PrepareState(GAP_STATE, gap_then_siblings(other)), n=2),
                     small_plan(PrepareState(GAP_STATE, Call(callee, identity_wires(2))), n=2)):
            assert_batch_matches_executor(plan)
            entered, sums = summarize(plan, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL)
            assert sums.total.tolist() == [
                [0.0, 0.0, pytest.approx(0.36), pytest.approx(0.36)],
                [pytest.approx(0.2304), 0.0, pytest.approx(0.2304), 0.0],
                [pytest.approx(0.7696), pytest.approx(1.0), pytest.approx(0.4096), pytest.approx(0.64)]]


@st.composite
def wirings(draw):
    """A parent size n, then calls into one plan of m variables, each wired
    from distinct parent variables in any order and constants, and parent
    inputs."""
    n = draw(st.integers(0, 14))
    m = draw(st.integers(0, 16))
    members = []
    for _ in range(draw(st.integers(1, 4))):
        count = draw(st.integers(0, min(n, m)))
        parents = draw(st.permutations(range(1, n + 1)))[:count]
        slots = draw(st.permutations(range(m)))[:count]
        wires = [const(draw(st.integers(0, 1))) for _ in range(m)]
        for i, slot in zip(parents, slots):
            wires[slot] = var(i)
        members.append(tuple(wires))
    inputs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    return n, m, members, np.array(inputs, dtype=np.int64)


def reference_bits(index, n):
    return tuple(int(b) for b in format(index, f"0{n}b")) if n else ()


def wired_input(wires, bits):
    """A callee input by the per-bit definition of `Call.wires`."""
    m = len(wires)
    return sum((bits[i - 1] if kind == "var" else i) << (m - 1 - k) for k, (kind, i) in enumerate(wires))


@settings(max_examples=150, deadline=None)
@given(wirings())
# Runs that need a left shift: padding at the end, and a last parent
# variable moved to the front.
@example((3, 4, [(var(1), var(2), var(3), const(1))], np.array([0, 5, 7])))
@example((3, 3, [(var(3), var(1), var(2)), (var(2), const(0), var(1))], np.array([1, 6])))
def test_wire_runs_equal_per_bit_wires(drawn):
    n, m, members, inputs = drawn
    callee = Plan(family="any", n=m, params=(), root=Output(0), claimed_queries=0, truth=lambda bits: 0)
    calls = [Call(callee, wires) for wires in members]
    expected = [[wired_input(wires, reference_bits(x, n)) for x in inputs.tolist()] for wires in members]
    for call, want in zip(calls, expected):
        assert _sub_inputs(call, inputs, n).tolist() == want
    runs = _runs(calls, n)
    assert _route(inputs, runs).tolist() == expected
    # No more runs than callee bits, so no more ops than a loop over them.
    assert len(runs[1]) <= m


def complex_gadget_plan():
    phase = isometry_from_columns("phase", {S_LABEL: {S_LABEL: 1j}})
    return small_plan(PrepareState(LabeledState({S_LABEL: 1.0}),
                                   GadgetStep(((identity_binding(phase), False),), s_only_measure())))


def complex_contract_plan():
    return small_plan(s_only_measure(), contract=Contract(1, (S_LABEL,), (1j,), ((0.0,),)))


def complex_prepare_plan():
    return small_plan(PrepareState(LabeledState({S_LABEL: 1j}), s_only_measure()))


@pytest.mark.parametrize("make_plan", [complex_gadget_plan, complex_contract_plan, complex_prepare_plan],
                         ids=["gadget", "contract", "prepare"])
def test_complex_amplitudes_are_refused(make_plan):
    # The batched walker is real; the complex reference runs the plan, and
    # it is exact there.
    assert reference_report(make_plan()) == (True, 0, [])
    with pytest.raises(ValueError, match="complex amplitude"):
        verify_exactness(make_plan())
    with pytest.raises(ValueError, match="complex amplitude"):
        exit_amplitudes(make_plan())


def cached_arrays(plan):
    """Every array compiled on the `_batch_cache` of the plan, of its
    subroutines and of their nodes (a gadget step's applications) and
    contracts, by the kind of node or object it is kept on."""
    found: dict[str, list] = {}

    def collect(kind, value):
        if isinstance(value, np.ndarray):
            found.setdefault(kind, []).append(value)
        elif isinstance(value, _Bindings):
            collect(kind, (value.keep, value.groups))
        elif isinstance(value, (tuple, list)):
            for item in value:
                collect(kind, item)
        elif isinstance(value, dict):
            for item in value.values():
                collect(kind, item)

    for sub in _collect_plans(plan):
        stack = [sub, sub.root] + ([sub.contract] if sub.contract else [])
        while stack:
            obj = stack.pop()
            owner = obj.applications if isinstance(obj, GadgetStep) else obj
            collect(type(obj).__name__, vars(owner).get("_batch_cache", {}))
            if isinstance(obj, MeasureStep):
                stack += [child for _, _, child in obj.children]
            elif isinstance(obj, (GadgetStep, PrepareState, QueryStep)):
                stack.append(obj.child)
    return found


def test_compiled_amplitudes_are_float64():
    found: dict[str, list] = {}
    for plan in (build_unb(6, 2), build_equality(4), build_appendix_a()):
        assert verify_exactness(plan).exact
        for kind, arrays in cached_arrays(plan).items():
            found.setdefault(kind, []).extend(arrays)
    # Gadget group matrices, prepared vectors and contract matrices, beside
    # the integer index maps.
    assert {"GadgetStep", "PrepareState", "Contract"} <= set(found)
    for kind, arrays in found.items():
        for array in arrays:
            assert array.dtype == np.float64 or array.dtype.kind in "biu", (kind, array.dtype)
    for kind in ("GadgetStep", "PrepareState", "Contract"):
        assert any(array.dtype == np.float64 for array in found[kind]), kind


# ---------------------------------------------------------------------------
# Gadget maps kept on the applications that builds share
# ---------------------------------------------------------------------------


def appendix_a_override(name, delta):
    return build_appendix_a(angle_overrides={name: appendix_a_angles()[name] + delta})


# Override builds of one shape: the first, then others with other knobs and
# values. No value is 0: a split by angle 0 writes no amplitude on its L arm,
# so the steps after it see other labels.
OVERRIDE_SERIES = {
    "unbr71": [functools.partial(mutated_unbr, 7, 1, name, delta)
               for name, delta in (("c1", 1e-3), ("c2", -2e-3), ("c8", 5e-3), ("c9", -7e-3), ("gamma", 3e-3))],
    "appendixA": [functools.partial(appendix_a_override, name, delta)
                  for name, delta in (("split1", 1e-2), ("merge1", -3e-3), ("split2", 2e-2), ("merge2", 0.1))]
                 + [functools.partial(build_appendix_a, gamma_override=0.02)],
    "unb71": [functools.partial(build_unb, 7, 1, gamma_override=gamma) for gamma in (0.01, 0.2, 1e-9, 0.45)],
}


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty build table, so that every step a test uses is made, and
    compiled, within it."""
    monkeypatch.setattr(algorithms, "_PLANS", {})


def gadget_applications(plan):
    """The applications of every gadget step of `plan` and of the plans it
    calls, each object once."""
    found = {}
    for sub in _collect_plans(plan):
        for node in plan_nodes(sub):
            if isinstance(node, GadgetStep):
                assert "_batch_cache" not in vars(node)
                found[id(node.applications)] = node.applications
    return list(found.values())


def compiled_keys(apps):
    return set(vars(apps).get("_batch_cache", {}))


def counted_compiles(monkeypatch):
    """Lists of the applications each compile is for, and of those laid out
    from scratch, filled while the test runs."""
    compiled, laid_out = [], []

    class Counted(_Bindings):
        __slots__ = ()

        def __init__(self, apps, rows):
            laid_out.append(apps)
            super().__init__(apps, rows)

    def compile_counted(apps, rows, compile=batch._compile):
        compiled.append(apps)
        return compile(apps, rows)

    monkeypatch.setattr(batch, "_Bindings", Counted)
    monkeypatch.setattr(batch, "_compile", compile_counted)
    return compiled, laid_out


def own_applications(plan, earlier):
    return [apps for apps in gadget_applications(plan) if all(apps is not old for old in earlier)]


@pytest.mark.parametrize("name", OVERRIDE_SERIES)
def test_override_builds_compile_only_the_steps_they_made(name, fresh_tables, monkeypatch):
    compiled, laid_out = counted_compiles(monkeypatch)
    make_first, *rest = OVERRIDE_SERIES[name]
    first = make_first()
    verify_exactness(first)
    assert laid_out
    # The first build's applications include the U stages it shares with
    # the default build, and its measurement is the default build's.
    earlier = gadget_applications(first)
    keys = [compiled_keys(apps) for apps in earlier]
    measurement = final_measurement(first)
    measured = set(vars(measurement)["_batch_cache"])
    for make in rest:
        plan = make()
        assert final_measurement(plan) is measurement
        own = own_applications(plan, earlier)
        compiled.clear()
        laid_out.clear()
        verify_exactness(plan)
        # It compiles only applications it made, each on a layout that an
        # earlier build of its shape laid out.
        assert compiled
        assert all(any(apps is mine for mine in own) for apps in compiled)
        assert not laid_out
        if name == "unb71":
            # Its uniform start's U_n is the default build's: only the split
            # pass is its own.
            split = plan.root.child.child.child.applications
            assert {id(apps) for apps in compiled} == {id(split)}
    assert [compiled_keys(apps) for apps in earlier] == keys
    assert set(vars(measurement)["_batch_cache"]) == measured


@pytest.mark.parametrize("name", OVERRIDE_SERIES)
def test_a_further_override_build_binds_nothing_and_checks_only_its_rotation_passes(name, monkeypatch):
    make_first, make_next = OVERRIDE_SERIES[name][:2]
    first = make_first()
    binds, checked = [], []
    monkeypatch.setattr(algorithms, "bind", lambda *args: binds.append(args) or state_core.bind(*args))
    monkeypatch.setattr(plans, "_owners", lambda apps: checked.append(apps) or state_core._owners(apps))
    plan = make_next()
    assert not binds
    own = own_applications(plan, gadget_applications(first))
    assert own and all(apps.layouts is not None for apps in own)
    assert sorted(map(id, checked)) == sorted(map(id, own))


def test_a_rotation_gadget_of_another_space_is_refused(monkeypatch):
    # The pair maps were validated against the rotation space once; a pass
    # checks that its gadget has that space before it wraps them.
    build_unb(7, 1, gamma_override=0.3)
    monkeypatch.setattr(algorithms, "r_rotation", lambda angle: q_rotation(1, 2))
    with pytest.raises(BindingConflict, match="is not the rotation space"):
        build_unb(7, 1, gamma_override=0.2)


def assert_compiled_as_fresh_maps(apps, rows, kept):
    fresh = _Bindings(apps, rows)
    assert kept.rows == fresh.rows
    assert np.array_equal(kept.keep, fresh.keep)
    assert len(kept.groups) == len(fresh.groups)
    for (src, matrix, start, stop), (fresh_src, fresh_matrix, fresh_start, fresh_stop) in zip(
            kept.groups, fresh.groups):
        assert np.array_equal(src, fresh_src)
        assert (matrix.dtype, matrix.shape) == (fresh_matrix.dtype, fresh_matrix.shape)
        assert matrix.tobytes() == fresh_matrix.tobytes()
        assert (start, stop) == (fresh_start, fresh_stop)


def compiled_maps(plan):
    """(applications, rows, maps) for every gadget map compiled on `plan`."""
    return [(apps, rows, maps) for apps in gadget_applications(plan)
            for rows, maps in vars(apps).get("_batch_cache", {}).items()]


def there_and_back_plan():
    """A rotation, then its inverse on the same row tuple: two steps whose
    applications hold one binding, in two directions."""
    rotation = identity_binding(q_rotation(1, 2))
    return small_plan(PrepareState(LabeledState({anc(0): 0.6, anc(1): 0.8}),
                      GadgetStep(((rotation, False),),
                       GadgetStep(((rotation, True),),
                        MeasureStep(lambda label: ("a",), ((("a",), None, Output(1)),))))))


def test_maps_on_applications_compile_as_fresh_maps_do():
    built = [build_unb(6, 2), build_appendix_a(), build_equality(4),
             *(mutated_unbr(7, 1, name, delta)
               for name, delta in (("c1", 1e-3), ("gamma", 2e-3), ("c9", -4e-3))),
             appendix_a_override("merge1", 1e-2), build_unb(7, 1, gamma_override=0.3), there_and_back_plan()]
    compiled = []
    for plan in built:
        verify_exactness(plan)
        compiled += compiled_maps(plan)
    assert compiled
    for apps, rows, kept in compiled:
        assert_compiled_as_fresh_maps(apps, rows, kept)
    # The later unbr(7,1) mutants' rotation passes compile on the layouts
    # the first one laid out, so the passes hold fewer layouts than maps.
    for plan in built[4:6]:
        for apps in rotation_passes(plan):
            for rows, kept in vars(apps)["_batch_cache"].items():
                assert kept.keep is apps.layouts[rows].keep
    passes = [kept for apps, _, kept in compiled if apps.layouts is not None]
    assert len({id(kept.keep) for kept in passes}) < len(passes)
    there = built[-1].root.child
    back = there.child
    assert there.applications is not back.applications
    (rows, forward), = vars(there.applications)["_batch_cache"].items()
    assert vars(back.applications)["_batch_cache"][rows] is not forward


def rotated_unbr(split, merge):
    """unbr(7,1) whose split rotates by the angle atan2(sin split, cos split)
    and whose merge by that of `merge`."""
    base = solve_step_constants(7, 1, chain_gamma_at(1, 5))
    return build_unbr(7, 1, constants=replace(base, c1=math.sin(split), c2=math.cos(split),
                                              c8=math.sin(merge), c9=math.cos(merge)), validate=False)


def rotation_passes(plan):
    """The split and merge applications of a build_unbr step."""
    return plan.root.applications, plan.root.child.child.child.child.applications


EDGE_ANGLES = (0.0, math.pi / 2, -math.pi / 2, math.pi)
angles = st.one_of(st.sampled_from(EDGE_ANGLES), st.floats(-math.pi, math.pi))


@settings(max_examples=10, deadline=None)
@given(angles, angles)
@example(0.0, math.pi)
@example(math.pi / 2, -math.pi / 2)
@example(math.pi, 0.0)
@example(-math.pi / 2, math.pi / 2)
def test_rotation_passes_lay_out_afresh_where_live_rows_differ(split, merge):
    # Lay out the passes of the shape on ordinary angles first.
    verify_exactness(mutated_unbr(7, 1, "c1", 1e-3))
    plan = rotated_unbr(split, merge)
    before = [dict(apps.layouts) for apps in rotation_passes(plan)]
    report = verify_exactness(plan).as_dict(verbose=True)
    for apps, layouts in zip(rotation_passes(plan), before):
        for rows, maps in vars(apps)["_batch_cache"].items():
            like = layouts.get(rows)
            same = like is not None and all(np.array_equal(part[2], like_part[2])
                                            for part, like_part in zip(maps.parts, like.parts))
            assert (like is not None and maps.keep is like.keep) == same, rows
            assert_compiled_as_fresh_maps(apps, rows, maps)
    for apps in rotation_passes(plan):
        apps.layouts.clear()
    assert verify_exactness(rotated_unbr(split, merge)).as_dict(verbose=True) == report


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_a_structural_zero_lays_out_afresh(gamma, monkeypatch):
    # A split by angle 0 (gamma 0) writes no amplitude on its L arm, and one
    # by pi/2 (gamma 1) none on its R arm, so the split's live rows are not
    # those of the layout that other gammas share.
    verify_exactness(build_unb(7, 1, gamma_override=0.3))
    _, laid_out = counted_compiles(monkeypatch)
    plan = build_unb(7, 1, gamma_override=gamma)
    verify_exactness(plan)
    split = plan.root.child.child.child.applications
    assert any(apps is split for apps in laid_out)


def has_number(obj) -> bool:
    """Whether `obj`, a key, holds a float, a complex or an array anywhere."""
    if isinstance(obj, (float, complex, np.ndarray, np.generic)):
        return True
    if isinstance(obj, (tuple, frozenset)):
        return any(has_number(item) for item in obj)
    return False


def test_no_table_grows_with_knob_values(fresh_tables):
    shapes = {
        "unbr71": lambda k: mutated_unbr(7, 1, STEP_FIELDS[k % 5], 1e-4 * (k + 1)),
        "appendixA": lambda k: (build_appendix_a(gamma_override=0.01 + 1e-3 * k) if k % 2 else
                                appendix_a_override(sorted(appendix_a_angles())[k % 4], 1e-3 * (k + 1))),
        "unb71": lambda k: build_unb(7, 1, gamma_override=0.01 * (k + 1)),
    }

    def layouts():
        return [rows for key, built in algorithms._PLANS.items() if key[0] == "_rotation_pairs"
                for apps in built[1:] for rows in apps.layouts]

    for name, make in shapes.items():
        verify_exactness(make(0))
        size, laid_out = len(algorithms._PLANS), len(layouts())
        for k in range(1, 20):
            verify_exactness(make(k))
            assert (len(algorithms._PLANS), len(layouts())) == (size, laid_out), (name, k)
    assert not any(has_number(key) for key in algorithms._PLANS)
    assert layouts() and not any(has_number(rows) for rows in layouts())


def test_a_dropped_mutant_is_freed_with_its_compiled_maps():
    mutant = mutated_unbr(7, 1, "c1", 1e-3)
    assert not verify_exactness(mutant).exact
    rotation = weakref.ref(mutant.root)
    assert compiled_keys(mutant.root.applications)
    plan = weakref.ref(mutant)
    del mutant
    gc.collect()
    assert plan() is None and rotation() is None


# ---------------------------------------------------------------------------
# Leaf values
# ---------------------------------------------------------------------------


def reachable_path(plan, bits, rng):
    """An outcome path that carries weight on the input `bits`: from the
    entry state down to an Output, taking a random branch with weight at
    each measurement and entering every Call."""
    oracle = OracleSpec.from_bits(bits)
    state = _entry_state(plan, oracle, DEFAULT_BRANCH_TOL)
    node, path = plan.root, ()
    while state is not None and not isinstance(node, Output):
        weight = state.squared_norm()
        if isinstance(node, Call):
            bits, oracle, state = _enter(node, state, weight, bits)
            node = node.plan.root
            continue
        try:
            branches = [branch for branch in _step(node, state, weight, oracle)
                        if branch[2].squared_norm() > DEFAULT_BRANCH_TOL]
        except PartitionGap:
            break
        outcome, node, state, _ = rng.choice(branches)
        if outcome is not None:
            path += (outcome,)
    return path


def assert_leaf_values_match_reference(plan, rng, count):
    """`leaf_values` within 1e-12 of the reference on every input, on the
    paths to `count` random leaves of random inputs and on their prefixes."""
    paths = set()
    for _ in range(count):
        path = reachable_path(plan, tuple(rng.randrange(2) for _ in range(plan.n)), rng)
        paths.update((path, path[:-1], path[:1]))
    for path in sorted(paths, key=repr):
        expected = reference.leaf_values(plan, path)
        values = leaf_values(plan, path, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL)
        assert np.abs(values - expected).max() <= 1e-12, path


LEAF_PLANS = {**VALID_PLANS, "appendixA": build_appendix_a}


@pytest.mark.parametrize("name", LEAF_PLANS)
def test_leaf_values_match_reference(name):
    assert_leaf_values_match_reference(LEAF_PLANS[name](), random.Random(name), 3)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(((5, 1), (6, 2))), st.sampled_from(STEP_FIELDS), deltas,
       st.randoms(use_true_random=False))
def test_mutated_step_constants_leaf_values_match(nd, name, delta, rng):
    plan = mutated_unbr(*nd, name, abs(delta) if name == "gamma" else delta)
    assert_leaf_values_match_reference(plan, rng, 2)


@settings(max_examples=4, deadline=None)
@given(st.floats(0.0, 0.5), st.randoms(use_true_random=False))
def test_gamma_override_leaf_values_match(gamma, rng):
    assert_leaf_values_match_reference(build_unb(5, 1, gamma_override=gamma), rng, 2)


def leaf_values_both(plan, path):
    """The batched and the reference leaf values, as lists."""
    return (leaf_values(plan, path, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL).tolist(),
            reference.leaf_values(plan, path))


def test_leaf_walk_top_level_gap_reads_zero_past_it():
    # A path that ends at the gapping measurement reads its weight, as the
    # run tree's gap leaf holds it; a path past it reads 0.
    state = LabeledState({S_LABEL: 0.6, idx(1): 0.8})
    for other in GAP_OUTCOMES:
        plan = small_plan(PrepareState(state, s_only_measure(other)))
        assert assert_leaf_values_close(plan, ()) == [pytest.approx(1.0)] * 2
        assert assert_leaf_values_close(plan, (None,)) == [pytest.approx(1.0)] * 2
        assert leaf_values_both(plan, (("s",),)) == ([0.0, 0.0], [0.0, 0.0])


def test_leaf_walk_gap_in_a_mismatched_call():
    # The call's state is not proportional to the callee's contract |S>, so
    # the callee runs on it. Its branch |1> gaps and ends there, which leaves
    # its branch |S> as it is: a path to |S> reads that branch's weight, a
    # path that ends at the gapping measurement reads the gapping branch's,
    # and a path past the gap reads 0.
    for other in GAP_OUTCOMES:
        callee = small_plan(s_i_measure(Output(1), s_only_measure(other)),
                            contract=Contract(1, (S_LABEL,), (1.0,), ((0.0,),)))
        state = LabeledState({S_LABEL: 0.6, idx(1): 0.8})
        plan = small_plan(PrepareState(state, Call(callee, (var(1),))))
        assert leaf_values_both(plan, (None, None)) == ([1.0, 1.0], [1.0, 1.0])
        for path in ((("s",),), (None, None, ("s",))):
            assert assert_leaf_values_close(plan, path) == [pytest.approx(0.36)] * 2
        assert assert_leaf_values_close(plan, (("i",),)) == [pytest.approx(0.64)] * 2
        assert leaf_values_both(plan, (("i",), ("s",))) == ([0.0, 0.0], [0.0, 0.0])


def test_leaf_walk_merged_label_that_cancels():
    # The merged |2> cancels, so outcome b reads nothing on either walk.
    plan = test_verifier.TestErrorSemantics.merge_plan((0.6, -0.6, math.sqrt(0.28)))
    assert leaf_values_both(plan, (("all",), ("a",))) == (
        [pytest.approx(0.28)] * 2, [pytest.approx(0.28)] * 2)
    assert leaf_values_both(plan, (("all",), ("b",))) == ([0.0, 0.0], [0.0, 0.0])


def assert_leaf_values_close(plan, path):
    values, expected = leaf_values_both(plan, path)
    assert np.abs(np.subtract(values, expected)).max() <= 1e-12, (path, values, expected)
    return values


def split_plan(on_s, on_i, weight_i=0.64):
    """A one-variable plan that prepares weight 1 - weight_i on |S> and
    weight_i on |1>, then measures them into on_s and on_i."""
    state = LabeledState({S_LABEL: math.sqrt(1.0 - weight_i), idx(1): math.sqrt(weight_i)})
    return small_plan(PrepareState(state, s_i_measure(on_s, on_i)))


def test_leaf_path_ending_at_a_pruned_node_reads_its_weight():
    # Branch i weighs 1e-10, below branch_tol, so the walk prunes it; the run
    # tree still holds that weight at the pruned node, but nothing past it.
    plan = split_plan(Output(1), s_i_measure(Output(0), Output(1)), weight_i=1e-10)
    values = assert_leaf_values_close(plan, (("i",),))
    assert values == [pytest.approx(1e-10, rel=1e-9)] * 2
    assert assert_leaf_values_close(plan, (("i",), ("s",))) == [0.0, 0.0]
    # At a pruned call, so does a path that ends there, but its callee's
    # root is past the pruned node.
    plan = split_plan(Output(1), Call(small_plan(Output(1)), (var(1),)), weight_i=1e-10)
    assert assert_leaf_values_close(plan, (("i",),)) == [pytest.approx(1e-10, rel=1e-9)] * 2
    assert assert_leaf_values_close(plan, (("i",), None)) == [0.0, 0.0]


def test_leaf_path_through_a_contract_matched_call(monkeypatch):
    # The call's state 0.6|S> is proportional to the callee's contract |S>,
    # so the callee's marked copy is summarized once, from |S>, and scaled.
    r = math.sqrt(0.5)
    hadamard = identity_binding(isometry_from_columns(
        "hadamard", {S_LABEL: {S_LABEL: r, idx(1): r}, idx(1): {S_LABEL: r, idx(1): -r}}))
    callee = small_plan(GadgetStep(((hadamard, False),), QueryStep(extract_trailing_index, GadgetStep(
        ((hadamard, False),), s_i_measure(Output(0), Output(1))))),
        contract=Contract(1, (S_LABEL,), (1.0,), ((0.0,),)))
    plan = split_plan(Call(callee, (var(1),)), Output(0))
    memos = []
    memo = _Walker.memo
    monkeypatch.setattr(_Walker, "memo", lambda self, sub, inputs: memos.append(sub.n) or memo(self, sub, inputs))
    assert assert_leaf_values_close(plan, (("s",), ("i",))) == [0.0, pytest.approx(0.36)]
    assert assert_leaf_values_close(plan, (("s",), ("s",))) == [pytest.approx(0.36), 0.0]
    assert memos


def test_leaf_path_naming_no_child_of_a_measurement_reads_zero():
    plan = split_plan(Output(1), s_i_measure(Output(0), Output(1)))
    assert assert_leaf_values_close(plan, (("x",),)) == [0.0, 0.0]
    assert assert_leaf_values_close(plan, (("i",), ("x",))) == [0.0, 0.0]
    unb = build_unb(5, 1)
    assert not any(assert_leaf_values_close(unb, (("x",),)))


def test_leaf_path_ending_at_a_call_does_not_enter_it():
    # The callee gaps on every input, but a path that ends at the call, or
    # at the callee's root, reads the call's weight without entering it.
    gapping = small_plan(PrepareState(LabeledState({S_LABEL: 0.6, idx(1): 0.8}), s_only_measure()))
    plan = split_plan(Call(gapping, (var(1),)), Output(0), weight_i=0.36)
    for path in ((("s",),), (("s",), None)):
        assert assert_leaf_values_close(plan, path) == [pytest.approx(0.64)] * 2
    # A path into the contract-free callee passes its gap and reads 0.
    assert leaf_values_both(plan, (("s",), ("s",))) == ([0.0, 0.0], [0.0, 0.0])


def output_one_paths(node, path=()):
    """The outcome path of every Output(1) below `node`, through Calls."""
    if isinstance(node, Output):
        return [path] if node.bit == 1 else []
    if isinstance(node, Call):
        return output_one_paths(node.plan.root, path)
    if isinstance(node, MeasureStep):
        return [p for oid, _, child in node.children for p in output_one_paths(child, path + (oid,))]
    return output_one_paths(node.child, path)


@pytest.mark.parametrize("make_plan", [lambda: build_unb(6, 2), lambda: build_unbr(5, 1)],
                         ids=["unb62", "unbr51"])
def test_output_one_leaves_add_up_to_the_acceptance(make_plan):
    plan = make_plan()
    paths = output_one_paths(plan.root)
    total = sum(leaf_values(plan, path, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL) for path in paths)
    accepted = summarize(plan, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL)[1].total[2]
    assert len(paths) > 1
    assert np.abs(total - accepted).max() <= 1e-12


def test_off_path_gap_leaves_a_leaf_value_as_it_is():
    # Branch i gaps, and branch s is a leaf of weight 0.36 all the same; the
    # marked plan cuts branch i, so nothing is compiled for it.
    off_path = s_only_measure()
    plan = split_plan(Output(1), off_path)
    assert assert_leaf_values_close(plan, (("s",),)) == [pytest.approx(0.36)] * 2
    assert "_batch_cache" not in vars(off_path)
    assert verify_exactness(plan).counterexamples == (((0,), -1, pytest.approx(0.64)),
                                                       ((1,), -1, pytest.approx(0.64)))


# ---------------------------------------------------------------------------
# Verdicts: weight-table truths against per-input truth calls
# ---------------------------------------------------------------------------


def per_input_report(plan):
    """The report under a truth without a weight set, which `verify_exactness`
    calls once per checked input."""
    return verify_exactness(plan, truth=lambda bits: plan.truth(bits)).as_dict(verbose=True)


DISPATCH_PLANS = {
    "exact105": lambda: build_exact_k(10, 5),
    "equality12": lambda: build_equality(12),
    "exactkl826": lambda: build_exact_kl(8, 2, 6),
    "sym0011100": lambda: build_sym(SymSpec("0011100")),
    "general82": lambda: build_general_unbalance(8, 2),
}


@pytest.mark.parametrize("name", DISPATCH_PLANS)
def test_weight_table_verdict_equals_per_input_truths(name):
    plan = DISPATCH_PLANS[name]()
    assert isinstance(plan.truth, WeightTruth)
    assert verify_exactness(plan).as_dict(verbose=True) == per_input_report(plan)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(((5, 1), (6, 2))), st.sampled_from(STEP_FIELDS), deltas)
def test_mutant_verdict_equals_per_input_truths(nd, name, delta):
    plan = mutated_unbr(*nd, name, abs(delta) if name == "gamma" else delta)
    report = verify_exactness(plan).as_dict(verbose=True)
    assert report == per_input_report(plan)


def test_verdict_on_a_vanishing_contract_equals_per_input_truths():
    # The contract (xhat_1 + xhat_2)|S> vanishes unless x_1 = x_2, so only
    # 000, 001, 110 and 111 are checked, and the last two have weight 2 and 3.
    contract = Contract(3, (S_LABEL,), (0.0,), ((1.0, 1.0, 0.0),))
    plan = replace(small_plan(s_only_measure(), n=3, contract=contract),
                   truth=weight_truth(3, frozenset({0, 1})))
    report = verify_exactness(plan).as_dict(verbose=True)
    assert report == per_input_report(plan)
    assert [c["input"] for c in report["counterexamples"]] == ["110", "111"]
    seen = []
    verify_exactness(plan, truth=lambda bits: seen.append(bits) or 1)
    assert seen == [(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)]


def test_custom_truth_is_called_once_per_input_in_order():
    seen = []

    def first_bit(bits):
        seen.append(bits)
        return bits[0]

    report = verify_exactness(build_equality(4), truth=first_bit)
    assert seen == list(itertools.product((0, 1), repeat=4))
    assert not report.exact and report.counterexamples


def test_truth_with_a_weights_attribute_is_still_called():
    # Only a `WeightTruth` is read from the weight table; an unrelated
    # `weights` attribute on a callable does not switch the table on.
    class Model:
        weights = frozenset({0, 4})

        def __init__(self):
            self.seen = []

        def __call__(self, bits):
            self.seen.append(bits)
            return bits[0]

    model = Model()
    report = verify_exactness(build_equality(4), truth=model)
    assert model.seen == list(itertools.product((0, 1), repeat=4))
    assert not report.exact
