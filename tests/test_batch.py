"""Differential tests: the input-batched summary and leaf walks against the
per-input LabeledState reference of tests/reference.py."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exactq import (
    OUTWARD,
    TWO_SIDED,
    Call,
    Contract,
    GadgetStep,
    LabeledState,
    MeasureStep,
    MeasurementPartition,
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
)
from exactq.batch import _Bindings, _Sums, exit_amplitudes, leaf_values, summarize
from exactq.gadgets import OracleSpec, extract_trailing_index
from exactq.plans import var
from exactq.state_core import S_LABEL, idx
from exactq.verifier import DEFAULT_BRANCH_TOL, DEFAULT_TOL, _collect_plans, _enter, _entry_state, _step
import reference
import test_verifier
from reference import Executor
from test_verifier import s_only_measure, small_plan

OUTPUTS = (-1, 0, 1)
STEP_FIELDS = ("c1", "c2", "c8", "c9", "gamma")


def reference_report(plan, *, tol=DEFAULT_TOL):
    """(exact, worst-case queries, counterexample (input, output) list) of
    the per-input executor, by the verdict rule of `verify_exactness`."""
    executor = Executor(tol=tol)
    worst, residual, wrong_mass, counterexamples = 0, 0.0, 0.0, []
    for bits in itertools.product((0, 1), repeat=plan.n):
        if executor.entry_state(plan, OracleSpec.from_bits(bits)) is None:
            continue
        summary = executor.run_plan(plan, bits)
        worst = max(worst, summary.max_queries)
        total = sum(t for _, t, _ in summary.mass)
        residual = max(residual, abs(total - 1.0), summary.residual)
        wrong = [(output, t, heaviest) for output, t, heaviest in summary.mass
                 if output != plan.truth(bits)]
        wrong_mass = max(wrong_mass, sum(t for _, t, _ in wrong))
        counterexamples += [(bits, output) for output, _, heaviest in wrong if heaviest > tol]
    exact = not counterexamples and wrong_mass <= tol and residual <= tol
    return exact, worst, counterexamples


def assert_batch_matches_executor(plan):
    entered, sums = summarize(plan, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL)
    executor = Executor()
    for index, bits in enumerate(itertools.product((0, 1), repeat=plan.n)):
        summary = executor.run_plan(plan, bits)
        masses = {output: (total, heaviest) for output, total, heaviest in summary.mass}
        for row, output in enumerate(OUTPUTS):
            total, heaviest = masses.get(output, (0.0, 0.0))
            assert sums.total[row, index] == pytest.approx(total, abs=1e-12), (bits, output)
            assert sums.heavy[row, index] == pytest.approx(heaviest, abs=1e-12), (bits, output)
        assert sums.resid[index] == pytest.approx(summary.residual, abs=1e-12), bits
        assert max(0, sums.maxq[index]) == summary.max_queries, bits
        assert (sums.maxq[index] >= 0) == bool(summary.mass), bits
        assert not sums.gap[index]
    report = verify_exactness(plan)
    exact, worst, counterexamples = reference_report(plan)
    assert report.exact == exact
    assert report.worst_case_queries == worst
    assert [(bits, output) for bits, output, _ in report.counterexamples] == counterexamples


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


def test_wrong_mass_spread_over_branches_is_not_exact():
    # Two wrong branches of 0.8 tol each: neither exceeds tol, but together
    # they carry 1.6 tol of wrong output, so the plan is not exact.
    tol, mass = 1e-6, 0.8e-6
    state = LabeledState({S_LABEL: math.sqrt(1.0 - 2 * mass), idx(1): math.sqrt(mass),
                          idx(2): math.sqrt(mass)})
    partition = MeasurementPartition(tuple(((label,), lambda l, label=label: l == label)
                                           for label in (S_LABEL, idx(1), idx(2))))
    root = MeasureStep(partition, (((S_LABEL,), None, Output(1)),
                                   ((idx(1),), None, Output(0)),
                                   ((idx(2),), None, Output(0))))
    plan = Plan(family="spread", n=1, params=(), root=PrepareState(state, root),
                claimed_queries=0, truth=lambda bits: 1)
    report = verify_exactness(plan, tol=tol)
    assert report.counterexamples == ()
    assert report.max_norm_residual <= tol
    assert not report.exact
    assert reference_report(plan, tol=tol) == (False, 0, [])


# ---------------------------------------------------------------------------
# Folding the summaries of sibling calls
# ---------------------------------------------------------------------------


def random_sums(rng, width):
    """Summaries of `width` columns with totals over many magnitudes, so that
    the order of additions shows in the last bits."""
    sums = _Sums.vacuous(width)
    sums.total[:] = rng.random((3, width)) * 10.0 ** rng.integers(-15, 1, (3, width))
    sums.maxq[:] = rng.integers(-1, 12, width)
    sums.heavy[:] = rng.random((3, width)) * sums.total
    sums.resid[:] = rng.random(width) * 1e-9
    sums.gap[:] = rng.random(width) < 0.2
    return sums


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 25), st.integers(1, 6), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_fold_equals_sequential_merges(count, width, on_some_columns, seed):
    rng = np.random.default_rng(seed)
    prior = random_sums(rng, width + 3 if on_some_columns else width)
    cols = np.sort(rng.choice(width + 3, width, replace=False)) if on_some_columns else None
    shares = random_sums(rng, count * width)
    folded, sequential = _Sums(prior.data.copy()), _Sums(prior.data.copy())
    folded.merge(cols, _Sums(shares.data.copy()))
    for m in range(count):
        sequential.merge(cols, shares.take(slice(m * width, (m + 1) * width)))
    assert folded.data.tobytes() == sequential.data.tobytes()


def sibling_call_plan(order):
    """A two-variable plan that measures |1>, |S> and |2>, in that order,
    into children given by `order`: "A" calls a contract-free plan that
    outputs its variable, wired to x1 at the first such child and to x2 at
    the second, and "O" outputs 1."""
    r = math.sqrt(0.5)
    hadamard = isometry_from_columns("hadamard", {S_LABEL: {S_LABEL: r, idx(1): r},
                                                  idx(1): {S_LABEL: r, idx(1): -r}})
    split = MeasurementPartition(((("s",), lambda label: label == S_LABEL),
                                  (("i",), lambda label: label == idx(1))))
    read = MeasureStep(split, ((("s",), None, Output(0)), (("i",), None, Output(1))))
    interfere = GadgetStep(((identity_binding(hadamard), False),), read)
    callee = Plan(family="bit", n=1, params=(), claimed_queries=1, truth=lambda bits: bits[0],
                  root=PrepareState(LabeledState({S_LABEL: r, idx(1): r}),
                                    QueryStep(extract_trailing_index, interfere)))
    calls = iter((Call(callee, (var(1),)), Call(callee, (var(2),))))
    labels = (idx(1), S_LABEL, idx(2))
    outer = MeasurementPartition(tuple(((k,), lambda label, want=want: label == want)
                                       for k, want in enumerate(labels)))
    measure = MeasureStep(outer, tuple(((k,), None, next(calls) if kind == "A" else Output(1))
                                       for k, kind in enumerate(order)))
    state = LabeledState({idx(1): 0.48, S_LABEL: 0.6, idx(2): 0.64})
    return small_plan(PrepareState(state, measure), n=2), measure


@pytest.mark.parametrize("order,groups", [("AOA", {}), ("AAO", {0: 2}), ("OAA", {1: 2})])
def test_sibling_calls_group_only_when_adjacent(order, groups):
    plan, measure = sibling_call_plan(order)
    assert_batch_matches_executor(plan)
    compiled = [maps[3] for maps in vars(measure)["_batch_cache"].values()]
    assert compiled and all({k: group[2] for k, group in found.items()} == groups for found in compiled)


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
                for _, _, branches, groups in vars(node).get("_batch_cache", {}).values():
                    measured += 1
                    assert groups_by_callee(branches) == sorted(
                        list(range(k, k + group[2])) for k, group in groups.items())
            elif isinstance(node, (GadgetStep, PrepareState, QueryStep)):
                stack.append(node.child)
    assert measured


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
    subroutines and of their nodes and contracts, by the kind of object it
    is kept on."""
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
            collect(type(obj).__name__, vars(obj).get("_batch_cache", {}))
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
        values = leaf_values(plan, path, branch_tol=DEFAULT_BRANCH_TOL)
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
    return (leaf_values(plan, path, branch_tol=DEFAULT_BRANCH_TOL).tolist(),
            reference.leaf_values(plan, path))


def test_leaf_walk_top_level_gap_raises():
    state = LabeledState({S_LABEL: 0.6, idx(1): 0.8})
    plan = small_plan(PrepareState(state, s_only_measure()))
    for path in ((), (("s",),)):
        with pytest.raises(PartitionGap):
            leaf_values(plan, path, branch_tol=DEFAULT_BRANCH_TOL)
        with pytest.raises(PartitionGap):
            reference.leaf_values(plan, path)


def test_leaf_walk_gap_in_a_mismatched_call():
    # The call's state is not proportional to the callee's contract |S>, so
    # the callee runs on it. Its branch |1> gaps after its branch |S> has
    # been read: a path into the callee reads 0, and a path that ends at the
    # callee's root reads the call's weight.
    split = MeasurementPartition(((("s",), lambda label: label == S_LABEL),
                                  (("i",), lambda label: label == idx(1))))
    callee = small_plan(MeasureStep(split, ((("s",), None, Output(1)), (("i",), None, s_only_measure()))),
                        contract=Contract(1, (S_LABEL,), (1.0,), ((0.0,),)))
    state = LabeledState({S_LABEL: 0.6, idx(1): 0.8})
    plan = small_plan(PrepareState(state, Call(callee, (var(1),))))
    assert leaf_values_both(plan, (None, None)) == ([1.0, 1.0], [1.0, 1.0])
    assert leaf_values_both(plan, (("s",),)) == ([0.0, 0.0], [0.0, 0.0])
    assert leaf_values_both(plan, (None, None, ("s",))) == ([0.0, 0.0], [0.0, 0.0])


def test_leaf_walk_overlapping_outcomes():
    # Outcomes that overlap on a populated label are an error of the plan on
    # any path; on a label that cancelled, they are harmless.
    plan = test_verifier.TestErrorSemantics.overlap_plan((0.6, 0.0, 0.8))
    for path in ((("all",), ("a",)), (("all",), ("b",))):
        with pytest.raises(ValueError, match="matches outcomes"):
            leaf_values(plan, path, branch_tol=DEFAULT_BRANCH_TOL)
        with pytest.raises(ValueError, match="matches outcomes"):
            reference.leaf_values(plan, path)
    plan = test_verifier.TestErrorSemantics.overlap_plan((0.6, -0.6, math.sqrt(0.28)))
    assert leaf_values_both(plan, (("all",), ("a",))) == (
        [pytest.approx(0.28)] * 2, [pytest.approx(0.28)] * 2)
