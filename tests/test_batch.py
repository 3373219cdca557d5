"""Differential tests: the input-batched summary and leaf walks against the
per-input LabeledState reference of tests/reference.py."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from exactq.batch import (_Bindings, _Sums, _Walker, _route, _runs, _sub_inputs, exit_amplitudes,
                          leaf_values, summarize)
from exactq.gadgets import OracleSpec, extract_trailing_index
from exactq.plans import const, identity_wires, var
from exactq.state_core import S_LABEL, ZERO_LABEL, idx
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


# ---------------------------------------------------------------------------
# Calls into contract-free plans: wrapper plans and wire runs
# ---------------------------------------------------------------------------


def read_plan(m, k, then=None, *, gap=False):
    """A contract-free plan on `m` variables that reads x_k with one query and
    outputs it, or continues to then[x_k]. With `gap`, the label that x_k = 1
    leaves matches no outcome, so the plan gaps on those inputs."""
    r = math.sqrt(0.5)
    hadamard = isometry_from_columns("hadamard", {S_LABEL: {S_LABEL: r, idx(k): r},
                                                  idx(k): {S_LABEL: r, idx(k): -r}})
    if gap:
        read = s_only_measure()
    else:
        zero, one = then or (Output(0), Output(1))
        split = MeasurementPartition(((("s",), lambda label: label == S_LABEL),
                                      (("i",), lambda label: label == idx(k))))
        read = MeasureStep(split, ((("s",), None, zero), (("i",), None, one)))
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


def plans_run(plan):
    """The plans `_Walker.run` walks, in order, while `plan` is verified."""
    seen = []
    original = _Walker.run

    def run(self, sub, inputs):
        seen.append(sub)
        return original(self, sub, inputs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Walker, "run", run)
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
    run = plans_run(plan)
    assert inner in run
    assert all(sub is plan or not collapsible(sub) for sub in run)


def test_gap_through_wrappers_at_top_level():
    gapping = read_plan(2, 1, gap=True)
    plan = wrapper(wrapper(gapping, (var(2), var(1)), 2), (var(2), var(1)), 2)
    with pytest.raises(PartitionGap):
        verify_exactness(plan)
    with pytest.raises(PartitionGap):
        Executor().run_plan(plan, (1, 0))
    # Inputs with x1 = 0 do not gap.
    assert Executor().run_plan(plan, (0, 1)).mass


def test_gap_through_wrappers_under_a_direct_walk():
    # The call's state is not proportional to the callee's contract |S>, so
    # the callee is walked directly. Its branch |S> calls the wrappers of a
    # plan that gaps where x2 = 1; those inputs report output -1.
    gapping = read_plan(2, 1, gap=True)
    wrapped = wrapper(wrapper(gapping, (var(2), var(1)), 2), identity_wires(2), 2)
    split = MeasurementPartition(((("s",), lambda label: label == S_LABEL),
                                  (("i",), lambda label: label == idx(1))))
    callee = small_plan(MeasureStep(split, ((("s",), None, Call(wrapped, identity_wires(2))),
                                            (("i",), None, Output(1)))),
                        n=2, contract=Contract(2, (S_LABEL,), (1.0,), ((0.0, 0.0),)))
    state = LabeledState({S_LABEL: 0.6, idx(1): 0.8})
    plan = small_plan(PrepareState(state, Call(callee, identity_wires(2))), n=2)
    assert_batch_matches_executor(plan)
    entered, sums = summarize(plan, tol=DEFAULT_TOL, branch_tol=DEFAULT_BRANCH_TOL)
    assert sums.total[0].tolist() == [0.0, pytest.approx(1.0), 0.0, pytest.approx(1.0)]


@pytest.mark.parametrize("constants", [(1.0, 0.0), (0.6, 0.8)], ids=["matched", "mismatched"])
def test_wrapper_into_a_contract_does_not_collapse(constants):
    # The wrapper enters its callee from |0>, which the callee's contract
    # matches or not: the call is a contract check, so the wrapper runs.
    split = MeasurementPartition(((("z",), lambda label: label == ZERO_LABEL),
                                  (("s",), lambda label: label == S_LABEL)))
    callee = small_plan(MeasureStep(split, ((("z",), None, Output(1)), (("s",), None, Output(0)))),
                        n=2, contract=Contract(2, (ZERO_LABEL, S_LABEL), constants,
                                               ((0.0, 0.0), (0.0, 0.0))))
    checked = wrapper(callee, (var(2), var(1)), 2)
    plan = wrapper(checked, identity_wires(2), 2)
    assert_batch_matches_executor(plan)
    assert checked in plans_run(plan)


@pytest.mark.parametrize("make_plan", [
    lambda: build_sym(SymSpec("0011100", strategy=TWO_SIDED)),
    lambda: build_sym(SymSpec("0011100", strategy=OUTWARD)),
    lambda: build_exact_kl(8, 2, 6),
    lambda: build_general_unbalance(8, 2),
], ids=["sym-two-sided", "sym-outward", "exactkl826", "general82"])
def test_builders_run_no_wrapper_below_the_top(make_plan):
    plan = make_plan()
    run = plans_run(plan)
    assert all(sub is plan or not collapsible(sub) for sub in run)
    if plan.family == "sym" and plan.params_dict()["strategy"] == TWO_SIDED:
        # 153 runs over 73 plans when every wrapper filled its own memo.
        assert len(run) <= 70


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
