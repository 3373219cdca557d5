"""Differential tests: the input-batched summary against the per-input
LabeledState executor, which is the reference."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exactq import (
    Contract,
    GadgetStep,
    LabeledState,
    MeasureStep,
    MeasurementPartition,
    Output,
    Plan,
    PrepareState,
    QueryStep,
    appendix_a_angles,
    build_appendix_a,
    build_equality,
    build_exact_kl,
    build_unb,
    build_unbr,
    chain_gamma_at,
    identity_binding,
    isometry_from_columns,
    solve_step_constants,
    verify_exactness,
)
from exactq.batch import _Bindings, exit_amplitudes, summarize
from exactq.gadgets import OracleSpec
from exactq.state_core import S_LABEL, idx
from exactq.verifier import DEFAULT_BRANCH_TOL, DEFAULT_TOL, _collect_plans, _Executor
from test_verifier import s_only_measure, small_plan

OUTPUTS = (-1, 0, 1)
STEP_FIELDS = ("c1", "c2", "c8", "c9", "gamma")


def reference_report(plan, *, tol=DEFAULT_TOL):
    """(exact, worst-case queries, counterexample (input, output) list) of
    the per-input executor, by the verdict rule of `verify_exactness`."""
    executor = _Executor(tol=tol)
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
    executor = _Executor()
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


@pytest.mark.parametrize("make_plan", [
    lambda: build_unb(6, 2),
    lambda: build_unbr(5, 1),
    lambda: build_equality(4),
    lambda: build_exact_kl(8, 2, 6),
], ids=["unb62", "unbr51", "equality4", "exactkl826"])
def test_valid_plans_match(make_plan):
    assert_batch_matches_executor(make_plan())


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
