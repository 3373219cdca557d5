"""Sparse labeled states, isometry completion, bindings, and measurement."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactq import (
    BindingConflict,
    GadgetStep,
    LabeledState,
    MeasureStep,
    NotIsometry,
    Output,
    PartitionGap,
    bind,
    identity_binding,
    isometry_from_columns,
    u_gadget,
)
from exactq.state_core import (
    S_LABEL,
    ZERO_LABEL,
    anc,
    apply_bindings,
    comp,
    idx,
    measure,
    pair,
    tag,
)
from reference import almost_equal, least_squares_match


class TestLabeledState:
    def test_accumulates_duplicate_labels(self):
        s = LabeledState([(idx(1), 0.5), (idx(1), 0.25)])
        assert s.amplitude(idx(1)) == pytest.approx(0.75)

    def test_prunes_cancellations(self):
        s = LabeledState([(idx(1), 0.5), (idx(1), -0.5), (idx(2), 1.0)])
        assert s.support() == frozenset({idx(2)})

    def test_squared_norm(self):
        s = LabeledState({idx(1): 0.6, idx(2): 0.8})
        assert s.squared_norm() == pytest.approx(1.0)

    def test_rewritten_merges_targets(self):
        s = LabeledState({idx(1): 0.5, idx(2): 0.5})
        merged = s.rewritten({idx(1): S_LABEL, idx(2): S_LABEL})
        assert merged.amplitude(S_LABEL) == pytest.approx(1.0)

    def test_normalized_zero_state_raises(self):
        with pytest.raises(ValueError):
            LabeledState().normalized()

    def test_equality_and_hash(self):
        a = LabeledState({idx(1): 1.0})
        b = LabeledState([(idx(1), 0.5), (idx(1), 0.5)])
        assert a == b
        assert hash(a) == hash(b)


class TestLeastSquaresMatch:
    def test_exact_multiple(self):
        ref = LabeledState({idx(1): 1.0, idx(2): -1.0})
        state = ref.scaled(0.25)
        coeff, residual = least_squares_match(state, ref)
        assert coeff == pytest.approx(0.25)
        assert residual < 1e-15

    def test_orthogonal_component_reported(self):
        ref = LabeledState({idx(1): 1.0})
        state = LabeledState({idx(1): 0.5, idx(2): 0.3})
        coeff, residual = least_squares_match(state, ref)
        assert coeff == pytest.approx(0.5)
        assert residual == pytest.approx(0.3)


class TestIsometryCompletion:
    def test_rejects_non_isometric_columns(self):
        with pytest.raises(NotIsometry):
            isometry_from_columns("bad", {idx(1): {idx(1): 0.5}})

    def test_rejects_non_orthogonal_columns(self):
        with pytest.raises(NotIsometry):
            isometry_from_columns(
                "bad",
                {idx(1): {idx(1): 1.0}, idx(2): {idx(1): 1.0}},
            )

    def test_completion_is_unitary(self):
        g = isometry_from_columns(
            "half",
            {idx(1): {idx(1): math.sqrt(0.5), idx(2): math.sqrt(0.5)}},
        )
        assert g.dim == 2
        eye = g.matrix @ g.matrix_h
        assert np.max(np.abs(eye - np.eye(g.dim))) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=12))
    def test_u_gadget_preserves_norm(self, n):
        g = u_gadget(n)
        rng = np.random.default_rng(n)
        vec = rng.standard_normal(g.dim)
        assert abs(np.linalg.norm(g.matrix @ vec) - np.linalg.norm(vec)) < 1e-12


class TestBindings:
    def test_bind_requires_bijection(self):
        g = u_gadget(2)
        with pytest.raises(BindingConflict):
            bind(g, {S_LABEL: S_LABEL})
        with pytest.raises(BindingConflict):
            bind(g, {S_LABEL: S_LABEL, idx(1): S_LABEL, idx(2): idx(2), pair(1, 2): pair(1, 2)})

    def test_apply_then_inverse_roundtrips(self):
        g = u_gadget(3)
        b = identity_binding(g)
        s = LabeledState({S_LABEL: 0.5, idx(2): 0.5, pair(1, 3): math.sqrt(0.5)})
        back = b.apply(b.apply(s), inverse=True)
        assert almost_equal(back, s, atol=1e-12)

    def test_untouched_labels_pass_through(self):
        g = u_gadget(2)
        b = identity_binding(g)
        s = LabeledState({ZERO_LABEL: 1.0})
        assert b.apply(s) == s

    def test_apply_bindings_matches_sequential(self):
        g2 = u_gadget(2)
        left = bind(g2, {comp(anc(0), S_LABEL): S_LABEL,
                         comp(anc(0), idx(1)): idx(1),
                         comp(anc(0), idx(2)): idx(2),
                         comp(anc(0), pair(1, 2)): pair(1, 2)})
        right = identity_binding(g2)
        s = LabeledState({comp(anc(0), S_LABEL): 0.5, S_LABEL: 0.5,
                          idx(1): 0.5, comp(anc(0), idx(2)): 0.5})
        batched = apply_bindings(s, [(left, False), (right, True)])
        sequential = right.apply(left.apply(s), inverse=True)
        assert almost_equal(batched, sequential, atol=1e-12)

    def test_bindings_sharing_a_label_raise(self):
        # Two bindings of one step that touch one label have no single-pass
        # meaning: the step and `apply_bindings` both refuse them.
        g = u_gadget(2)
        shared = [(identity_binding(g), False), (identity_binding(g), True)]
        with pytest.raises(BindingConflict):
            GadgetStep(tuple(shared), Output(1))
        with pytest.raises(BindingConflict):
            apply_bindings(LabeledState({S_LABEL: 1.0}), shared)


class TestMeasurement:
    @staticmethod
    def outcome_of(label):
        return {"S": "s", "I": "rest", "P": "pair"}.get(label[0])

    def test_splits_mass_by_outcome(self):
        parts = measure(LabeledState({S_LABEL: 0.6, idx(1): 0.8}), self.outcome_of, ("s", "rest"))
        assert parts["s"].squared_norm() == pytest.approx(0.36)
        assert parts["rest"].squared_norm() == pytest.approx(0.64)

    def test_unclassifiable_label_raises(self):
        # A label without an outcome, and one whose outcome is not measured.
        for label in (ZERO_LABEL, pair(1, 2)):
            with pytest.raises(PartitionGap):
                measure(LabeledState({label: 1.0}), self.outcome_of, ("s", "rest"))

    @pytest.mark.parametrize("ids", [("s", "s"), ("s", None)], ids=["duplicate", "none"])
    def test_outcome_ids_must_be_distinct_and_not_none(self, ids):
        with pytest.raises(ValueError, match="outcome ids"):
            MeasureStep(self.outcome_of, tuple((oid, None, Output(1)) for oid in ids))


class TestLabels:
    def test_index_labels_validate(self):
        with pytest.raises(ValueError):
            idx(0)
        with pytest.raises(ValueError):
            pair(2, 2)

    def test_tag_kinds(self):
        assert tag("L")[1] == "L"
        with pytest.raises(ValueError):
            tag("scratch")
