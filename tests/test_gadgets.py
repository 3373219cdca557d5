"""Fixed unitary building blocks and the query oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactq import (
    IndexOutOfRange,
    LabeledState,
    OracleSpec,
    hadamard_gadget,
    oracle_apply,
    q_rotation,
    r_rotation,
    u_gadget,
)
from exactq.gadgets import extract_leading_index, extract_trailing_index
from exactq.state_core import S_LABEL, ZERO_LABEL, anc, comp, idx, pair, tag


def unitarity_residual(g) -> float:
    eye = np.eye(g.dim)
    return max(
        np.max(np.abs(g.matrix @ g.matrix_h - eye)),
        np.max(np.abs(g.matrix_h @ g.matrix - eye)),
    )


class TestUGadget:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_unitary_up_to_20(self, n):
        assert unitarity_residual(u_gadget(n)) < 1e-12

    def test_column_of_index_label(self):
        g = u_gadget(3)
        col = g.column_state(idx(2))
        root = 1.0 / math.sqrt(3)
        assert col.amplitude(S_LABEL) == pytest.approx(root)
        assert col.amplitude(pair(1, 2)) == pytest.approx(-root)
        assert col.amplitude(pair(2, 3)) == pytest.approx(root)
        assert col.amplitude(pair(1, 3)) == 0.0

    def test_inverse_maps_start_to_uniform(self):
        g = u_gadget(4)
        start = LabeledState({S_LABEL: 1.0})
        out = LabeledState(
            zip(g.space, g.matrix_h @ np.array([start.amplitude(l) for l in g.space]))
        )
        for i in range(1, 5):
            assert out.amplitude(idx(i)) == pytest.approx(0.5)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            u_gadget(0)

    def test_single_point_case(self):
        g = u_gadget(1)
        assert g.column_state(idx(1)).amplitude(S_LABEL) == pytest.approx(1.0)


class TestRotations:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_r_rotation_unitary(self, alpha):
        assert unitarity_residual(r_rotation(alpha)) < 1e-12

    def test_r_rotation_splits_zero(self):
        g = r_rotation(0.3)
        col = g.column_state(ZERO_LABEL)
        assert col.amplitude(tag("L")) == pytest.approx(math.sin(0.3))
        assert col.amplitude(tag("R")) == pytest.approx(math.cos(0.3))

    def test_r_rotation_completion(self):
        g = r_rotation(0.3)
        col_l = g.column_state(tag("L"))
        assert col_l.amplitude(ZERO_LABEL) == pytest.approx(1.0)
        col_r = g.column_state(tag("R"))
        assert col_r.amplitude(tag("L")) == pytest.approx(math.cos(0.3))
        assert col_r.amplitude(tag("R")) == pytest.approx(-math.sin(0.3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
    def test_q_rotation_unitary(self, u, w):
        assert unitarity_residual(q_rotation(u, w)) < 1e-12

    def test_q_rotation_entries(self):
        g = q_rotation(1, 3)
        col = g.column_state(anc(0))
        assert col.amplitude(anc(0)) == pytest.approx(0.5)
        assert col.amplitude(anc(1)) == pytest.approx(math.sqrt(3) / 2)

    def test_hadamard(self):
        g = hadamard_gadget()
        assert unitarity_residual(g) < 1e-15
        col = g.column_state(anc(1))
        assert col.amplitude(anc(0)) == pytest.approx(math.sqrt(0.5))
        assert col.amplitude(anc(1)) == pytest.approx(-math.sqrt(0.5))


class TestOracle:
    def test_from_bits_signs(self):
        o = OracleSpec.from_bits((0, 1, 1))
        assert o.xhat == (1, -1, -1)
        assert o.n == 3

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            OracleSpec(xhat=(1, 0, -1))

    def test_phase_flip_on_indexed_labels(self):
        o = OracleSpec.from_bits((1, 0))
        s = LabeledState({idx(1): 0.5, idx(2): 0.5, S_LABEL: 0.5})
        out = oracle_apply(s, o, extract_trailing_index)
        assert out.amplitude(idx(1)) == pytest.approx(-0.5)
        assert out.amplitude(idx(2)) == pytest.approx(0.5)
        assert out.amplitude(S_LABEL) == pytest.approx(0.5)

    def test_padded_indices_still_cost_a_query(self):
        o = OracleSpec.from_bits((1, 0, 1))
        s = LabeledState({idx(3): 1.0})
        out = oracle_apply(s, o, extract_trailing_index)
        assert out.amplitude(idx(3)) == pytest.approx(-1.0)

    def test_out_of_range_index(self):
        o = OracleSpec.from_bits((1, 0))
        with pytest.raises(IndexOutOfRange):
            oracle_apply(LabeledState({idx(3): 1.0}), o, extract_trailing_index)


class TestExtractors:
    def test_trailing(self):
        assert extract_trailing_index(idx(4)) == 4
        assert extract_trailing_index(comp(anc(0), idx(2))) == 2
        assert extract_trailing_index(S_LABEL) is None

    def test_leading(self):
        assert extract_leading_index(comp(idx(3), S_LABEL)) == 3
        assert extract_leading_index(comp(idx(3), pair(1, 2))) == 3
        assert extract_leading_index(pair(1, 2)) is None
