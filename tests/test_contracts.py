"""Affine input contracts against the per-input closure they replaced."""

from __future__ import annotations

import itertools
import math
from itertools import combinations

import numpy as np
import pytest

from exactq import Contract, LabeledState, precomputed_state
from exactq.batch import contract_columns
from exactq.state_core import S_LABEL, pair

GAMMAS = (0.0, 1 / 126, 1 / 112, 0.05)


def reference_precomputed_state(n: int, gamma: float):
    """The pair-elimination contract one input at a time: xhat maps to
    sum_i xhat_i |S> + sqrt(gamma) sum_{i<j} (xhat_i - xhat_j) |i,j>."""
    root_gamma = math.sqrt(gamma)
    pairs = [(i - 1, j - 1, pair(i, j)) for i, j in combinations(range(1, n + 1), 2)] \
        if root_gamma > 0.0 else []

    def make(xhat: tuple[int, ...]) -> LabeledState:
        if len(xhat) != n:
            raise ValueError(f"contract expects {n} entries, got {len(xhat)}")
        items: list = [(S_LABEL, float(sum(xhat)))]
        for i, j, label in pairs:
            diff = xhat[i] - xhat[j]
            if diff:
                items.append((label, root_gamma * diff))
        return LabeledState(items)

    return make


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("n", range(1, 9))
def test_precomputed_state_matches_reference(n, gamma):
    contract = precomputed_state(n, gamma)
    reference = reference_precomputed_state(n, gamma)
    pairs = [pair(i, j) for i, j in combinations(range(1, n + 1), 2)] if gamma > 0.0 else []
    assert contract.labels == (S_LABEL, *pairs)
    kappa, norm_sq = contract_columns(contract, np.arange(1 << n))
    for index, bits in enumerate(itertools.product((0, 1), repeat=n)):
        xhat = tuple(1 - 2 * b for b in bits)
        state = reference(xhat)
        assert contract(xhat).items() == state.items(), bits
        expected = np.array([state.amplitude(label) for label in contract.labels])
        assert np.abs(kappa[:, index] - expected).max() <= 1e-15, bits
        assert abs(norm_sq[index] - state.squared_norm()) <= 1e-15, bits


def test_malformed_contracts_raise():
    with pytest.raises(ValueError, match="distinct"):
        Contract(1, (S_LABEL, S_LABEL), (0.0, 0.0), ((1.0,), (1.0,)))
    with pytest.raises(ValueError, match="one constant"):
        Contract(1, (S_LABEL,), (), ((1.0,),))
    with pytest.raises(ValueError, match="1 entries"):
        Contract(1, (S_LABEL,), (0.0,), ((1.0, 1.0),))
