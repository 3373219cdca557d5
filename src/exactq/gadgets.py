"""Reusable circuit pieces: symmetrizers, rotations, and oracle application."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .errors import IndexOutOfRange
from .state_core import (
    IsometryGadget,
    Label,
    LabeledState,
    S_LABEL,
    ZERO_LABEL,
    anc,
    idx,
    isometry_from_columns,
    pair,
    tag,
)


@lru_cache(maxsize=None)
def u_gadget(n: int) -> IsometryGadget:
    """n-point symmetrizer U_n.

    Columns: |i> -> (|S> - sum_{j<i} |j,i> + sum_{j>i} |i,j>) / sqrt(n).
    The inverse maps |S> to the uniform index superposition exactly, which is
    what the controlled-spread steps rely on.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"u_gadget needs a positive int, got {n!r}")
    root = 1.0 / math.sqrt(n)
    columns: dict[Label, dict[Label, complex]] = {}
    for i in range(1, n + 1):
        col: dict[Label, complex] = {S_LABEL: root}
        for j in range(1, n + 1):
            if j < i:
                col[pair(j, i)] = -root
            elif j > i:
                col[pair(i, j)] = root
        columns[idx(i)] = col
    return isometry_from_columns(f"U{n}", columns)


def r_rotation(alpha: float) -> IsometryGadget:
    """Splitter |0> -> sin(alpha)|L> + cos(alpha)|R> on the rotation space."""
    columns = {ZERO_LABEL: {tag("L"): math.sin(alpha), tag("R"): math.cos(alpha)}}
    return isometry_from_columns(f"R({alpha:.9f})", columns)


def q_rotation(u: int, w: int) -> IsometryGadget:
    """Ancilla rotation (1/sqrt(u+w)) [[sqrt(u), -sqrt(w)], [sqrt(w), sqrt(u)]]."""
    if not (isinstance(u, int) and isinstance(w, int)) or u < 1 or w < 1:
        raise ValueError(f"q_rotation needs integers u, w >= 1, got u={u!r}, w={w!r}")
    root = math.sqrt(u + w)
    su, sw = math.sqrt(u) / root, math.sqrt(w) / root
    columns = {
        anc(0): {anc(0): su, anc(1): sw},
        anc(1): {anc(0): -sw, anc(1): su},
    }
    return isometry_from_columns(f"Q({u},{w})", columns)


@lru_cache(maxsize=1)
def hadamard_gadget() -> IsometryGadget:
    """Hadamard on the two ancilla labels."""
    r = 1.0 / math.sqrt(2.0)
    columns = {
        anc(0): {anc(0): r, anc(1): r},
        anc(1): {anc(0): r, anc(1): -r},
    }
    return isometry_from_columns("H", columns)


@dataclass(frozen=True)
class OracleSpec:
    """Phase oracle for a fixed input: entry i holds (-1)^{x_i}, 1-based."""

    xhat: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (-1, 1) for v in self.xhat):
            raise ValueError(f"xhat entries must be +-1, got {self.xhat!r}")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> OracleSpec:
        bits = tuple(bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0/1, got {bits!r}")
        return cls(tuple(1 - 2 * b for b in bits))

    @property
    def n(self) -> int:
        return len(self.xhat)


def oracle_apply(
    state: LabeledState,
    oracle: OracleSpec,
    extractor: Callable[[Label], int | None],
) -> LabeledState:
    """Multiply each amplitude by xhat at the extracted index.

    The extractor returns the 1-based variable index carried by a label, or
    None for labels that do not touch the oracle.
    """
    out: list[tuple[Label, complex]] = []
    for label, amp in state.items():
        i = extractor(label)
        if i is None:
            out.append((label, amp))
        else:
            if not 1 <= i <= oracle.n:
                raise IndexOutOfRange(f"query index {i} outside 1..{oracle.n} for label {label!r}")
            out.append((label, amp * oracle.xhat[i - 1]))
    return LabeledState(out)


def extract_trailing_index(label: Label) -> int | None:
    """Query rule for bare index labels and composites carrying one last."""
    if label[0] == "I":
        return label[1]
    if label[0] == "C" and label[2][0] == "I":
        return label[2][1]
    return None


def extract_leading_index(label: Label) -> int | None:
    """Query rule for composites carrying the index in the first register."""
    if label[0] == "C" and label[1][0] == "I":
        return label[1][1]
    return None
