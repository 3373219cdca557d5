"""Sparse labeled states, specified-column isometries, bindings, measurements.

Basis vectors are nested tuples ("labels") with a fixed total order, so gadget
completions, simulations, and reports are deterministic run to run. States are
immutable; every operation returns a new state with near-zero amplitudes
dropped.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BindingConflict, NotIsometry, PartitionGap

# Amplitudes below this are treated as exact zeros when storing states.
STORE_TOL = 1e-13
# Completed gadget matrices must be unitary to this accuracy.
UNITARY_TOL = 1e-12
# Gram-Schmidt candidates with residual norm below this are dropped.
COMPLETION_DROP_TOL = 1e-7

Label = tuple

S_LABEL: Label = ("S",)
ZERO_LABEL: Label = ("0",)

_KIND_RANK = {"0": 0, "S": 1, "I": 2, "P": 3, "Q": 4, "A": 5, "T": 6, "C": 7}


def idx(i: int) -> Label:
    """Index label |i> for a 1-based variable index."""
    if not isinstance(i, int) or i < 1:
        raise ValueError(f"index labels take a 1-based int, got {i!r}")
    return ("I", i)


def pair(i: int, j: int) -> Label:
    """Ordered-pair label |i,j> with i < j."""
    if not (isinstance(i, int) and isinstance(j, int) and 1 <= i < j):
        raise ValueError(f"pair labels need 1 <= i < j, got ({i!r}, {j!r})")
    return ("P", i, j)


def quad(i: int, j: int, u: int, v: int) -> Label:
    """Pair-of-pairs label |i,j>|u,v|: two disjoint sorted pairs."""
    if not (1 <= i < j and 1 <= u < v) or {i, j} & {u, v}:
        raise ValueError(f"quad labels need two disjoint sorted pairs, got {(i, j, u, v)!r}")
    return ("Q", i, j, u, v)


def anc(b: int) -> Label:
    """Ancilla label |b> for a bit b."""
    if b not in (0, 1):
        raise ValueError(f"ancilla labels take a bit, got {b!r}")
    return ("A", b)


def tag(kind: str, sub: Label | None = None) -> Label:
    """Rotation-arm label: bare ("T", kind) inside a gadget, tagged outside."""
    if kind not in ("L", "R"):
        raise ValueError(f"tag kind must be 'L' or 'R', got {kind!r}")
    return ("T", kind) if sub is None else ("T", kind, sub)


def comp(first: Label, second: Label) -> Label:
    """Composite label for a two-register product basis vector."""
    return ("C", first, second)


def label_key(label: Label):
    """Sort key realizing the canonical total order on labels."""
    try:
        rank = _KIND_RANK[label[0]]
    except (KeyError, IndexError, TypeError):
        raise ValueError(f"malformed label {label!r}") from None
    parts = []
    for part in label[1:]:
        if isinstance(part, tuple):
            parts.append((2,) + label_key(part))
        elif isinstance(part, int):
            parts.append((0, part))
        else:
            parts.append((1, part))
    return (rank, tuple(parts))


class LabeledState:
    """Immutable sparse complex vector over labels.

    Accepts a mapping or an iterable of (label, amplitude) items; duplicate
    labels accumulate. Amplitudes with |a| <= STORE_TOL are dropped.
    """

    __slots__ = ("_amps",)

    def __init__(self, amps: Mapping[Label, complex] | Iterable[tuple[Label, complex]] = ()):
        items = amps.items() if isinstance(amps, Mapping) else amps
        data: dict[Label, complex] = {}
        for label, amp in items:
            a = complex(amp)
            if label in data:
                a += data[label]
            data[label] = a
        self._amps = {l: a for l, a in data.items() if abs(a) > STORE_TOL}

    def amplitude(self, label: Label) -> complex:
        return self._amps.get(label, 0j)

    def items(self) -> tuple[tuple[Label, complex], ...]:
        return tuple(self._amps.items())

    def sorted_items(self) -> tuple[tuple[Label, complex], ...]:
        return tuple(sorted(self._amps.items(), key=lambda kv: label_key(kv[0])))

    def support(self) -> frozenset:
        return frozenset(self._amps)

    def squared_norm(self) -> float:
        return float(sum(a.real * a.real + a.imag * a.imag for a in self._amps.values()))

    def scaled(self, factor: complex) -> LabeledState:
        return LabeledState((l, a * factor) for l, a in self._amps.items())

    def normalized(self) -> LabeledState:
        nrm = math.sqrt(self.squared_norm())
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return self.scaled(1.0 / nrm)

    def rewritten(self, mapping: Mapping[Label, Label]) -> LabeledState:
        """Relabel support; labels absent from the mapping pass through."""
        return LabeledState((mapping.get(l, l), a) for l, a in self._amps.items())

    def __len__(self) -> int:
        return len(self._amps)

    def __bool__(self) -> bool:
        return bool(self._amps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledState):
            return NotImplemented
        return self._amps == other._amps

    def __hash__(self):
        return hash(frozenset(self._amps.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{l!r}: {a:.6g}" for l, a in self.sorted_items())
        return f"LabeledState({{{inner}}})"


@dataclass(frozen=True, eq=False)
class IsometryGadget:
    """Unitary completion of specified columns over a fixed label space.

    matrix[:, position[l]] is the image of basis label l; the specified input
    labels keep their given images and the rest are filled in by deterministic
    Gram-Schmidt over standard basis vectors in canonical label order.
    """

    name: str
    input_labels: tuple[Label, ...]
    space: tuple[Label, ...]
    matrix: np.ndarray
    matrix_h: np.ndarray
    position: Mapping[Label, int]

    @property
    def dim(self) -> int:
        return len(self.space)

    def column_state(self, label: Label) -> LabeledState:
        col = self.matrix[:, self.position[label]]
        return LabeledState(zip(self.space, col))


def isometry_from_columns(name: str, columns: Mapping[Label, Mapping[Label, complex]]) -> IsometryGadget:
    """Build a gadget from specified columns, completing them to a unitary.

    Raises NotIsometry if the specified columns are not orthonormal or the
    completion cannot reach full rank.
    """
    if not columns:
        raise NotIsometry("at least one column must be specified")
    input_labels = tuple(sorted(columns, key=label_key))
    space_set = set(input_labels)
    for col in columns.values():
        space_set.update(col)
    space = tuple(sorted(space_set, key=label_key))
    position = {l: k for k, l in enumerate(space)}
    dim = len(space)

    spec = np.zeros((dim, len(input_labels)), dtype=complex)
    for j, lbl in enumerate(input_labels):
        for out_lbl, amp in columns[lbl].items():
            spec[position[out_lbl], j] = amp
    gram = spec.conj().T @ spec
    if np.max(np.abs(gram - np.eye(len(input_labels)))) > UNITARY_TOL:
        raise NotIsometry(f"{name}: specified columns are not orthonormal")

    basis = spec
    for m in range(dim):
        if basis.shape[1] == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[m] = 1.0
        # Two Gram-Schmidt passes keep orthogonality near machine precision.
        for _ in range(2):
            v = v - basis @ (basis.conj().T @ v)
        nrm = np.linalg.norm(v)
        if nrm > COMPLETION_DROP_TOL:
            basis = np.column_stack([basis, v / nrm])
    if basis.shape[1] != dim:
        raise NotIsometry(f"{name}: completion failed to reach full rank")

    matrix = np.zeros((dim, dim), dtype=complex)
    for j, lbl in enumerate(input_labels):
        matrix[:, position[lbl]] = basis[:, j]
    extra = len(input_labels)
    for k, lbl in enumerate(space):
        if lbl not in columns:
            matrix[:, k] = basis[:, extra]
            extra += 1
    if np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim))) > UNITARY_TOL:
        raise NotIsometry(f"{name}: completed matrix is not unitary")
    return IsometryGadget(
        name=name,
        input_labels=input_labels,
        space=space,
        matrix=matrix,
        matrix_h=matrix.conj().T,
        position=position,
    )


@dataclass(frozen=True, eq=False)
class Binding:
    """Bijection between global labels and a gadget's full label space.

    The same binding serves forward and inverse application; global labels
    outside the binding pass through untouched.
    """

    gadget: IsometryGadget
    to_gadget: Mapping[Label, Label]
    global_order: tuple[Label, ...]

    def apply(self, state: LabeledState, inverse: bool = False) -> LabeledState:
        return apply_bindings(state, ((self, inverse),))


def bind(gadget: IsometryGadget, mapping: Mapping[Label, Label]) -> Binding:
    """Validate and freeze a global-to-gadget label bijection."""
    values = list(mapping.values())
    if len(set(values)) != len(values):
        raise BindingConflict(f"{gadget.name}: binding maps two global labels to one gadget label")
    if set(values) != set(gadget.space):
        missing = set(gadget.space) - set(values)
        extra = set(values) - set(gadget.space)
        raise BindingConflict(
            f"{gadget.name}: binding must cover the gadget space exactly "
            f"(missing {sorted(missing, key=label_key)!r}, extra {sorted(extra, key=label_key)!r})"
        )
    inverse = {gl: l for l, gl in mapping.items()}
    order = tuple(inverse[gl] for gl in gadget.space)
    return Binding(gadget=gadget, to_gadget=dict(mapping), global_order=order)


def identity_binding(gadget: IsometryGadget) -> Binding:
    """Bind a gadget whose label space already uses global names."""
    return bind(gadget, {l: l for l in gadget.space})


def _owners(applications: Sequence[tuple[Binding, bool]]) -> dict[Label, int]:
    """Which application binds each global label. Raises BindingConflict
    when two bind the same one."""
    owner: dict[Label, int] = {}
    for t, (binding, _) in enumerate(applications):
        for label in binding.to_gadget:
            if owner.setdefault(label, t) != t:
                raise BindingConflict(f"{binding.gadget.name}: label {label!r} is bound by two "
                                      "applications of one gadget step")
    return owner


def apply_bindings(
    state: LabeledState,
    applications: Sequence[tuple[Binding, bool]],
) -> LabeledState:
    """Apply several (binding, inverse) pairs in one pass over the state.

    The bindings must touch pairwise disjoint global labels, as a GadgetStep
    checks; two that share one raise BindingConflict.
    """
    owner = _owners(applications)
    vecs = [np.zeros(binding.gadget.dim, dtype=complex) for binding, _ in applications]
    items: list[tuple[Label, complex]] = []
    for label, amp in state.items():
        t = owner.get(label)
        if t is None:
            items.append((label, amp))
        else:
            binding = applications[t][0]
            vecs[t][binding.gadget.position[binding.to_gadget[label]]] = amp
    for (binding, inverse), vec in zip(applications, vecs):
        if not vec.any():
            continue
        out = (binding.gadget.matrix_h if inverse else binding.gadget.matrix) @ vec
        order = binding.global_order
        items.extend((order[k], out[k]) for k in np.flatnonzero(np.abs(out) > STORE_TOL))
    return LabeledState(items)


def measure(state: LabeledState, outcome_of: Callable[[Label], object], ids: Iterable) -> dict:
    """Split a state into unnormalized branches, one per outcome id in `ids`.

    `outcome_of` maps each label to its outcome id. A label of the state
    whose id is None or not in `ids` raises PartitionGap.
    """
    buckets: dict[object, list[tuple[Label, complex]]] = {oid: [] for oid in ids}
    for label, amp in state.items():
        bucket = buckets.get(outcome_of(label))
        if bucket is None:
            raise PartitionGap(f"label {label!r} matches no measurement outcome")
        bucket.append((label, amp))
    return {oid: LabeledState(items) for oid, items in buckets.items()}
