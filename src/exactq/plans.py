"""Adaptive plan graph: immutable step nodes wired into branching programs.

A Plan is a tree of steps. Unitary steps (PrepareState, GadgetStep, QueryStep)
have one child; MeasureStep fans out per outcome; leaves are Output bits or
Call nodes that hand the live variables to a sub-plan. Plans either prepare
their own root state or declare an input contract, a state the caller must
supply as a function of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable, Mapping, Union

from .state_core import Binding, Label, LabeledState, _owners

# A wire feeds one sub-plan variable: from a parent variable or a padded bit.
Wire = tuple[str, int]


def var(i: int) -> Wire:
    if not isinstance(i, int) or i < 1:
        raise ValueError(f"var wires take a 1-based parent index, got {i!r}")
    return ("var", i)


def const(bit: int) -> Wire:
    if bit not in (0, 1):
        raise ValueError(f"const wires take a bit, got {bit!r}")
    return ("const", bit)


def identity_wires(n: int) -> tuple[Wire, ...]:
    return tuple(var(i) for i in range(1, n + 1))


def drop_wires(n: int, removed: tuple[int, ...]) -> tuple[Wire, ...]:
    """Wires that renumber the surviving parent variables order-preservingly."""
    gone = set(removed)
    return tuple(var(i) for i in range(1, n + 1) if i not in gone)


@dataclass(frozen=True, eq=False)
class Output:
    bit: int

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise ValueError(f"Output takes a bit, got {self.bit!r}")


@dataclass(frozen=True, eq=False)
class PrepareState:
    """Root-only step: replace the (norm-1) incoming state with `state`."""

    state: LabeledState
    child: "PlanNode"

    def __post_init__(self):
        if abs(self.state.squared_norm() - 1.0) > 1e-9:
            raise ValueError(f"prepared states must be normalized, got norm^2={self.state.squared_norm()}")


class _Applications(tuple):
    """A GadgetStep's (binding, inverse) pairs, checked once, when made, to
    touch pairwise disjoint global labels: two that share one raise
    BindingConflict. Its `__dict__` holds the batched walker's maps for every
    step, of any build, that shares it.

    `layouts` is None, or a dict shared by applications of one label
    structure: the same bindings' labels and directions, one gadget of one
    space throughout, whose matrix may differ between them. The walker keeps
    their layouts there, by row tuple (`batch._compile`). Only rotation passes
    have them, which is how an override build finds its own."""

    layouts: dict | None = None

    def __new__(cls, pairs, layouts: dict | None = None):
        apps = super().__new__(cls, pairs)
        _owners(apps)
        if layouts is not None:
            apps.layouts = layouts
        return apps


@dataclass(frozen=True, eq=False)
class GadgetStep:
    """Apply bound gadgets at once; True in an entry means the adjoint.

    The bindings touch pairwise disjoint global labels, so their order does
    not matter. The pairs are kept as an `_Applications`, the one given if it
    is one, so applications that builds share are checked once.
    """

    applications: tuple[tuple[Binding, bool], ...]
    child: "PlanNode"

    def __post_init__(self):
        if type(self.applications) is not _Applications:
            object.__setattr__(self, "applications", _Applications(self.applications))


@dataclass(frozen=True, eq=False)
class QueryStep:
    """One oracle call; the extractor maps each label to its queried index."""

    extractor: Callable[[Label], int | None]
    child: "PlanNode"


@dataclass(frozen=True, eq=False)
class MeasureStep:
    """Measure in the label basis: `outcome_of` maps each label to the
    outcome id of the child that receives it, so every label belongs to at
    most one outcome.

    Each child entry is (outcome_id, relabeling-or-None, node), in branch
    order, with distinct ids other than None; the relabeling is applied to
    the collapsed branch before descending. A label that carries amplitude
    and whose id is None or names no child is a gap: a simulated branch ends
    there as output -1, and the per-input `measure` and the degree audit
    raise PartitionGap.
    """

    outcome_of: Callable[[Label], object]
    children: tuple[tuple[object, Mapping[Label, Label] | None, "PlanNode"], ...]

    def __post_init__(self):
        ids = [oid for oid, _, _ in self.children]
        if None in ids or len(set(ids)) != len(ids):
            raise ValueError(f"measurement outcome ids must be distinct and not None, got {ids!r}")


@dataclass(frozen=True, eq=False)
class Call:
    """Hand off to a sub-plan; wires feed each of its variables in order."""

    plan: "Plan"
    wires: tuple[Wire, ...]

    def __post_init__(self):
        if len(self.wires) != self.plan.n:
            raise ValueError(f"{self.plan.family}: {self.plan.n} wires required, got {len(self.wires)}")
        live = [i for kind, i in self.wires if kind == "var"]
        if len(set(live)) != len(live):
            raise ValueError(f"{self.plan.family}: live-variable wires must be injective, got {self.wires!r}")


@dataclass(frozen=True, eq=False)
class Contract:
    """An input contract: a state affine in the +-1 input encoding xhat.

    Label k carries constants[k] + sum_i coeffs[k][i] * xhat_i. Calling the
    contract on one input gives its (unnormalized) LabeledState; the batched
    simulator evaluates it on blocks of inputs at once.
    """

    n: int
    labels: tuple[Label, ...]
    constants: tuple[complex, ...]
    coeffs: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"contract labels must be distinct, got {self.labels!r}")
        if len(self.constants) != len(self.labels) or len(self.coeffs) != len(self.labels):
            raise ValueError("a contract takes one constant and one coefficient row per label")
        if any(len(row) != self.n for row in self.coeffs):
            raise ValueError(f"contract coefficient rows must have {self.n} entries")

    def __call__(self, xhat: tuple[int, ...]) -> LabeledState:
        if len(xhat) != self.n:
            raise ValueError(f"contract expects {self.n} entries, got {len(xhat)}")
        amps = (constant + sum(map(mul, row, xhat)) for constant, row in zip(self.constants, self.coeffs))
        return LabeledState([(label, a) for label, a in zip(self.labels, amps) if a])


PlanNode = Union[Output, PrepareState, GadgetStep, QueryStep, MeasureStep, Call]


@dataclass(frozen=True)
class WeightTruth:
    """Truth function: 1 iff the Hamming weight of the input lies in `weights`.

    `verify_exactness` reads a `WeightTruth` on every input from a table by
    weight instead of calling it.
    """

    weights: frozenset[int]

    def __call__(self, bits: tuple[int, ...]) -> int:
        return 1 if sum(bits) in self.weights else 0


@dataclass(frozen=True, eq=False)
class Plan:
    """A complete branching program for one function family instance.

    `truth` is the intended Boolean function (used as the default check).
    Plans with an input `contract` consume a caller-prepared state instead of
    a PrepareState root; `contract` gives that state as an affine map of the
    +-1 input encoding, and `contract_gamma` records its leakage coefficient
    when meaningful.

    Built, a plan holds what its own nodes, not its callees', give:
    `label_count`, the labels its steps can write; `callees`, the plans its
    Calls name, in first-appearance order; and `height`, 1 + the highest
    callee height (0 with none). A non-node in its tree raises TypeError.
    """

    family: str
    n: int
    params: tuple[tuple[str, object], ...]
    root: PlanNode
    claimed_queries: int
    truth: Callable[[tuple[int, ...]], int]
    contract: Contract | None = None
    contract_gamma: float | None = None

    def __post_init__(self):
        labels: set = set()
        callees: dict[int, Plan] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, MeasureStep):
                labels.update(*(rewrite.values() for _, rewrite, _ in node.children if rewrite))
                stack.extend(child for _, _, child in reversed(node.children))
            elif isinstance(node, Call):
                callees.setdefault(id(node.plan), node.plan)
            elif isinstance(node, (PrepareState, GadgetStep, QueryStep)):
                if isinstance(node, PrepareState):
                    labels |= node.state.support()
                elif isinstance(node, GadgetStep):
                    labels.update(*(binding.to_gadget for binding, _ in node.applications))
                stack.append(node.child)
            elif not isinstance(node, Output):
                raise TypeError(f"{self.family}: {node!r} is not a plan node")
        object.__setattr__(self, "label_count", len(labels))
        object.__setattr__(self, "callees", tuple(callees.values()))
        object.__setattr__(self, "height", 1 + max((callee.height for callee in self.callees), default=-1))

    def params_dict(self) -> dict:
        return dict(self.params)

    def __repr__(self) -> str:
        extra = f", gamma={self.contract_gamma!r}" if self.contract is not None else ""
        return f"Plan({self.family}, n={self.n}, claimed={self.claimed_queries}{extra})"


def _shared(obj, **changes):
    """A copy of a validated plan or step with `changes`. A plan copy keeps
    its original's shape: an override build has the same shape, and a cut
    copy walks in its original's blocks. The copy shares its compiled maps,
    a gadget step's on its applications, except a measurement's, which name
    its children: its copy starts with none."""
    copy = object.__new__(type(obj))
    copy.__dict__.update(vars(obj), **changes)
    if isinstance(obj, MeasureStep):
        copy.__dict__.pop("_batch_cache", None)
    elif isinstance(obj, (Call, PrepareState, QueryStep)):
        copy.__dict__["_batch_cache"] = obj.__dict__.setdefault("_batch_cache", {})
    return copy
