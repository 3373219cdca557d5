"""The per-input reference simulator that tests hold the input-batched
walkers of `exactq.batch` to.

It runs one input at a time on sparse, complex `LabeledState`s and folds
over `verifier._step`, the per-input step semantics:

- `Executor.run_plan` summarizes a run: total mass per output, deepest
  query count and worst call residual. A call on a
  state proportional to the callee's input contract reuses the callee's
  memoized summary, scaled by the squared proportionality factor; any other
  call runs the callee directly, so that broken plans produce honest wrong
  outputs rather than crashes. A branch that reaches a measurement with a
  populated label that has no outcome (a gap) ends there, as output -1 with
  its weight and query depth there;
- `leaf_values` reads, per input, the weight at the end of one outcome path
  of the run tree `run_on_input` would build (`follow`), walking the input
  along the path only;
- `leaf_weight` reads the same weight off a full run tree, and
  `output_leaf_paths` lists the paths of a run tree's output leaves;
- `exit_amplitudes` builds the degree audit's exit table one exit at a
  time and one row at a time, on the batched steps, where the batched exit
  walk puts a run of exit children as one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable

import numpy as np

from exactq import batch
from exactq.errors import PartitionGap
from exactq.gadgets import OracleSpec
from exactq.plans import Call, MeasureStep, Output, Plan, PlanNode, QueryStep
from exactq.state_core import LabeledState, ZERO_LABEL
from exactq.verifier import DEFAULT_BRANCH_TOL, DEFAULT_TOL, _enter, _entry_state, _step


def least_squares_match(state: LabeledState, reference: LabeledState) -> tuple[complex, float]:
    """Best scalar c with state ~ c * reference, and the residual norm.

    The residual is the norm of the stored state - c * reference, so
    differences at or below STORE_TOL count as zero.
    """
    ref_sq = reference.squared_norm()
    if ref_sq == 0.0:
        return 0j, math.sqrt(state.squared_norm())
    overlap = sum(a.conjugate() * state.amplitude(l) for l, a in reference.items())
    c = overlap / ref_sq
    mismatch = LabeledState(list(state.items()) + [(l, -c * a) for l, a in reference.items()])
    return c, math.sqrt(mismatch.squared_norm())


def almost_equal(a: LabeledState, b: LabeledState, atol: float = 1e-9) -> bool:
    """Whether two states agree to `atol` in every amplitude."""
    return all(abs(a.amplitude(label) - b.amplitude(label)) <= atol
               for label in a.support() | b.support())


@dataclass(frozen=True)
class Summary:
    """Aggregate of one plan run: worst reachable query depth, total mass
    per output, and worst call residual."""

    max_queries: int
    mass: tuple[tuple[int, float], ...]
    residual: float


VACUOUS = Summary(0, (), 0.0)


def merge_masses(parts: Iterable[tuple[tuple[int, float], ...]]) -> tuple:
    acc: dict[int, float] = {}
    for mass in parts:
        for output, total in mass:
            acc[output] = acc.get(output, 0.0) + total
    return tuple(sorted(acc.items()))


def scale_mass(mass: tuple, factor: float) -> tuple:
    return tuple((o, t * factor) for o, t in mass)


class Executor:
    """Memoized per-input summaries, by (plan, input bits)."""

    def __init__(self, *, tol: float = DEFAULT_TOL, branch_tol: float = DEFAULT_BRANCH_TOL):
        self.tol = tol
        self.branch_tol = branch_tol
        self.cache: dict[tuple[int, tuple[int, ...]], Summary] = {}

    def entry_state(self, plan: Plan, oracle: OracleSpec) -> LabeledState | None:
        return _entry_state(plan, oracle, self.branch_tol)

    def run_plan(self, plan: Plan, bits: tuple[int, ...]) -> Summary:
        key = (id(plan), bits)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        oracle = OracleSpec.from_bits(bits)
        entry = self.entry_state(plan, oracle)
        if entry is None:
            summary = VACUOUS
        else:
            summary = self._walk(plan.root, entry, bits, oracle, 0)
        self.cache[key] = summary
        return summary

    def _walk(self, node: PlanNode, state: LabeledState, bits: tuple[int, ...],
              oracle: OracleSpec, queries: int) -> Summary:
        weight = state.squared_norm()
        if weight <= self.branch_tol:
            return VACUOUS
        if isinstance(node, Output):
            return Summary(queries, ((node.bit, weight),), 0.0)
        if isinstance(node, Call):
            return self._call(node, state, weight, bits, queries)
        try:
            branches = _step(node, state, weight, oracle)
        except PartitionGap:
            return Summary(queries, ((-1, weight),), 0.0)
        if len(branches) == 1:
            _, child, branch, spent = branches[0]
            return self._walk(child, branch, bits, oracle, queries + spent)
        results = [self._walk(child, branch, bits, oracle, queries + spent)
                   for _, child, branch, spent in branches]
        max_q = max((r.max_queries for r in results if r.mass), default=0)
        residual = max((r.residual for r in results), default=0.0)
        return Summary(max_q, merge_masses(r.mass for r in results), residual)

    def _call(self, node: Call, state: LabeledState, weight: float,
              bits: tuple[int, ...], queries: int) -> Summary:
        sub = node.plan
        bits_sub, oracle_sub, _ = _enter(node, state, weight, bits)
        if sub.contract is None:
            inner = self.run_plan(sub, bits_sub)
            if not inner.mass:
                return Summary(0, (), inner.residual)
            return Summary(queries + inner.max_queries,
                           scale_mass(inner.mass, weight), inner.residual)

        kappa = sub.contract(oracle_sub.xhat)
        k_norm_sq = kappa.squared_norm()
        if k_norm_sq > self.branch_tol:
            coeff, residual = least_squares_match(state, kappa)
            if residual <= self.tol * max(1.0, math.sqrt(weight)):
                inner = self.run_plan(sub, bits_sub)
                factor = abs(coeff) ** 2 * k_norm_sq
                if not inner.mass or factor <= self.branch_tol:
                    return Summary(0, (), max(residual, inner.residual))
                return Summary(queries + inner.max_queries,
                               scale_mass(inner.mass, factor),
                               max(residual, inner.residual))
        else:
            residual = math.sqrt(weight)
        # The branch state is outside the callee's input family: run it
        # through the callee directly and let wrong outputs surface.
        inner = self._walk(sub.root, state, bits_sub, oracle_sub, queries)
        return Summary(inner.max_queries, inner.mass, max(residual, inner.residual))


def leaf_values(plan: Plan, path: tuple, *, branch_tol: float = DEFAULT_BRANCH_TOL) -> list[float]:
    """Per input, in lexicographic order, the weight of the run-tree node
    that `path` leads to, walking each input along the path only."""
    values = []
    for bits in product((0, 1), repeat=plan.n):
        oracle = OracleSpec.from_bits(bits)
        entry = _entry_state(plan, oracle, branch_tol)
        values.append(0.0 if entry is None else
                      follow(plan.root, entry, bits, oracle, path, branch_tol))
    return values


def follow(node: PlanNode, state: LabeledState, bits: tuple[int, ...], oracle: OracleSpec,
           path: tuple, branch_tol: float) -> float:
    """Weight of the node that `path` leads to in the run tree
    `run_on_input` would build from `node`, or 0.0 when the path leaves the
    tree or passes a gap. It steps only the nodes on the path. A path
    element that names no child descends into a lone child without being
    used up, as in the run tree.
    """
    weight = state.squared_norm()
    if path == ():
        return weight
    if weight <= branch_tol or isinstance(node, Output):
        return 0.0
    if isinstance(node, Call):
        bits_sub, oracle_sub, entry = _enter(node, state, weight, bits)
        rest = path[1:] if path[0] is None else path
        return follow(node.plan.root, entry, bits_sub, oracle_sub, rest, branch_tol)
    try:
        branches = _step(node, state, weight, oracle)
    except PartitionGap:
        return 0.0
    for oid, child, branch, _ in branches:
        if oid == path[0]:
            return follow(child, branch, bits, oracle, path[1:], branch_tol)
    if len(branches) == 1:
        _, child, branch, _ = branches[0]
        return follow(child, branch, bits, oracle, path, branch_tol)
    return 0.0


def leaf_weight(tree, path):
    """Reference: the weight of the node an outcome path leads to in a full
    run tree. A path element that names no child descends into a lone child
    without being used up; anything else off the tree weighs 0."""
    remaining = path
    node = tree
    while True:
        if not remaining:
            return node.norm_sq if node.reachable or node.kind == "pruned" else 0.0
        advanced = False
        for child in node.children:
            if child.outcome == remaining[0]:
                node, remaining, advanced = child, remaining[1:], True
                break
        if not advanced:
            if len(node.children) == 1:
                node = node.children[0]
            else:
                return 0.0


def output_leaf_paths(trees):
    """Outcome paths of every leaf that carries an output, gap leaves
    included, over a list of run trees."""
    paths = set()

    def visit(node, path):
        if node.output is not None:
            paths.add(path)
        for child in node.children:
            visit(child, path if child.outcome is None else path + (child.outcome,))

    for tree in trees:
        visit(tree, ())
    return sorted(paths, key=repr)


def exit_amplitudes(plan: Plan) -> tuple[list[tuple], dict[tuple, int], list[np.ndarray]]:
    """`batch.exit_amplitudes` one exit at a time: the batched steps walk a
    block of inputs, and each Output or Call exit, in child order, writes its
    nonzero rows into the table one row at a time, in chunks of
    `batch.BLOCK_BYTES` each but the last."""
    count = 1 << plan.n
    chunk_rows = max(1, batch.BLOCK_BYTES // (8 * count))
    chunks: list[np.ndarray] = []
    slot: dict[tuple, int] = {}
    queries_of: dict[tuple, int] = {}
    width = batch._columns(plan.label_count)
    for start in range(0, count, width):
        inputs = np.arange(start, min(count, start + width))
        if plan.contract is None:
            rows, amps = (ZERO_LABEL,), np.ones((1, len(inputs)))
        else:
            rows, (amps, _) = plan.contract.labels, batch.contract_columns(plan.contract, inputs)
        for path, queries, labels, block in exits(plan.root, rows, amps, inputs, plan.n, (), 0):
            queries_of[path] = queries
            for r in np.flatnonzero(block.any(axis=1)):
                k = slot.setdefault((path, labels[r]), len(slot))
                if k == len(chunks) * chunk_rows:
                    chunks.append(np.zeros((chunk_rows, count)))
                chunks[k // chunk_rows][k % chunk_rows, start:start + len(inputs)] = block[r]
    if chunks:
        chunks[-1] = chunks[-1][:len(slot) - (len(chunks) - 1) * chunk_rows]
    return list(slot), queries_of, chunks


def exits(node, rows: tuple, amps: np.ndarray, inputs: np.ndarray, n: int, path: tuple, queries: int):
    """Yield (outcome path, queries, row labels, amplitudes) at every Output
    or Call exit below `node`, one measurement child after another."""
    while not isinstance(node, (Output, Call)):
        if isinstance(node, MeasureStep):
            gap, branches, *_ = batch._split(node, rows, amps, n)
            if gap.any():
                raise PartitionGap("a branch state has a label that matches no measurement outcome")
            for (oid, _, _), branch in zip(node.children, branches):
                yield from exits(branch[0], branch[2], batch._branch(branch, amps), inputs, n,
                                 path + (oid,), queries)
            return
        rows, amps = batch._advance(node, rows, amps, inputs, n, None)
        queries += isinstance(node, QueryStep)
        node = node.child
    yield path, queries, rows, amps
