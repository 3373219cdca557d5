"""Input-batched summary simulation: one plan walk for a block of inputs.

The state of a block is a tuple of row labels and one float64 amplitude
matrix, rows by input columns. Each column follows the per-input semantics of
`verifier._step` and of the summary executor in tests/reference.py, which
stay the reference:

- every |a| <= STORE_TOL is zeroed after each step;
- a column is pruned at node entry when its weight is <= branch_tol;
- the deepest query count counts only branches that carry mass (-1 here
  marks a column with no mass), and masses merge in branch order;
- a label that matches no measurement outcome marks a *gap* on the columns
  where it is nonzero. A gap propagates up to the nearest Call that walks its
  callee directly, which reports output -1 with that call's weight; at top
  level it raises PartitionGap;
- a Call whose state is proportional to the callee's input contract reads
  the callee's summary from a per-plan memo, filled on demand for the
  sub-inputs the calls reach, scaled by |c|^2 ||kappa||^2. Other columns walk
  the callee as one batch.

A contract-free plan whose root calls a contract-free plan (a padding or
renaming reduction) enters it from |0> with weight 1.0 and no queries, so it
shares its callee's memo; the leaf and exit walks still walk such plans. A
call's wires compile once into bit runs: a callee input takes one shift, mask
and or per run.

Every amplitude the builders make is real, so the walk is real too: gadget
matrices, prepared states and contract matrices compile to float64 (`_real`),
and one with a nonzero imaginary part raises ValueError. There is no complex
path; the per-input reference keeps complex amplitudes.

Inputs are numbered by their bits read as a binary number, first bit most
significant, which is the order of `itertools.product((0, 1), repeat=n)`.

Gadget steps are one gather, one matrix product and one scatter per group of
bindings that share a gadget. Their index maps, like those of queries and
measurements, are compiled once per (node, row-label tuple) and kept on the
node, so a plan compiles at its first walk, never while it is built.

The summary of a block is one (9, columns) float64 matrix (`_Sums`): three
rows of total mass per output, which branches merge by adding, and six rows
merged by maximum (deepest query count, heaviest branch per output, call
residual, gap flag). Adjacent sibling branches of a measurement that call
one plan run as one call over all their columns, and their summaries fold
into the measurement's in one pass: one accumulation of the totals in
branch order and one maximum over the rest.

An input contract is affine in the +-1 input, so the contract states of a
block are one product of its matrix over (1, xhat), compiled at the first
walk and kept on the contract, with the block's +-1 encodings; they are
evaluated wherever a block needs them, and nothing is kept per input. The
memos belong to one `summarize` call and are freed when it returns; the
compiled maps stay on plan nodes, which plans of one shape share.

`exit_amplitudes` takes the same steps for the degree audit, but stops at a
plan's exits: it starts from the raw contract states, prunes nothing and
never enters a callee.

`leaf_values` takes them for a leaf polynomial: per input, the weight at the
end of one outcome path of the run tree, as the reference leaf walk of
tests/reference.py reads it. It steps every child of the current plan that
has rows, so that a gap anywhere in it surfaces, but enters only the Call on
the path, and it keeps no memo.
"""

from __future__ import annotations

from itertools import compress, groupby, zip_longest

import numpy as np

from .errors import IndexOutOfRange, PartitionGap
from .plans import Call, Contract, GadgetStep, MeasureStep, Output, Plan, PrepareState, QueryStep
from .state_core import STORE_TOL, ZERO_LABEL

# Bytes a block of input columns may take (512 KiB): a walk of a plan takes
# BLOCK_BYTES // (the plan's label count * _DTYPE's item size (8) +
# _COLUMN_BYTES) columns at a time. Blocks of a few hundred KiB keep peak
# memory within a few MiB of the per-input simulator's; wider blocks run
# faster and take more. A chunk of
# the exit walk's value table takes at most as much.
BLOCK_BYTES = 1 << 19
# Bytes a column costs beyond its amplitudes: its summary, and the
# temporaries that fold summaries together.
_COLUMN_BYTES = 256

_DTYPE = np.float64
# A gadget row whose entries sum to at most this in magnitude is a rounding
# residue of the unitary completion (they are near 1e-17 here).
_NEGLIGIBLE = 1e-15
# The largest column norm for which leaving such rows out is exact: the
# entries they would produce stay at or below STORE_TOL (see _Bindings).
_MAX_NORM = STORE_TOL / _NEGLIGIBLE


class _Sums:
    """Per-column summary of a run, packed in one (9, columns) float64
    matrix `data`. Rows 0-2 are the total mass per output (-1, 0, 1), which
    branches merge by adding. Rows 3-8 merge by maximum: the deepest query
    count over branches with mass (-1 when no branch carries mass), the
    heaviest-branch mass per output, the worst call residual, and the gap
    flag as 0 or 1. The named fields are views of their rows."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = data

    total = property(lambda self: self.data[:3])
    maxq = property(lambda self: self.data[3])
    heavy = property(lambda self: self.data[4:7])
    resid = property(lambda self: self.data[7])
    gap = property(lambda self: self.data[8])

    @classmethod
    def vacuous(cls, width: int) -> _Sums:
        data = np.zeros((9, width))
        data[3] = -1.0
        return cls(data)

    @classmethod
    def output(cls, bit: int, weight: np.ndarray, queries: int) -> _Sums:
        data = np.zeros((9, len(weight)))
        data[bit + 1] = data[bit + 5] = weight
        data[3] = queries
        return cls(data)

    def take(self, cols) -> _Sums:
        return _Sums(self.data[:, cols])

    def put(self, cols, other: _Sums) -> None:
        self.data[:, cols] = other.data

    def merge(self, cols, other: _Sums) -> None:
        """Fold branches into the columns `cols` (all when None), in branch
        order. `other` holds one block of as many columns per branch, the
        branches one after another; several branches use it up."""
        mine = self.data if cols is None else self.data[:, cols]
        if other.data.shape[1] == mine.shape[1]:
            mine[:3] += other.data[:3]
            np.maximum(mine[3:], other.data[3:], out=mine[3:])
        else:
            # The totals accumulate in place, one branch after another from
            # the current sums. np.add.reduce would not keep that order: it
            # sums pairwise where numpy makes the branch axis its inner loop,
            # as it does for one column.
            branches = other.data.reshape(9, -1, mine.shape[1])
            totals = branches[:3]
            totals[:, 0] += mine[:3]
            np.add.accumulate(totals, axis=1, out=totals)
            mine[:3] = totals[:, -1]
            np.maximum(mine[3:], branches[3:].max(axis=1), out=mine[3:])
        if cols is not None:
            self.data[:, cols] = mine


class _Memo:
    """Summaries of one plan by input, kept in the order the inputs were
    first reached, so a plan that calls reach at few inputs costs little."""

    def __init__(self, n: int):
        self.slot = np.full(1 << n, -1, dtype=np.int32)
        self.sums = _Sums.vacuous(16)
        self.size = 0

    def missing(self, inputs: np.ndarray) -> np.ndarray:
        """The distinct inputs without a summary, in increasing order."""
        needed = np.zeros(len(self.slot), dtype=bool)
        needed[inputs] = self.slot[inputs] < 0
        return np.flatnonzero(needed)

    def add(self, inputs: np.ndarray, sums: _Sums) -> None:
        size = self.size + len(inputs)
        if size > len(self.sums.maxq):
            grown = _Sums.vacuous(max(size, 2 * len(self.sums.maxq)))
            grown.put(slice(0, self.size), self.sums.take(slice(0, self.size)))
            self.sums = grown
        self.slot[inputs] = np.arange(self.size, size)
        self.sums.put(slice(self.size, size), sums)
        self.size = size

    def take(self, inputs: np.ndarray) -> _Sums:
        return self.sums.take(self.slot[inputs])


def summarize(plan: Plan, *, tol: float, branch_tol: float) -> tuple[np.ndarray, _Sums]:
    """Run `plan` from its entry state on all 2^n inputs.

    Returns which inputs entered the plan (those whose entry contract does
    not vanish) and their summaries. Raises PartitionGap when an input's
    branch leaves a measurement's partition outside any directly walked call.
    """
    walker = _Walker(tol, branch_tol)
    count = 1 << plan.n
    entered = np.zeros(count, dtype=bool)
    sums = _Sums.vacuous(count)
    width = _block_width(plan)
    for start in range(0, count, width):
        block = np.arange(start, min(count, start + width))
        entered[block], part = walker.run(plan, block)
        gapped = (part.gap != 0) & entered[block]
        if gapped.any():
            bits = _bits(int(block[np.argmax(gapped)]), plan.n)
            raise PartitionGap(f"input {bits}: a branch state has a label that matches "
                               "no measurement outcome")
        sums.put(block, part)
    return entered, sums


class _Walker:
    def __init__(self, tol: float, branch_tol: float):
        self.tol = tol
        self.branch_tol = branch_tol
        # id(plan) -> (plan, its summaries by input)
        self.memos: dict[int, tuple[Plan, _Memo]] = {}

    def run(self, plan: Plan, inputs: np.ndarray) -> tuple[np.ndarray, _Sums]:
        """Walk `plan` from its entry state on a block of its inputs."""
        entered, rows, amps = _entry(plan, inputs, self.branch_tol)
        if entered.all():
            return entered, self.walk(plan.root, rows, amps, inputs, plan.n, 0)
        sums = _Sums.vacuous(len(inputs))
        if entered.any():
            sums.put(entered, self.walk(plan.root, rows, amps, inputs[entered], plan.n, 0))
        return entered, sums

    def memo(self, plan: Plan, inputs: np.ndarray) -> _Sums:
        """Summaries of `plan` run from its entry state, one per column,
        computed only for inputs no earlier call has reached. A plan that
        only calls a plan, both contract-free, has its callee's summaries."""
        while plan.contract is None and isinstance(plan.root, Call) and plan.root.plan.contract is None:
            inputs = _sub_inputs(plan.root, inputs, plan.n)
            plan = plan.root.plan
        entry = self.memos.get(id(plan))
        if entry is None:
            entry = self.memos[id(plan)] = (plan, _Memo(plan.n))
        memo = entry[1]
        missing = memo.missing(inputs)
        width = _block_width(plan)
        for start in range(0, len(missing), width):
            block = missing[start:start + width]
            memo.add(block, self.run(plan, block)[1])
        return memo.take(inputs)

    def walk(self, node, rows: tuple, amps: np.ndarray, inputs: np.ndarray,
             n: int, queries: int) -> _Sums:
        """Summaries of the columns of `amps` from `node` on. `inputs` are the
        columns' inputs to the node's plan, which has `n` variables. The walk
        owns `amps` and may change it in place."""
        while True:
            weight = _weights(amps)
            live = weight > self.branch_tol
            if not live.all():
                sums = _Sums.vacuous(len(inputs))
                if live.any():
                    sums.put(live, self.walk(node, rows, amps[:, live], inputs[live], n, queries))
                return sums
            if isinstance(node, Output):
                return _Sums.output(node.bit, weight, queries)
            if isinstance(node, Call):
                return self.enter(node.plan, rows, amps, weight, _sub_inputs(node, inputs, n), queries)
            if isinstance(node, MeasureStep):
                return self.measure(node, rows, amps, inputs, n, queries)
            rows, amps = _advance(node, rows, amps, inputs, n, weight)
            queries += isinstance(node, QueryStep)
            node = node.child

    def measure(self, node: MeasureStep, rows: tuple, amps: np.ndarray,
                inputs: np.ndarray, n: int, queries: int) -> _Sums:
        """Split the rows by outcome and fold the branches in branch order.

        Adjacent children that call one plan without merging labels run as
        one call over all their columns when the first of them is reached,
        and their summaries fold into the columns at once. A column that gaps
        in one of them is still read by the later ones, but the gap discards
        those reads, as it discards every branch of the column.
        """
        gap_rows, clash, branches, groups = _measure_maps(node, rows, n)
        # A label that matches two outcomes is an error of the plan, as in
        # `measure`, once it carries amplitude.
        for r, message in clash:
            if amps[r].any():
                raise ValueError(message)
        sums = _Sums.vacuous(len(inputs))
        if len(gap_rows):
            sums.gap[:] = (amps[gap_rows] != 0).any(axis=0)

        folded = 0
        for k, (child, members, labels, _) in enumerate(branches):
            if k < folded or not len(members):
                continue
            # A column that gapped stops there, as the per-input walk does.
            cols = np.flatnonzero(sums.gap == 0) if sums.gap.any() else None
            if cols is not None and not len(cols):
                break
            block_inputs = inputs if cols is None else inputs[cols]
            group = groups.get(k)
            if group is None:
                sums.merge(cols, self.walk(child, labels, _branch(branches[k], amps, cols),
                                           block_inputs, n, queries))
                continue
            # Sibling calls into one plan run as one call over all their
            # columns, a member's columns after another's.
            sub, union, count, sources, order, starts, runs = group
            width = len(block_inputs)
            padded = np.zeros((len(rows) + 1, width), dtype=_DTYPE)
            padded[:-1] = amps if cols is None else amps[:, cols]
            weight = np.add.reduceat(np.square(padded)[order], starts, axis=0).ravel()
            if sub.contract is None:
                padded = None
            live = weight > self.branch_tol
            sub_inputs = _route(block_inputs, runs).ravel()
            shares = _Sums.vacuous(count * width)
            # A block of members at a time: a callee with a contract needs
            # their states, one without only their weights.
            rows_needed = 0 if sub.contract is None else len(union)
            step = max(1, _columns(rows_needed) // width)
            for first in range(0, count, step):
                span = slice(first * width, min(count, first + step) * width)
                part = np.flatnonzero(live[span]) + span.start
                if not len(part):
                    continue
                joined = None if sub.contract is None else \
                    padded[sources[:, first:first + step]].reshape(len(union), -1)[:, part - span.start]
                shares.put(part, self.enter(sub, union, joined, weight[part], sub_inputs[part], queries))
            sums.merge(cols, shares)
            folded = k + count
        return sums

    def enter(self, sub: Plan, rows: tuple, amps: np.ndarray | None, weight: np.ndarray,
              sub_inputs: np.ndarray, queries: int) -> _Sums:
        """Summaries of a call into `sub` on columns of squared norm `weight`
        whose inputs to `sub` are `sub_inputs`. A callee without a contract
        ignores the states, so `amps` may then be None."""
        if sub.contract is None:
            sums = self.memo(sub, sub_inputs)
            sums.maxq[:] = np.where(sums.maxq >= 0, queries + sums.maxq, -1)
            np.multiply(sums.total, weight, out=sums.total)
            np.multiply(sums.heavy, weight, out=sums.heavy)
            return sums

        kappa, k_norm_sq = contract_columns(sub.contract, sub_inputs)
        coeff, residual = _least_squares(sub.contract, kappa, k_norm_sq, rows, amps)
        has_contract = k_norm_sq > self.branch_tol
        residual = np.where(has_contract, residual, np.sqrt(weight))
        matched = has_contract & (residual <= self.tol * np.maximum(1.0, np.sqrt(weight)))
        sums = _Sums.vacuous(len(sub_inputs))
        if matched.any():
            inner = self.memo(sub, sub_inputs[matched])
            factor = np.abs(coeff[matched]) ** 2 * k_norm_sq[matched]
            live = (inner.maxq >= 0) & (factor > self.branch_tol)
            inner.maxq[:] = np.where(live, queries + inner.maxq, -1)
            inner.total[:] = np.where(live, inner.total * factor, 0.0)
            inner.heavy[:] = np.where(live, inner.heavy * factor, 0.0)
            np.maximum(inner.resid, residual[matched], out=inner.resid)
            sums.put(matched, inner)
        # The other states are outside the callee's input family: walk them
        # through the callee directly, a block at a time. A column that
        # leaves the callee's measurement algebra reports output -1 with the
        # call's weight.
        rest = np.flatnonzero(~matched)
        width = _block_width(sub)
        for start in range(0, len(rest), width):
            cols = rest[start:start + width]
            inner = self.walk(sub.root, rows, amps[:, cols], sub_inputs[cols], sub.n, queries)
            np.maximum(inner.resid, residual[cols], out=inner.resid)
            gap = inner.gap != 0
            if gap.any():
                inner.put(gap, _Sums.output(-1, weight[cols][gap], queries))
                inner.resid[gap] = residual[cols][gap]
            sums.put(cols, inner)
        return sums


def _entry(plan: Plan, inputs: np.ndarray, branch_tol: float) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Which of `inputs` enter `plan` (those whose contract state does not
    vanish), and the entry states of those that do, as rows and columns: the
    normalized contract, or the scratch state |0> without one."""
    if plan.contract is None:
        width = len(inputs)
        return np.ones(width, dtype=bool), (ZERO_LABEL,), np.ones((1, width), dtype=_DTYPE)
    kappa, norm_sq = contract_columns(plan.contract, inputs)
    entered = norm_sq > branch_tol
    # Times the reciprocal norm, as `LabeledState.normalized` does.
    amps = kappa[:, entered] * (1.0 / np.sqrt(norm_sq[entered]))
    _zero_small(amps)
    return entered, plan.contract.labels, amps


# ---------------------------------------------------------------------------
# Leaf values (leaf polynomials)
# ---------------------------------------------------------------------------


def leaf_values(plan: Plan, path: tuple, *, branch_tol: float) -> np.ndarray:
    """Per input, in lexicographic order, the weight of the run-tree node
    that the outcome path `path` leads to, or 0.0 where the path leaves the
    tree or the input does not enter the plan.

    As in the run tree, a path element that names no child of a measurement
    with one child descends into it without being used up, and None is used
    up by a step with one child or by a Call. Raises PartitionGap where a
    populated label matches no measurement outcome outside the callees the
    path enters; inside one, the gap gives the call's weight if the path ends
    at the callee's root, else 0.0.
    """
    count = 1 << plan.n
    values = np.zeros(count)
    width = _block_width(plan)
    for start in range(0, count, width):
        inputs = np.arange(start, min(count, start + width))
        entered, rows, amps = _entry(plan, inputs, branch_tol)
        inputs = inputs[entered]
        if not len(inputs):
            continue
        found, gap = _leaf(plan.root, rows, amps, inputs, plan.n, path, branch_tol)
        if gap.any():
            bits = _bits(int(inputs[np.argmax(gap)]), plan.n)
            raise PartitionGap(f"input {bits}: a branch state has a label that matches "
                               "no measurement outcome")
        values[inputs] = found
    return values


def _leaf(node, rows: tuple, amps: np.ndarray, inputs: np.ndarray, n: int,
          path: tuple | None, branch_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the weight of the node `path` leads to from `node` (0.0
    off the tree), and whether the column gapped in this plan.

    Every child that has rows is stepped, so that a gap anywhere in the plan
    surfaces, but only a Call on the path is entered. `path` None marks
    columns off the path: only their gaps count. The walk owns `amps`.
    """
    while True:
        weight = _weights(amps)
        live = weight > branch_tol
        if not live.all():
            found = weight if path == () else np.zeros(len(weight))
            gap = np.zeros(len(weight), dtype=bool)
            if live.any():
                found[live], gap[live] = _leaf(node, rows, amps[:, live], inputs[live], n,
                                               path, branch_tol)
            return found, gap
        if isinstance(node, Output):
            return weight if not path else np.zeros(len(weight)), np.zeros(len(weight), dtype=bool)
        if isinstance(node, Call):
            if path:
                weight = _leaf_call(node, rows, amps, weight, _sub_inputs(node, inputs, n),
                                    path[1:] if path[0] is None else path, branch_tol)
            return weight, np.zeros(len(weight), dtype=bool)
        if path == ():
            # The path ends here; the rest of the plan is walked for its gaps.
            return weight, _leaf(node, rows, amps, inputs, n, None, branch_tol)[1]
        if isinstance(node, MeasureStep):
            return _leaf_measure(node, rows, amps, inputs, n, path, branch_tol)
        rows, amps = _advance(node, rows, amps, inputs, n, weight)
        if path and path[0] is None:
            path = path[1:]
        node = node.child


def _leaf_measure(node: MeasureStep, rows: tuple, amps: np.ndarray, inputs: np.ndarray,
                  n: int, path: tuple | None, branch_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """`_leaf` at a measurement: the child `path[0]` names (a lone child when
    none does) is on the path, the others are walked with path None, and a
    column that gaps is skipped in later children."""
    gap_rows, clash, branches, _ = _measure_maps(node, rows, n)
    for r, message in clash:
        if amps[r].any():
            raise ValueError(message)
    gap = (amps[gap_rows] != 0).any(axis=0) if len(gap_rows) else np.zeros(len(inputs), dtype=bool)
    target, rest = None, None
    if path:
        target = next((k for k, (oid, _, _) in enumerate(node.children) if oid == path[0]), None)
        if target is not None:
            rest = path[1:]
        elif len(branches) == 1:
            target, rest = 0, path
    found = np.zeros(len(inputs))
    for k, branch in enumerate(branches):
        if not len(branch[1]):
            continue
        cols = np.flatnonzero(~gap) if gap.any() else None
        if cols is not None and not len(cols):
            break
        value, child_gap = _leaf(branch[0], branch[2], _branch(branch, amps, cols),
                                 inputs if cols is None else inputs[cols], n,
                                 rest if k == target else None, branch_tol)
        at = slice(None) if cols is None else cols
        if k == target:
            found[at] = value
        gap[at] |= child_gap
    return found, gap


def _leaf_call(node: Call, rows: tuple, amps: np.ndarray, weight: np.ndarray,
               sub_inputs: np.ndarray, rest: tuple, branch_tol: float) -> np.ndarray:
    """`_leaf` through a Call on the path: the callee runs from the call's
    state, or from |0> at the call's weight when it has no contract, a block
    of its width at a time. A column that gaps in the callee gives the call's
    weight if the path ends at the callee's root, else 0.0."""
    sub = node.plan
    if sub.contract is None:
        rows, amps = (ZERO_LABEL,), np.sqrt(weight)[None, :]
    found = np.zeros(len(weight))
    width = _block_width(sub)
    for start in range(0, len(weight), width):
        cols = slice(start, start + width)
        value, gap = _leaf(sub.root, rows, amps[:, cols], sub_inputs[cols], sub.n, rest, branch_tol)
        found[cols] = np.where(gap, weight[cols] if rest == () else 0.0, value)
    return found


# ---------------------------------------------------------------------------
# Exit amplitudes (the degree audit)
# ---------------------------------------------------------------------------


def exit_amplitudes(plan: Plan) -> tuple[list[tuple], dict[tuple, int], list[np.ndarray]]:
    """The amplitudes `plan` holds at its Output and Call exits on all 2^n
    inputs, without descending into callees.

    The walk starts from the raw, unnormalized contract state (|0> without a
    contract), prunes nothing and descends every measurement child. Returns
    the (outcome path, label) keys that are nonzero on some input, in the
    order first reached; the queries spent on each path; and the table of
    values, one row per key and one column per input. The table comes in
    chunks of rows of at most BLOCK_BYTES each, so that it grows without
    being copied. Raises PartitionGap or ValueError where a populated label
    matches no or two measurement outcomes, and ValueError for a contract
    column whose norm exceeds _MAX_NORM.
    """
    count = 1 << plan.n
    chunk_rows = max(1, BLOCK_BYTES // (8 * count))
    chunks: list[np.ndarray] = []
    slot: dict[tuple, int] = {}
    queries_of: dict[tuple, int] = {}
    width = _block_width(plan)
    for start in range(0, count, width):
        inputs = np.arange(start, min(count, start + width))
        if plan.contract is None:
            rows, amps = (ZERO_LABEL,), np.ones((1, len(inputs)), dtype=_DTYPE)
        else:
            rows = plan.contract.labels
            amps, norm_sq = contract_columns(plan.contract, inputs)
            if norm_sq.max() > _MAX_NORM ** 2:
                bits = _bits(int(inputs[np.argmax(norm_sq)]), plan.n)
                raise ValueError(f"input {bits}: contract norm {np.sqrt(norm_sq.max()):.3g} "
                                 f"exceeds {_MAX_NORM:.3g}")
        for path, queries, labels, block in _exits(plan.root, rows, amps, inputs, plan.n, (), 0):
            queries_of[path] = queries
            for r in np.flatnonzero(block.any(axis=1)):
                k = slot.setdefault((path, labels[r]), len(slot))
                if k == len(chunks) * chunk_rows:
                    chunks.append(np.zeros((chunk_rows, count)))
                chunks[k // chunk_rows][k % chunk_rows, start:start + len(inputs)] = block[r]
    if chunks:
        chunks[-1] = chunks[-1][:len(slot) - (len(chunks) - 1) * chunk_rows]
    return list(slot), queries_of, chunks


def _exits(node, rows: tuple, amps: np.ndarray, inputs: np.ndarray, n: int,
           path: tuple, queries: int):
    """Yield (outcome path, queries, row labels, amplitudes) at every Output
    or Call exit below `node`. The walk owns `amps`."""
    while not isinstance(node, (Output, Call)):
        if isinstance(node, MeasureStep):
            gap_rows, clash, branches, _ = _measure_maps(node, rows, n)
            for r, message in clash:
                if amps[r].any():
                    raise ValueError(message)
            for r in gap_rows:
                if amps[r].any():
                    bits = _bits(int(inputs[np.flatnonzero(amps[r])[0]]), n)
                    raise PartitionGap(f"input {bits}: label {rows[r]!r} matches no "
                                       "measurement outcome")
            for (oid, _, _), branch in zip(node.children, branches):
                yield from _exits(branch[0], branch[2], _branch(branch, amps, None), inputs, n,
                                  path + (oid,), queries)
            return
        rows, amps = _advance(node, rows, amps, inputs, n, None)
        queries += isinstance(node, QueryStep)
        node = node.child
    yield path, queries, rows, amps


# ---------------------------------------------------------------------------
# Column helpers
# ---------------------------------------------------------------------------


def _weights(amps: np.ndarray) -> np.ndarray:
    """Squared column norms, without a squared temporary."""
    return np.einsum("ij,ij->j", amps, amps)


def _zero_small(amps: np.ndarray) -> None:
    """Zero every |a| <= STORE_TOL in place."""
    np.multiply(amps, np.abs(amps) > STORE_TOL, out=amps)


def _real(values, what: str) -> np.ndarray:
    """`values` as a float64 array, for a walk in real arithmetic. Raises
    ValueError naming `what` on any nonzero imaginary part."""
    array = np.asarray(values)
    if np.iscomplexobj(array):
        if array.imag.any():
            raise ValueError(f"{what} has a complex amplitude; the batched walker is real")
        array = array.real
    return array.astype(_DTYPE)


def _bits(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> (n - 1 - k)) & 1 for k in range(n))


def _cache(obj) -> dict:
    """Compile cache kept on a frozen plan object, so it lives as long as the
    plan does."""
    cache = obj.__dict__.get("_batch_cache")
    if cache is None:
        cache = obj.__dict__["_batch_cache"] = {}
    return cache


def _block_width(plan: Plan) -> int:
    """Input columns per block for the plan's label count: every label a
    step of the plan, not of its callees, can write."""
    cache = _cache(plan)
    width = cache.get("width")
    if width is None:
        labels: set = set()
        stack = [plan.root]
        while stack:
            node = stack.pop()
            if isinstance(node, MeasureStep):
                for _, rewrite, child in node.children:
                    labels.update(rewrite.values() if rewrite else ())
                    stack.append(child)
            elif not isinstance(node, (Output, Call)):
                if isinstance(node, PrepareState):
                    labels.update(node.state.support())
                elif isinstance(node, GadgetStep):
                    for binding, _ in node.applications:
                        labels.update(binding.to_gadget)
                stack.append(node.child)
        width = cache["width"] = _columns(len(labels))
    return width


def _columns(rows: int) -> int:
    """Columns of `rows` amplitudes each, with their summaries, that fit in
    BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (rows * np.dtype(_DTYPE).itemsize + _COLUMN_BYTES))


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


def _advance(node, rows: tuple, amps: np.ndarray, inputs: np.ndarray, n: int,
             weight: np.ndarray | None) -> tuple[tuple, np.ndarray]:
    """The rows and amplitudes after a GadgetStep, QueryStep or
    PrepareState. `weight` is the columns' squared norms, which a
    PrepareState carries over, or None to compute them there."""
    if isinstance(node, GadgetStep):
        return _gadget(node, rows, amps)
    if isinstance(node, QueryStep):
        _query(node, rows, amps, inputs, n)
        return rows, amps
    if isinstance(node, PrepareState):
        return _prepare(node, _weights(amps) if weight is None else weight)
    raise TypeError(f"unknown plan node {node!r}")


def _prepare(node: PrepareState, weight: np.ndarray) -> tuple[tuple, np.ndarray]:
    cache = _cache(node)
    prepared = cache.get("state")
    if prepared is None:
        items = node.state.items()
        prepared = cache["state"] = (tuple(l for l, _ in items),
                                     _real([a for _, a in items], "PrepareState state"))
    rows, vec = prepared
    amps = np.multiply.outer(vec, np.sqrt(weight))
    _zero_small(amps)
    return rows, amps


def _gadget(node: GadgetStep, rows: tuple, amps: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Apply a gadget step's bindings. Bindings on pairwise disjoint labels
    apply in one pass; otherwise one after another, as `apply_bindings`
    does."""
    cache = _cache(node)
    stages = cache.get("stages")
    if stages is None:
        apps = node.applications
        owned = [label for binding, _ in apps for label in binding.to_gadget]
        stages = cache["stages"] = (apps,) if len(owned) == len(set(owned)) else tuple((a,) for a in apps)
    for k, apps in enumerate(stages):
        maps = cache.get((k, rows))
        if maps is None:
            maps = cache[(k, rows)] = _Bindings(apps, rows)
        rows, amps = maps.apply(amps)
    return rows, amps


class _Bindings:
    """Disjoint bindings compiled for one row tuple: the untouched rows, then
    one (source rows, matrix, output slice) group per gadget, direction and
    set of gadget labels present, each group's outputs in gadget order.

    A gadget row whose entries over the present labels sum to at most
    _NEGLIGIBLE in magnitude is left out. The entry it would produce is at
    most _NEGLIGIBLE times the column's norm, so it would be zeroed as at
    most STORE_TOL anyway while that norm is at most _MAX_NORM (100).
    Gadgets, queries and measurements do not raise a column's norm (a
    rewrite that merges k labels can, by at most sqrt(k)). Summary walks
    start from normalized states; the exit walk starts from raw contract
    columns and checks their norms against _MAX_NORM.
    """

    __slots__ = ("rows", "keep", "groups")

    def __init__(self, apps, rows: tuple):
        index = {label: r for r, label in enumerate(rows)}
        touched = {label for binding, _ in apps for label in binding.to_gadget}
        keep = [r for r, label in enumerate(rows) if label not in touched]
        grouped: dict[tuple, list] = {}
        for binding, inverse in apps:
            position = binding.gadget.position
            src = sorted((position[g], index[label]) for label, g in binding.to_gadget.items()
                         if label in index)
            if src:
                key = (id(binding.gadget), inverse, tuple(p for p, _ in src))
                grouped.setdefault(key, []).append((binding, inverse, [r for _, r in src]))
        out_rows = [rows[r] for r in keep]
        self.groups = []
        for (_, _, positions), members in grouped.items():
            gadget = members[0][0].gadget
            matrix = _real(gadget.matrix_h if members[0][1] else gadget.matrix,
                           f"gadget {gadget.name!r}")[:, list(positions)]
            live = np.abs(matrix).sum(axis=1) > _NEGLIGIBLE
            start = len(out_rows)
            for binding, _, _ in members:
                out_rows.extend(compress(binding.global_order, live))
            self.groups.append((np.array([r for _, _, r in members], dtype=np.intp),
                                np.ascontiguousarray(matrix[live]), start, len(out_rows)))
        self.rows = tuple(out_rows)
        self.keep = np.array(keep, dtype=np.intp)

    def apply(self, amps: np.ndarray) -> tuple[tuple, np.ndarray]:
        out = np.empty((len(self.rows), amps.shape[1]), dtype=_DTYPE)
        out[:len(self.keep)] = amps[self.keep]
        for src, matrix, start, stop in self.groups:
            np.matmul(matrix, amps[src], out=out[start:stop].reshape(len(src), len(matrix), -1))
        _zero_small(out)
        return self.rows, out


def _query(node: QueryStep, rows: tuple, amps: np.ndarray, inputs: np.ndarray, n: int) -> None:
    """Multiply each row that carries a variable index by that variable's
    +-1 value, per column, in place."""
    cache = _cache(node)
    maps = cache.get((n, rows))
    if maps is None:
        queried, shifts, bad = [], [], []
        for r, label in enumerate(rows):
            i = node.extractor(label)
            if i is None:
                continue
            if 1 <= i <= n:
                queried.append(r)
                shifts.append(n - i)
            else:
                bad.append((r, f"query index {i} outside 1..{n} for label {label!r}"))
        maps = cache[(n, rows)] = (np.array(queried, dtype=np.intp),
                                   np.array(shifts, dtype=np.int64)[:, None], bad)
    queried, shifts, bad = maps
    for r, message in bad:
        if amps[r].any():
            raise IndexOutOfRange(message)
    if len(queried):
        signs = 1.0 - 2.0 * ((inputs[None, :] >> shifts) & 1)
        amps[queried] *= signs


def _measure_maps(node: MeasureStep, rows: tuple, n: int):
    """Rows that match no outcome; rows that match two, with the error
    `classify` gives them; per child, its rows, its labels after the
    rewrite, and where each row lands when the rewrite merges labels; and
    the groups of adjacent children that call one plan without merging
    labels, keyed by their first member, in a plan of `n` variables."""
    cache = _cache(node)
    maps = cache.get((n, rows))
    if maps is not None:
        return maps
    slot = {oid: k for k, (oid, _, _) in enumerate(node.children)}
    members: list[list[int]] = [[] for _ in node.children]
    gap, clash = [], []
    for r, label in enumerate(rows):
        try:
            members[slot[node.partition.classify(label)]].append(r)
        except PartitionGap:
            gap.append(r)
        except ValueError as error:
            clash.append((r, str(error)))
    branches = []
    for (_, rewrite, child), idx in zip(node.children, members):
        labels = [rows[r] for r in idx]
        target = None
        if rewrite is not None:
            labels = [rewrite.get(label, label) for label in labels]
            unique = list(dict.fromkeys(labels))
            if len(unique) < len(labels):
                where = {label: t for t, label in enumerate(unique)}
                target = np.array([where[label] for label in labels], dtype=np.intp)
                labels = unique
        branches.append((child, np.array(idx, dtype=np.intp), tuple(labels), target))

    def callee(k):
        child, _, _, target = branches[k]
        return id(child.plan) if isinstance(child, Call) and target is None else None

    groups = {}
    for plan_id, run in groupby(range(len(branches)), callee):
        ks = list(run)
        if plan_id is None or len(ks) < 2:
            continue
        union = tuple(dict.fromkeys(label for k in ks for label in branches[k][2]))
        where = {label: u for u, label in enumerate(union)}
        # sources[u, m]: the row holding union label u for member m, or the
        # zero row past the end
        sources = np.full((len(union), len(ks)), len(rows), dtype=np.intp)
        for m, k in enumerate(ks):
            for r, label in zip(branches[k][1], branches[k][2]):
                sources[where[label], m] = r
        # Each member's rows, then the zero row, so that no member is empty
        # when their weights are summed.
        order = np.concatenate([np.append(branches[k][1], len(rows)) for k in ks])
        starts = np.cumsum([0] + [len(branches[k][1]) + 1 for k in ks[:-1]])
        groups[ks[0]] = (branches[ks[0]][0].plan, union, len(ks), sources, order, starts,
                         _runs([branches[k][0] for k in ks], n))
    maps = cache[(n, rows)] = (np.array(gap, dtype=np.intp), clash, branches, groups)
    return maps


def _branch(branch: tuple, amps: np.ndarray, cols) -> np.ndarray:
    """A measurement child's rows of `amps`, on the columns `cols` (all when
    None), with the labels its rewrite merges added together."""
    _, members, labels, target = branch
    part = amps[members] if cols is None else amps[np.ix_(members, cols)]
    if target is None:
        return part
    merged = np.zeros((len(labels), part.shape[1]), dtype=_DTYPE)
    np.add.at(merged, target, part)
    _zero_small(merged)
    return merged


def _runs(calls, n: int) -> tuple:
    """The wires of `calls` from a plan of `n` variables, compiled for
    `_route`: a common left shift; per run, a right shift (None for none) and
    a mask, one row per call; and the constant bits (None when none and some
    run). A run is the callee bits at one distance from their parent bits, so
    dropping wires take one to three runs, and no call more runs than bits."""
    wired = []
    for call in calls:
        runs: dict[int, int] = {}
        bits = 0
        for k, (kind, value) in enumerate(call.wires):
            bit = call.plan.n - 1 - k
            if kind == "var":
                # Parent variable `value` is bit n - value of a parent input.
                runs[bit - n + value] = runs.get(bit - n + value, 0) | 1 << bit
            else:
                bits |= value << bit
        wired.append((sorted(runs.items(), reverse=True), bits))
    left = max([0] + [distance for runs, _ in wired for distance, _ in runs])
    steps = []
    # Run r of every call, a call with fewer runs adding nothing.
    for column in zip_longest(*(runs for runs, _ in wired), fillvalue=(left, 0)):
        distances, masks = zip(*column)
        shift = left - np.array(distances, dtype=np.int64)[:, None]
        steps.append((shift if shift.any() else None, np.array(masks, dtype=np.int64)[:, None]))
    const = np.array([[bits] for _, bits in wired], dtype=np.int64)
    return left, steps, const if const.any() or not steps else None


def _route(inputs: np.ndarray, runs: tuple) -> np.ndarray:
    """The callee inputs of the parent inputs `inputs` through wires compiled
    by `_runs`, one row per call: one shift, mask and or per run."""
    left, steps, const = runs
    source = inputs << left if left else inputs
    out = None if const is None else np.repeat(const, len(inputs), axis=1)
    for shift, mask in steps:
        part = (source if shift is None else source >> shift) & mask
        out = part if out is None else np.bitwise_or(out, part, out=out)
    return out


def _sub_inputs(node: Call, inputs: np.ndarray, n: int) -> np.ndarray:
    """The callee's input for each column of a plan of `n` variables."""
    cache = _cache(node)
    runs = cache.get(n)
    if runs is None:
        runs = cache[n] = _runs([node], n)
    return _route(inputs, runs)[0]


# ---------------------------------------------------------------------------
# Input contracts
# ---------------------------------------------------------------------------


def contract_columns(contract: Contract, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The contract states of `inputs` as columns over `contract.labels`, and
    their squared norms: the contract's matrix over (1, xhat) times the
    inputs' +-1 encodings. The matrix is compiled at the first call and kept
    on the contract; a complex contract raises ValueError."""
    cache = _cache(contract)
    matrix = cache.get("matrix")
    if matrix is None:
        entries = [(c,) + row for c, row in zip(contract.constants, contract.coeffs)]
        matrix = _real(entries, f"input contract of a {contract.n}-variable plan")
        matrix = cache["matrix"] = matrix.reshape(len(contract.labels), contract.n + 1)
    n = contract.n
    xhat = np.ones((n + 1, len(inputs)))
    xhat[1:] -= 2 * ((inputs[None, :] >> np.arange(n - 1, -1, -1)[:, None]) & 1)
    kappa = matrix @ xhat
    _zero_small(kappa)
    return kappa, _weights(kappa)


def _align(contract: Contract, rows: tuple) -> tuple:
    """The contract's labels found in the state rows `rows`, the state rows
    that hold them, and the contract's labels outside `rows`."""
    cache = _cache(contract)
    maps = cache.get(rows)
    if maps is None:
        where = {label: r for r, label in enumerate(rows)}
        labels = contract.labels
        inside = [k for k, label in enumerate(labels) if label in where]
        maps = cache[rows] = (
            np.array(inside, dtype=np.intp),
            np.array([where[labels[k]] for k in inside], dtype=np.intp),
            np.array([k for k, label in enumerate(labels) if label not in where], dtype=np.intp),
        )
    return maps


def _least_squares(contract: Contract, kappa: np.ndarray, k_norm_sq: np.ndarray,
                   rows: tuple, amps: np.ndarray):
    """Per column, the best c with state ~ c * kappa and the norm of the
    stored state - c * kappa, as the reference `least_squares_match` of
    tests/reference.py computes them."""
    inside, at, outside = _align(contract, rows)
    overlap = (kappa[inside] * amps[at]).sum(axis=0)
    coeff = overlap / np.where(k_norm_sq > 0.0, k_norm_sq, 1.0)
    mismatch = amps.copy()
    mismatch[at] -= coeff * kappa[inside]
    beyond = -coeff * kappa[outside]
    _zero_small(mismatch)
    _zero_small(beyond)
    residual = np.sqrt(_weights(mismatch) + _weights(beyond))
    return coeff, residual
