"""Input-batched summary simulation: one plan walk for a block of inputs.

The state of a block is a tuple of row labels and one float64 amplitude
matrix, rows by input columns. Each column follows the per-input semantics of
`verifier._step` and of the summary executor in tests/reference.py, which
stay the reference:

- every |a| <= STORE_TOL is zeroed after each step;
- a column is pruned at node entry when its weight is <= branch_tol;
- the deepest query count counts only branches that carry mass (-1 here
  marks a column with no mass), and masses merge in branch order;
- a column that carries amplitude on a label whose outcome names no child
  of its measurement (a *gap*) stops there, as output -1 with its weight and
  query depth at that measurement;
- a Call whose state is proportional to the callee's input contract reads
  the callee's summary from a per-plan memo, scaled by |c|^2 ||kappa||^2.
  Other columns walk the callee as one batch.

The memos fill on full blocks (`_Walker`). The walk of a top-level block
issues every memo read of its call tree before any callee runs; a read that
misses leaves a pending summary. Once some plan waits on at least its own
block width of read inputs, or after the last top-level block, each plan
read that way runs once on the union of its missing inputs, callers before
callees, and the pending summaries resolve, callees first and then the
waiting top-level blocks in block order, each measurement folding its
branches in branch order.

A contract-free plan whose root calls a contract-free plan (a padding or
renaming reduction) enters it from |0> with weight 1.0 and no queries, so it
shares its callee's memo; the exit walk still walks such plans. A call's
wires compile once into bit runs: a callee input takes one shift, mask and or
per run.

Every amplitude the builders make is real, so the walk is real too: gadget
matrices, prepared states and contract matrices compile to float64 (`_real`),
and one with a nonzero imaginary part raises ValueError. There is no complex
path; the per-input reference keeps complex amplitudes.

Inputs are numbered by their bits read as a binary number, first bit most
significant, which is the order of `itertools.product((0, 1), repeat=n)`.

Gadget steps, whose bindings touch disjoint labels, are one gather, one
matrix product and one scatter per group of bindings that share a gadget.
Every compiled map is found, made on a miss, and kept in one place
(`_compiled`), in the compile cache of the plan object it belongs to: a
gadget step's per row-label tuple on its applications, a query's and a
measurement's per (n, row-label tuple) and a call's wires per n on the node,
a prepared state on its node, and a contract's matrix and its alignment to
each row-label tuple on the contract. An override build holds its default
build's measurement and copies of its other steps that share their maps
(`plans._shared`), so it compiles only its rotation passes, each only its
group matrices and live rows: its label layout comes from the `layouts` its
applications share with every pass of their shape (`_compile`). Maps
compile at a plan's first walk; its label count and height (`Plan`) are set
when it is built.

The summary of a block is one (5, columns) float64 matrix (`_Sums`): three
rows of total mass per output, which branches merge by adding, and two rows
merged by maximum (deepest query count, call residual).
Adjacent sibling branches of a measurement that call one plan run as one
call over all their live columns, which reads a contract-free callee's
memo once, and each live column's summary folds straight into its
measurement column, in member order: the totals add one at a time
(`np.add.at`) and the other rows take the maximum (`np.maximum.at`). A
member column without weight would fold a vacuous summary, which changes
no bit, so it is left out.

An input contract is affine in the +-1 input, so the contract states of a
block are one product of its matrix over (1, xhat), compiled at the first
walk and kept on the contract, with the block's +-1 encodings; they are
evaluated wherever a block needs them, and nothing is kept per input. The
memos belong to one `summarize` call and are freed when it returns; the
compiled maps stay on plan nodes and gadget applications, which plans of
one shape share.

`exit_amplitudes` takes the same steps for the degree audit, but stops at a
plan's exits: it starts from the raw contract states, prunes nothing and
never enters a callee. At a measurement, each run of adjacent children that
exit without merging labels is put as one block, with a constant number of
numpy calls however many exits it holds: the rows that carry amplitude are
taken into the table (`_Table`) in one `np.take`, in child order, keyed by
their outcome path and label. Other children are walked one at a time.

`leaf_values` reads a leaf polynomial, the weight at the end of one outcome
path of the run tree, as the output-1 mass of `summarize`, memos and
contract matching included, on the plan marked along the path (`_mark`).
Since a gap ends only its own branch, the steps off the path are cut.
"""

from __future__ import annotations

from itertools import compress, groupby, zip_longest
from typing import Callable

import numpy as np

from .errors import IndexOutOfRange, PartitionGap
from .plans import Call, Contract, GadgetStep, MeasureStep, Output, Plan, PrepareState, QueryStep, _shared
from .state_core import STORE_TOL, ZERO_LABEL

# Bytes a block of input columns may take (512 KiB): a walk of a plan takes
# BLOCK_BYTES // (`Plan.label_count` * _DTYPE's item size (8) +
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
    """Per-column summary of a run, packed in one (5, columns) float64
    matrix `data`. Rows 0-2 are the total mass per output (-1, 0, 1), which
    branches merge by adding. Rows 3-4 merge by maximum: the deepest query
    count over branches with mass (-1 when no branch carries mass) and the
    worst call residual. The named fields are views of their rows."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = data

    total = property(lambda self: self.data[:3])
    maxq = property(lambda self: self.data[3])
    resid = property(lambda self: self.data[4])

    @classmethod
    def vacuous(cls, width: int) -> _Sums:
        data = np.zeros((5, width))
        data[3] = -1.0
        return cls(data)

    @classmethod
    def output(cls, bit: int, weight: np.ndarray, queries: int) -> _Sums:
        data = np.zeros((5, len(weight)))
        data[bit + 1] = weight
        data[3] = queries
        return cls(data)

    def take(self, cols) -> _Sums:
        return _Sums(self.data[:, cols])

    def put(self, cols, other: _Sums) -> None:
        self.data[:, cols] = other.data

    def merge(self, other: _Sums, cols: np.ndarray | None = None) -> None:
        """Fold a branch into these columns: `other` holds one column per
        column here or, with `cols`, one per entry of `cols`, the column it
        folds into. A column may recur in `cols` (a call group's members);
        its totals then add in the order of `cols`, one at a time from the
        current sums, since `ufunc.at` adds unbuffered, index by index."""
        mine = self.data
        if cols is None:
            mine[:3] += other.data[:3]
            np.maximum(mine[3:], other.data[3:], out=mine[3:])
            return
        # One row at a time: `ufunc.at` on a 1-d row takes numpy's fast path.
        for r in range(3):
            np.add.at(mine[r], cols, other.data[r])
        for r in (3, 4):
            np.maximum.at(mine[r], cols, other.data[r])


# A summary that waits on memo reads: it returns the summary once `_Walker.fill`
# has filled the memos.
_Pending = Callable[[], _Sums]


class _Memo:
    """Summaries of one plan by input, kept in the order they were added, so
    a plan that calls reach at few inputs costs little."""

    def __init__(self, n: int):
        self.slot = np.full(1 << n, -1, dtype=np.int32)
        self.sums = _Sums.vacuous(16)
        self.size = 0

    def missing(self, inputs: np.ndarray) -> np.ndarray:
        """The distinct inputs without a summary, in increasing order: from a
        table by input where it takes no more bytes than `inputs`, else sorted."""
        fresh = inputs[self.slot[inputs] < 0]
        if len(self.slot) > inputs.nbytes:
            return np.unique(fresh)
        needed = np.zeros(len(self.slot), dtype=bool)
        needed[fresh] = True
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
    not vanish) and their summaries. The memos fill once some plan waits on
    a block width of read inputs (`_Walker.due`), or after the last block;
    the blocks walked since the last fill resolve after it, in block order.
    """
    walker = _Walker(tol, branch_tol)
    count = 1 << plan.n
    width = _columns(plan.label_count)
    if width >= count:  # one block: its summary is the table
        entered, part = walker.run(plan, np.arange(count))
        walker.fill()
        return entered, _done(part)
    entered = np.zeros(count, dtype=bool)
    sums = _Sums.vacuous(count)
    waiting = []
    for start in range(0, count, width):
        block = np.arange(start, min(count, start + width))
        entered[block], part = walker.run(plan, block)
        waiting.append((block, part))
        if start + width >= count or walker.due():
            walker.fill()
            for block, part in waiting:
                sums.put(block, _done(part))
            waiting = []
    return entered, sums


class _Walker:
    """Walks blocks of inputs through plans, and fills the memos of the plans
    they call. A memo read whose inputs all have summaries (as a read of no
    inputs has) returns them; any other records its inputs as demand on the
    plan and returns a `_Pending` summary, and so does every walk that waits
    on one until `fill` runs."""

    def __init__(self, tol: float, branch_tol: float):
        self.tol = tol
        self.branch_tol = branch_tol
        # id(plan) -> (plan, its summaries by input)
        self.memos: dict[int, tuple[Plan, _Memo]] = {}
        # id(plan) -> (plan, the inputs of its reads that found one missing)
        self.demand: dict[int, tuple[Plan, list[np.ndarray]]] = {}

    def due(self) -> bool:
        """Whether some plan waits on at least its own block width of read
        inputs, so that a fill would run it on full blocks."""
        return any(sum(map(len, reads)) >= _columns(plan.label_count) for plan, reads in self.demand.values())

    def fill(self) -> None:
        """Run every plan with demand once, on the sorted union of its missing
        inputs, a block at a time, then resolve those runs, callees first.

        A plan runs only when no plan with demand can call it: the highest
        first (`Plan.height`). Its runs' reads add demand on lower plans only,
        so no plan gains demand after it has run."""
        runs = []
        while self.demand:
            plan, reads = max(self.demand.values(), key=lambda entry: entry[0].height)
            del self.demand[id(plan)]
            memo = self.memos[id(plan)][1]
            missing = memo.missing(np.concatenate(reads))
            width = _columns(plan.label_count)
            for start in range(0, len(missing), width):
                block = missing[start:start + width]
                runs.append((memo, block, self.run(plan, block)[1]))
        for memo, block, sums in reversed(runs):
            memo.add(block, _done(sums))

    def run(self, plan: Plan, inputs: np.ndarray) -> tuple[np.ndarray, _Sums | _Pending]:
        """Walk `plan` on a block of its inputs from its entry state, the
        normalized contract state or |0> without a contract, and return
        which inputs enter it: those whose contract state does not vanish."""
        if plan.contract is None:
            rows, amps = (ZERO_LABEL,), np.ones((1, len(inputs)), dtype=_DTYPE)
            return np.ones(len(inputs), dtype=bool), self.walk(plan.root, rows, amps, inputs, plan.n, 0)
        kappa, norm_sq = contract_columns(plan.contract, inputs)
        entered = norm_sq > self.branch_tol
        if not entered.any():
            return entered, _Sums.vacuous(len(inputs))
        # Times the reciprocal norm, as `LabeledState.normalized` does.
        amps = kappa[:, entered] * (1.0 / np.sqrt(norm_sq[entered]))
        _zero_small(amps)
        part = self.walk(plan.root, plan.contract.labels, amps, inputs[entered], plan.n, 0)
        return entered, _assemble(len(inputs), [(entered, part)])

    def memo(self, plan: Plan, inputs: np.ndarray) -> _Sums | _Pending:
        """Summaries of `plan` run from its entry state, one per column: at
        once when every input has one, else pending on `fill`, which runs the
        plan on the inputs no earlier read has reached. A plan that only
        calls a plan, both contract-free, has its callee's summaries."""
        while plan.contract is None and isinstance(plan.root, Call) and plan.root.plan.contract is None:
            inputs = _sub_inputs(plan.root, inputs, plan.n)
            plan = plan.root.plan
        entry = self.memos.get(id(plan))
        if entry is None:
            entry = self.memos[id(plan)] = (plan, _Memo(plan.n))
        memo = entry[1]
        slots = memo.slot[inputs]
        if not len(slots) or slots.min() >= 0:
            return memo.sums.take(slots)
        self.demand.setdefault(id(plan), (plan, []))[1].append(inputs)
        return lambda: memo.take(inputs)

    def walk(self, node, rows: tuple, amps: np.ndarray, inputs: np.ndarray,
             n: int, queries: int) -> _Sums | _Pending:
        """Summaries of the columns of `amps` from `node` on. `inputs` are the
        columns' inputs to the node's plan, which has `n` variables. The walk
        owns `amps` and may change it in place."""
        weight = _weights(amps)
        while True:
            live = weight > self.branch_tol
            if not live.all():
                pieces = []
                if live.any():
                    pieces.append((live, self.walk(node, rows, amps[:, live], inputs[live], n, queries)))
                if isinstance(node, _End):
                    pieces.append((~live, _Sums.output(1, weight[~live], queries)))
                return _assemble(len(inputs), pieces)
            if isinstance(node, Output):
                return _Sums.output(node.bit, weight, queries)
            if isinstance(node, Call):
                return self.enter(node.plan, rows, amps, weight, _sub_inputs(node, inputs, n), queries)
            if isinstance(node, MeasureStep):
                return self.measure(node, rows, amps, weight, inputs, n, queries)
            rows, amps = _advance(node, rows, amps, inputs, n, weight)
            if isinstance(node, QueryStep):
                queries += 1  # +-1 signs leave every square as it was
            else:
                weight = _weights(amps)
            node = node.child

    def measure(self, node: MeasureStep, rows: tuple, amps: np.ndarray, weight: np.ndarray,
                inputs: np.ndarray, n: int, queries: int) -> _Sums | _Pending:
        """Split the rows by outcome and fold the branches in branch order.
        A column that gaps ends here, as output -1 with its `weight`.

        Adjacent children that call one plan without merging labels run as
        one call over their live columns when the first of them that holds
        a row is reached, and each of those columns' summaries folds into
        its column, in member order.
        """
        gap, branches, groups, _ = _split(node, rows, amps, n)
        if gap.any():
            pieces = [(gap, _Sums.output(-1, weight[gap], queries))]
            if not gap.all():
                rest = ~gap
                pieces.append((rest, self.measure(node, rows, amps[:, rest], weight[rest], inputs[rest],
                                                  n, queries)))
            return _assemble(len(inputs), pieces)
        held = []  # (the columns a part folds into, None for all; the part)
        folded = 0
        for k, (child, members, labels, _) in enumerate(branches):
            if k < folded or child is None or not len(members):
                continue
            group = groups.get(k)
            if group is None:
                held.append((None, self.walk(child, labels, _branch(branches[k], amps), inputs, n, queries)))
            else:
                held += self.call_group(group, rows, amps, inputs, queries)
                folded = group[-1]
        spots = [cols for cols, _ in held]

        def fold(*parts):
            # 0.0 + x is x, so a first part of every column can be the start.
            if spots and spots[0] is None:
                sums, rest = parts[0], zip(spots[1:], parts[1:])
            else:
                sums, rest = _Sums.vacuous(len(inputs)), zip(spots, parts)
            for cols, part in rest:
                sums.merge(part, cols)
            return sums
        return _then(fold, *(part for _, part in held))

    def call_group(self, group: tuple, rows: tuple, amps: np.ndarray,
                   block_inputs: np.ndarray, queries: int) -> list[tuple[np.ndarray, _Sums | _Pending]]:
        """Sibling calls into one plan as one call over all their live
        columns, a member's columns after another's: (measurement columns,
        summary) parts, which `measure` folds in member order. A member
        column without weight is left out, as its summary would be vacuous
        and fold to nothing.

        A callee with a contract takes the members' states a block of
        members at a time. A contract-free callee takes only their weights
        and inputs, so one memo read serves every live member column; that
        needs no bound of its own, since a group's block width falls as its
        member count grows: at exact(n, n/2) a group spans at most 51 k
        member columns up to n = 20 and keeps the live ones, about half of
        them: 26 k at most, which take 2.8 MiB."""
        sub, union, count, sources, order, starts, runs, _ = group
        width = len(block_inputs)
        weight = np.add.reduceat(np.square(amps[order]), starts, axis=0).ravel()
        live = np.flatnonzero(weight > self.branch_tol)
        sub_inputs = _route(block_inputs, runs).ravel()
        padded = None
        if sub.contract is not None:
            padded = np.zeros((len(rows) + 1, width), dtype=_DTYPE)
            padded[:-1] = amps
        step = count if padded is None else max(1, _columns(len(union)) // width)
        parts = []
        for first in range(0, count, step):
            lo, hi = np.searchsorted(live, (first * width, (first + step) * width))
            if lo == hi:
                continue
            part = live[lo:hi]
            joined = None if padded is None else \
                padded[sources[:, first:first + step]].reshape(len(union), -1)[:, part - first * width]
            parts.append((part % width, self.enter(sub, union, joined, weight[part], sub_inputs[part], queries)))
        return parts

    def enter(self, sub: Plan, rows: tuple, amps: np.ndarray | None, weight: np.ndarray,
              sub_inputs: np.ndarray, queries: int) -> _Sums | _Pending:
        """Summaries of a call into `sub` on columns of squared norm `weight`
        whose inputs to `sub` are `sub_inputs`. A callee without a contract
        ignores the states, so `amps` may then be None."""
        if sub.contract is None:
            def scale(sums):
                np.add(sums.maxq, queries, out=sums.maxq, where=sums.maxq >= 0)
                sums.data[:3] *= weight
                return sums
            return _then(scale, self.memo(sub, sub_inputs))

        kappa, k_norm_sq = contract_columns(sub.contract, sub_inputs)
        coeff, residual = _least_squares(sub.contract, kappa, k_norm_sq, rows, amps)
        has_contract = k_norm_sq > self.branch_tol
        residual = np.where(has_contract, residual, np.sqrt(weight))
        matched = has_contract & (residual <= self.tol * np.maximum(1.0, np.sqrt(weight)))
        pieces = []
        if matched.any():
            factor = np.abs(coeff[matched]) ** 2 * k_norm_sq[matched]

            def scale(inner):
                live = (inner.maxq >= 0) & (factor > self.branch_tol)
                inner.maxq[:] = np.where(live, queries + inner.maxq, -1)
                inner.total[:] = np.where(live, inner.total * factor, 0.0)
                np.maximum(inner.resid, residual[matched], out=inner.resid)
                return inner
            pieces.append((matched, _then(scale, self.memo(sub, sub_inputs[matched]))))
        # The other states are outside the callee's input family: walk them
        # through the callee directly, a block at a time.
        rest = np.flatnonzero(~matched)
        width = _columns(sub.label_count)
        for start in range(0, len(rest), width):
            cols = rest[start:start + width]

            def close(inner, cols=cols):
                np.maximum(inner.resid, residual[cols], out=inner.resid)
                return inner
            pieces.append((cols, _then(close, self.walk(sub.root, rows, amps[:, cols], sub_inputs[cols],
                                                          sub.n, queries))))
        return _assemble(len(sub_inputs), pieces)


def _done(sums: _Sums | _Pending) -> _Sums:
    """A summary, pending or not, once the memos it reads are filled."""
    return sums if isinstance(sums, _Sums) else sums()


def _then(finish, *parts):
    """`finish(*parts)` on the summaries `parts`: at once when none is
    pending, else pending on them."""
    for part in parts:
        if not isinstance(part, _Sums):
            return lambda: finish(*map(_done, parts))
    return finish(*parts)


def _assemble(width: int, pieces: list) -> _Sums | _Pending:
    """A summary of `width` columns from (columns, summary) pieces, the
    columns in no piece vacuous; pending when a piece is."""
    for _, part in pieces:
        if not isinstance(part, _Sums):
            return lambda: _assemble(width, [(cols, _done(part)) for cols, part in pieces])
    if len(pieces) == 1 and pieces[0][1].data.shape[1] == width:
        return pieces[0][1]
    sums = _Sums.vacuous(width)
    for cols, part in pieces:
        sums.put(cols, part)
    return sums


# ---------------------------------------------------------------------------
# Leaf values (leaf polynomials)
# ---------------------------------------------------------------------------


def leaf_values(plan: Plan, path: tuple, *, tol: float, branch_tol: float) -> np.ndarray:
    """Per input, in lexicographic order, the weight of the run-tree node
    that the outcome path `path` leads to, or 0.0 where the path leaves the
    tree, passes a gap, or the input does not enter the plan: the output-1
    totals of `summarize` on the plan marked along the path (`_mark`)."""
    root = _mark(plan.root, path)
    marked = _shared(plan, root=Output(0) if root is None else root)
    return summarize(marked, tol=tol, branch_tol=branch_tol)[1].total[2]


class _End(Output):
    """The end of a leaf path: an Output(1) that also reads the columns
    pruned there, as the run tree keeps a pruned node's weight."""


def _mark(node, path: tuple):
    """`node` with the nodes on `path` copied down to an `_End` and each
    child off the path cut to None, which `_Walker.measure` skips; None when
    nothing in it adds mass. As in the run tree, a path element that names
    no child of a measurement with one child descends into it without being
    used up, and None is used up by a step with one child or by a Call."""
    if path == ():
        return _End(1)
    if isinstance(node, Output):
        return None
    if isinstance(node, Call):
        rest = path[1:] if path[0] is None else path
        if not rest:  # the callee's root: the call's weight, 0.0 if pruned
            return Output(1)
        root = _mark(node.plan.root, rest)
        return None if root is None else _shared(node, plan=_shared(node.plan, root=root))
    if isinstance(node, MeasureStep):
        ids = [oid for oid, _, _ in node.children]
        rest = path[1:] if path[0] in ids else path
        return _shared(node, children=tuple(
            (oid, rewrite, _mark(child, rest) if oid == path[0] or len(ids) == 1 else None)
            for oid, rewrite, child in node.children))
    child = _mark(node.child, path[1:] if path[0] is None else path)
    return None if child is None else _shared(node, child=child)


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
    values, one row per key and one column per input, in chunks of rows
    (`_Table`). Raises PartitionGap where a populated label has no outcome
    at a measurement, and ValueError for a contract column whose norm
    exceeds _MAX_NORM.
    """
    count = 1 << plan.n
    table = _Table(count)
    queries_of: dict[tuple, int] = {}
    width = _columns(plan.label_count)
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
        table.cols = slice(start, start + len(inputs))
        _exits(plan.root, rows, amps, inputs, plan.n, (), 0, table, queries_of)
    return list(table.slot), queries_of, table.chunks


def _exits(node, rows: tuple, amps: np.ndarray, inputs: np.ndarray, n: int,
           path: tuple, queries: int, table: _Table, queries_of: dict) -> None:
    """Put the rows that carry amplitude at every Output or Call exit below
    `node` in `table`, and the queries spent on each exit's path in
    `queries_of`, in the order reached. A run of adjacent measurement
    children that exit without merging labels is put as one block. The walk
    owns `amps`."""
    while not isinstance(node, (Output, Call)):
        if isinstance(node, MeasureStep):
            gap, branches, _, segments = _split(node, rows, amps, n)
            if gap.any():
                bits = _bits(int(inputs[np.argmax(gap)]), n)
                raise PartitionGap(f"input {bits}: a branch state has a label that matches "
                                   "no measurement outcome")
            held = None
            for segment in segments:
                if isinstance(segment, int):
                    branch = branches[segment]
                    _exits(branch[0], branch[2], _branch(branch, amps), inputs, n,
                           path + (node.children[segment][0],), queries, table, queries_of)
                    continue
                oids, members, owners, labels = segment
                paths = [path + (oid,) for oid in oids]
                queries_of.update(dict.fromkeys(paths, queries))
                if held is None:
                    held = amps.any(axis=1)
                found = np.flatnonzero(held[members])
                table.put([(paths[owners[i]], labels[i]) for i in found.tolist()], amps, members[found])
            return
        rows, amps = _advance(node, rows, amps, inputs, n, None)
        queries += isinstance(node, QueryStep)
        node = node.child
    queries_of[path] = queries
    found = np.flatnonzero(amps.any(axis=1))
    table.put([(path, rows[r]) for r in found.tolist()], amps, found)


class _Table:
    """The exit walk's value table: one row per key, in the order first
    put, and one column per input, in chunks of `step` rows of at most
    BLOCK_BYTES each. Every chunk but the last is full; the last grows
    (`ndarray.resize`) to the rows found, so the table holds no unused row
    and is never held twice. `cols` is the slice of the inputs being
    walked."""

    def __init__(self, count: int):
        self.count = count
        self.step = max(1, BLOCK_BYTES // (8 * count))
        self.chunks: list[np.ndarray] = []
        self.slot: dict[tuple, int] = {}
        self.cols = slice(0, count)

    def put(self, keys: list, source: np.ndarray, at: np.ndarray) -> None:
        """Write the rows `at` of `source` into the current columns of the
        rows of `keys`, adding each key not yet in the table."""
        if not keys:
            return
        slot, step, chunks = self.slot, self.step, self.chunks
        first = len(slot)
        slots = [slot.setdefault(key, len(slot)) for key in keys]
        total = len(slot)
        if total > first:
            # The chunks hold `first` rows.
            if chunks and len(chunks[-1]) < step:
                chunks[-1].resize((min(step, total - (len(chunks) - 1) * step), self.count))
            while len(chunks) * step < total:
                chunks.append(np.zeros((min(step, total - len(chunks) * step), self.count)))
        if total - first == len(keys):
            # Every key is new: rows first .. total - 1, taken into each
            # chunk they span. In "clip" mode (every index is in range)
            # np.take writes a contiguous `out`, a block of every input,
            # in place; a narrower block goes through a copy of its rows.
            for c in range(first // step, (total - 1) // step + 1):
                lo, hi = max(first, c * step), min(total, (c + 1) * step)
                np.take(source, at[lo - first:hi - first], axis=0, mode="clip",
                        out=chunks[c][lo - c * step:hi - c * step, self.cols])
            return
        slots = np.array(slots, dtype=np.intp)
        for c in set((slots // step).tolist()):
            mine = slots // step == c
            chunks[c][slots[mine] - c * step, self.cols] = source[at[mine]]


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


def _compiled(obj, key, make: Callable[[], object]):
    """What the compile cache of the plan object `obj` keeps under `key`,
    made by `make()` on a miss and kept; the cache lives as long as `obj`."""
    cache = obj.__dict__.get("_batch_cache")
    if cache is None:
        cache = obj.__dict__["_batch_cache"] = {}
    maps = cache.get(key)
    if maps is None:
        maps = cache[key] = make()
    return maps


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
    rows, vec = _compiled(node, "state", lambda: (tuple(l for l, _ in node.state.items()),
                                                  _real([a for _, a in node.state.items()], "PrepareState state")))
    amps = np.multiply.outer(vec, np.sqrt(weight))
    _zero_small(amps)
    return rows, amps


def _gadget(node: GadgetStep, rows: tuple, amps: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Apply a gadget step's bindings, which touch disjoint labels, in one
    pass, with maps kept on its applications: every step that holds them
    shares the maps, which live as long as the applications do. A miss
    compiles them (`_compile`), on a shared layout where there is one."""
    apps = node.applications
    return _compiled(apps, rows, lambda: _compile(apps, rows)).apply(amps)


def _compile(apps, rows: tuple) -> _Bindings:
    """`apps` compiled for `rows`. Applications that share `layouts` (the
    rotation passes of one shape) take the layout kept there for `rows`
    while their gadget's live rows are the layout's, and compile only their
    group matrices; else they lay out afresh, and that layout is kept."""
    layouts = apps.layouts
    if layouts is None:
        return _Bindings(apps, rows)
    like = layouts.get(rows)
    maps = None if like is None else like.rebound(apps)
    if maps is None:
        maps = layouts[rows] = _Bindings(apps, rows)
    return maps


def _group_matrix(gadget, inverse: bool, positions: list) -> tuple[np.ndarray, np.ndarray]:
    """A group's matrix, the gadget's (adjoint's) columns at `positions`,
    and its live-row mask."""
    matrix = _real(gadget.matrix_h if inverse else gadget.matrix, f"gadget {gadget.name!r}")[:, positions]
    return matrix, np.abs(matrix).sum(axis=1) > _NEGLIGIBLE


class _Bindings:
    """Disjoint bindings compiled for one row tuple: the untouched rows, then
    one (source rows, matrix, output slice) group per gadget, direction and
    set of gadget labels present, in the order each first appears, with one
    source row per member and each group's outputs in gadget order. Per
    group, `parts` holds what the layout was made from: the index of its
    first member in the applications, its gadget positions and its live-row
    mask. `_Bindings(apps, rows)` lays out from scratch; `rebound` compiles
    other applications of the same structure on this layout, sharing its
    rows, kept rows, source rows and output slices.

    A gadget row whose entries over the present labels sum to at most
    _NEGLIGIBLE in magnitude is left out. The entry it would produce is at
    most _NEGLIGIBLE times the column's norm, so it would be zeroed as at
    most STORE_TOL anyway while that norm is at most _MAX_NORM (100).
    Gadgets, queries and measurements do not raise a column's norm (a
    rewrite that merges k labels can, by at most sqrt(k)). Summary walks
    start from normalized states; the exit walk starts from raw contract
    columns and checks their norms against _MAX_NORM.
    """

    __slots__ = ("rows", "keep", "groups", "parts")

    def __init__(self, apps, rows: tuple):
        index = {label: r for r, label in enumerate(rows)}
        touched = {label for binding, _ in apps for label in binding.global_order}
        keep = [r for r, label in enumerate(rows) if label not in touched]
        grouped: dict[tuple, list] = {}
        for t, (binding, inverse) in enumerate(apps):
            # A gadget position is the index of its global label in the order.
            src = [(p, index[label]) for p, label in enumerate(binding.global_order) if label in index]
            if src:
                key = (id(binding.gadget), inverse, tuple(p for p, _ in src))
                grouped.setdefault(key, []).append((t, [r for _, r in src]))
        out_rows = [rows[r] for r in keep]
        self.groups, self.parts = [], []
        for (_, inverse, positions), members in grouped.items():
            first = members[0][0]
            matrix, live = _group_matrix(apps[first][0].gadget, inverse, list(positions))
            start = len(out_rows)
            for t, _ in members:
                out_rows.extend(compress(apps[t][0].global_order, live))
            self.groups.append((np.array([r for _, r in members], dtype=np.intp),
                                np.ascontiguousarray(matrix[live]), start, len(out_rows)))
            self.parts.append((first, list(positions), live))
        self.rows = tuple(out_rows)
        self.keep = np.array(keep, dtype=np.intp)

    def rebound(self, apps) -> _Bindings | None:
        """These maps for `apps`, applications of the same structure whose
        gadgets may differ: this layout, each group's matrix compiled from
        its own gadget. None when a group's live rows differ, since its
        outputs would then be other labels."""
        groups = []
        for (src, _, start, stop), (first, positions, live) in zip(self.groups, self.parts):
            binding, inverse = apps[first]
            matrix, mask = _group_matrix(binding.gadget, inverse, positions)
            if not np.array_equal(mask, live):
                return None
            groups.append((src, np.ascontiguousarray(matrix[live]), start, stop))
        maps = object.__new__(type(self))
        maps.rows, maps.keep, maps.groups, maps.parts = self.rows, self.keep, groups, self.parts
        return maps

    def apply(self, amps: np.ndarray) -> tuple[tuple, np.ndarray]:
        out = np.empty((len(self.rows), amps.shape[1]), dtype=_DTYPE)
        kept = len(self.keep)
        out[:kept] = amps[self.keep]
        for src, matrix, start, stop in self.groups:
            np.matmul(matrix, amps[src], out=out[start:stop].reshape(len(src), len(matrix), -1))
        # Every state a step receives is zero-clean, so the kept rows are.
        _zero_small(out[kept:])
        return self.rows, out


def _query(node: QueryStep, rows: tuple, amps: np.ndarray, inputs: np.ndarray, n: int) -> None:
    """Multiply each row that carries a variable index by that variable's
    +-1 value, per column, in place: from a table of the +-1 values of the
    variables the rows query, one table row per variable, which the rows
    that query one variable share."""
    queried, shifts, which, bad = _compiled(node, (n, rows), lambda: _query_maps(node, rows, n))
    for r, message in bad:
        if amps[r].any():
            raise IndexOutOfRange(message)
    if len(queried):
        signs = 1.0 - 2.0 * ((inputs >> shifts) & 1)
        amps[queried] *= signs if which is None else signs[which]


def _query_maps(node: QueryStep, rows: tuple, n: int) -> tuple:
    """The rows that query a variable; per variable they query, its shift in
    an input; which of those each queried row reads, None when each reads
    its own; and (row, message) for each row whose index is outside 1..n."""
    queried, variables, bad = [], {}, []
    for r, label in enumerate(rows):
        i = node.extractor(label)
        if i is None:
            continue
        if 1 <= i <= n:
            queried.append((r, variables.setdefault(i, len(variables))))
        else:
            bad.append((r, f"query index {i} outside 1..{n} for label {label!r}"))
    which = None if len(variables) == len(queried) else np.array([t for _, t in queried], dtype=np.intp)
    return (np.array([r for r, _ in queried], dtype=np.intp),
            np.array([n - i for i in variables], dtype=np.int64)[:, None], which, bad)


def _measure_maps(node: MeasureStep, rows: tuple, n: int):
    """Rows whose outcome names no child; per child, its rows, its labels
    after the rewrite, and where each row lands when the rewrite merges
    labels; the groups of adjacent children that call one plan without
    merging labels, of at least two members that hold a row, each keyed by
    its first such member and ending with the index past its last child, in
    a plan of `n` variables; and the exit walk's segments (`_exit_segments`)."""
    slot = {oid: k for k, (oid, _, _) in enumerate(node.children)}
    members: list[list[int]] = [[] for _ in node.children]
    gap = []
    for r, label in enumerate(rows):
        k = slot.get(node.outcome_of(label))
        (gap if k is None else members[k]).append(r)
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
        # Members that hold no row here add nothing, so the group leaves
        # them out and spans the branches up to its last sibling call.
        held = [k for k in ks if len(branches[k][1])]
        if plan_id is None or len(held) < 2:
            continue
        union = tuple(dict.fromkeys(label for k in held for label in branches[k][2]))
        where = {label: u for u, label in enumerate(union)}
        # sources[u, m]: the row holding union label u for member m, or the
        # zero row past the end
        sources = np.full((len(union), len(held)), len(rows), dtype=np.intp)
        for m, k in enumerate(held):
            for r, label in zip(branches[k][1], branches[k][2]):
                sources[where[label], m] = r
        order = np.concatenate([branches[k][1] for k in held])
        starts = np.cumsum([0] + [len(branches[k][1]) for k in held[:-1]])
        groups[held[0]] = (branches[held[0]][0].plan, union, len(held), sources, order, starts,
                           _runs([branches[k][0] for k in held], n), ks[-1] + 1)
    return np.array(gap, dtype=np.intp), branches, groups, _exit_segments(node, branches)


def _exit_segments(node: MeasureStep, branches: list) -> list:
    """The exit walk's segments of a measurement whose children have the
    branches `branches` (`_measure_maps`), in child order: the index of a
    child it walks on, or a run of adjacent children that exit (Output or
    Call) without merging labels, as their outcome ids, their rows one child
    after another, and per such row the index in the run of its child and
    its label."""
    segments: list = []
    for exits, run in groupby(range(len(branches)), lambda k: isinstance(branches[k][0], (Output, Call))
                              and branches[k][3] is None):
        ks = list(run)
        if not exits:
            segments += ks
            continue
        segments.append((tuple(node.children[k][0] for k in ks),
                         np.concatenate([branches[k][1] for k in ks]),
                         tuple(m for m, k in enumerate(ks) for _ in branches[k][2]),
                         tuple(label for k in ks for label in branches[k][2])))
    return segments


def _split(node: MeasureStep, rows: tuple, amps: np.ndarray, n: int):
    """`_measure_maps` on a block: per column, whether a label whose outcome
    names no child carries amplitude (a gap), and the children's branches,
    call groups and exit segments."""
    gap_rows, branches, groups, segments = _compiled(node, (n, rows), lambda: _measure_maps(node, rows, n))
    if len(gap_rows):
        return (amps[gap_rows] != 0).any(axis=0), branches, groups, segments
    return np.zeros(amps.shape[1], dtype=bool), branches, groups, segments


def _branch(branch: tuple, amps: np.ndarray) -> np.ndarray:
    """A measurement child's rows of `amps`, with the labels its rewrite
    merges added together."""
    _, members, labels, target = branch
    part = amps[members]
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
                if value > n:
                    raise IndexOutOfRange(f"{call.plan.family}: wire var({value}) is past the caller's n={n}")
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
    return _route(inputs, _compiled(node, n, lambda: _runs([node], n)))[0]


# ---------------------------------------------------------------------------
# Input contracts
# ---------------------------------------------------------------------------


def contract_columns(contract: Contract, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The contract states of `inputs` as columns over `contract.labels`, and
    their squared norms: the contract's matrix over (1, xhat) times the
    inputs' +-1 encodings. The matrix is compiled at the first call and kept
    on the contract; a complex contract raises ValueError."""
    n = contract.n
    matrix = _compiled(contract, "matrix", lambda: _real(
        [(c,) + row for c, row in zip(contract.constants, contract.coeffs)],
        f"input contract of a {n}-variable plan").reshape(len(contract.labels), n + 1))
    xhat = np.ones((n + 1, len(inputs)))
    xhat[1:] -= 2 * ((inputs[None, :] >> np.arange(n - 1, -1, -1)[:, None]) & 1)
    kappa = matrix @ xhat
    _zero_small(kappa)
    return kappa, _weights(kappa)


def _align(contract: Contract, rows: tuple) -> tuple:
    """The contract's labels found in the state rows `rows`, the state rows
    that hold them, and the contract's labels outside `rows`."""
    where = {label: r for r, label in enumerate(rows)}
    labels = contract.labels
    inside = [k for k, label in enumerate(labels) if label in where]
    return (np.array(inside, dtype=np.intp),
            np.array([where[labels[k]] for k in inside], dtype=np.intp),
            np.array([k for k, label in enumerate(labels) if label not in where], dtype=np.intp))


def _least_squares(contract: Contract, kappa: np.ndarray, k_norm_sq: np.ndarray,
                   rows: tuple, amps: np.ndarray):
    """Per column, the best c with state ~ c * kappa and the norm of the
    stored state - c * kappa, as the reference `least_squares_match` of
    tests/reference.py computes them."""
    inside, at, outside = _compiled(contract, rows, lambda: _align(contract, rows))
    overlap = (kappa[inside] * amps[at]).sum(axis=0)
    coeff = overlap / np.where(k_norm_sq > 0.0, k_norm_sq, 1.0)
    mismatch = amps.copy()
    mismatch[at] -= coeff * kappa[inside]
    beyond = -coeff * kappa[outside]
    _zero_small(mismatch)
    _zero_small(beyond)
    residual = np.sqrt(_weights(mismatch) + _weights(beyond))
    return coeff, residual
