"""Exhaustive certification of plans and of their polynomials.

`verify_exactness` and the acceptance and leaf polynomials of
`extract_multilinear` run all inputs through a plan at once with the
input-batched summary walk of `batch.py`, which matches calls to their
contracts to `tol` (a leaf polynomial walks the plan marked along its path);
the degree audit `audit_leaf_degrees` runs its exit walk. `_fourier` inverts
the resulting value tables. What stays here looks at one input at a time:

- `_step` holds the per-input semantics of PrepareState, GadgetStep,
  QueryStep and MeasureStep on an unnormalized `LabeledState`;
- `_trace_walk` folds over it into the full run tree of one input
  (`run_on_input`).

The per-input summary executor and leaf walk that the batched walkers are
tested against fold over `_step` too; they live in tests/reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, product
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import IndexOutOfRange, PartitionGap, ZeroWitnessMissing, check_tol
from .gadgets import OracleSpec, oracle_apply
from .plans import (
    Call,
    GadgetStep,
    MeasureStep,
    Output,
    Plan,
    PlanNode,
    PrepareState,
    QueryStep,
    WeightTruth,
)
from .state_core import LabeledState, ZERO_LABEL, apply_bindings, measure

DEFAULT_TOL = 1e-9
DEFAULT_BRANCH_TOL = 1e-9
# The largest n that `verify_exactness` enumerates by default, and the
# largest that `extract_multilinear` and the degree audit invert.
ENUMERATION_LIMIT = 20
EXTRACTION_LIMIT = 14

_SCRATCH = LabeledState({ZERO_LABEL: 1.0})


@dataclass(frozen=True)
class RunTree:
    """One node of a simulated run: branch weight, query depth, children.

    Leaves carry the classical output; unreachable branches are marked and
    carry no children.
    """

    kind: str
    outcome: tuple | None
    norm_sq: float
    queries: int
    output: int | None
    reachable: bool
    children: tuple[RunTree, ...]


@dataclass(frozen=True)
class VerificationReport:
    family: str
    params: tuple[tuple[str, object], ...]
    n: int
    exact: bool
    worst_case_queries: int
    claimed_bound: int
    max_norm_residual: float
    counterexamples: tuple[tuple[tuple[int, ...], int, float], ...]
    inputs_checked: int

    def params_dict(self) -> dict[str, object]:
        return dict(self.params)

    def as_dict(self, *, verbose: bool = False) -> dict[str, object]:
        out: dict[str, object] = {
            "family": self.family,
            "params": self.params_dict(),
            "exact": self.exact,
            "worst_case_queries": self.worst_case_queries,
            "claimed_bound": self.claimed_bound,
            "max_norm_residual": self.max_norm_residual,
        }
        if verbose:
            out["inputs_checked"] = self.inputs_checked
            out["counterexamples"] = [
                {"input": "".join(map(str, bits)), "output": o, "norm_sq": w}
                for bits, o, w in self.counterexamples
            ]
        return out


def _entry_state(plan: Plan, oracle: OracleSpec, branch_tol: float) -> LabeledState | None:
    """Normalized entry state, or None when the contract vanishes (the input
    cannot reach this subroutine at all)."""
    if plan.contract is None:
        return _SCRATCH
    raw = plan.contract(oracle.xhat)
    norm_sq = raw.squared_norm()
    if norm_sq <= branch_tol:
        return None
    return raw.scaled(1.0 / math.sqrt(norm_sq))


def _trace_walk(node: PlanNode, state: LabeledState, bits: tuple[int, ...], oracle: OracleSpec,
                queries: int, outcome: tuple | None, branch_tol: float) -> RunTree:
    """The full run tree from `node` on one input, without memoization. A
    measurement that leaves a populated label without an outcome is a "gap"
    leaf (output -1) in its place."""
    weight = state.squared_norm()
    if weight <= branch_tol:
        return RunTree("pruned", outcome, weight, queries, None, False, ())
    if isinstance(node, Output):
        return RunTree("output", outcome, weight, queries, node.bit, True, ())
    if isinstance(node, Call):
        bits_sub, oracle_sub, entry = _enter(node, state, weight, bits)
        child = _trace_walk(node.plan.root, entry, bits_sub, oracle_sub, queries, None, branch_tol)
        return RunTree("call", outcome, weight, queries, None, True, (child,))
    try:
        branches = _step(node, state, weight, oracle)
    except PartitionGap:
        return RunTree("gap", outcome, weight, queries, -1, True, ())
    kids = tuple([_trace_walk(child, branch, bits, oracle, queries + spent, oid, branch_tol)
                  for oid, child, branch, spent in branches])
    return RunTree(_TRACE_KIND[type(node)], outcome, weight, queries, None, True, kids)


def _enter(node: Call, state: LabeledState, weight: float,
           bits: tuple[int, ...]) -> tuple[tuple[int, ...], OracleSpec, LabeledState]:
    """How a per-input walk enters a Call's callee: the callee's input bits,
    its oracle, and its entry state, which is the call's state, or the
    scratch state |0> at the call's weight for a callee without a
    contract."""
    try:
        bits_sub = tuple(bits[w[1] - 1] if w[0] == "var" else w[1] for w in node.wires)
    except IndexError:
        wire = max(i for kind, i in node.wires if kind == "var")
        raise IndexOutOfRange(f"{node.plan.family}: wire var({wire}) is past the caller's n={len(bits)}") from None
    entry = _SCRATCH.scaled(math.sqrt(weight)) if node.plan.contract is None else state
    return bits_sub, OracleSpec.from_bits(bits_sub), entry


def _step(node: PlanNode, state: LabeledState, weight: float,
          oracle: OracleSpec) -> Sequence[tuple[object, PlanNode, LabeledState, int]]:
    """Branches of one inner plan node, as (outcome id or None, child node,
    branch state, queries spent) tuples.

    This is where the per-input step semantics live. Every per-input walker
    folds over it, and the input-batched walkers of `batch.py` must match it
    column by column, which tests/test_batch.py checks. `weight` is
    the squared norm of `state`, which a PrepareState carries over to its
    prepared state. The helpers are looked up as module globals at call
    time, so they can be wrapped from outside.
    """
    if isinstance(node, GadgetStep):
        return ((None, node.child, apply_bindings(state, node.applications), 0),)
    if isinstance(node, QueryStep):
        return ((None, node.child, oracle_apply(state, oracle, node.extractor), 1),)
    if isinstance(node, MeasureStep):
        parts = measure(state, node.outcome_of, [oid for oid, _, _ in node.children])
        branches = []
        for outcome_id, rewrite, child in node.children:
            branch = parts[outcome_id]
            if rewrite is not None:
                branch = branch.rewritten(rewrite)
            branches.append((outcome_id, child, branch, 0))
        return branches
    if isinstance(node, PrepareState):
        return ((None, node.child, node.state.scaled(math.sqrt(weight)), 0),)
    raise TypeError(f"unknown plan node {node!r}")


_TRACE_KIND = {PrepareState: "prepare", GadgetStep: "gadget", QueryStep: "query",
               MeasureStep: "measure"}


def run_on_input(
    plan: Plan,
    x: Sequence[int],
    *,
    branch_tol: float = DEFAULT_BRANCH_TOL,
) -> RunTree:
    """Simulate one input and return the full branching tree, for inspection
    at small n. Nothing is memoized: every `Call` re-walks its callee, so
    the cost multiplies through nested calls. One input of
    `build_exact_kl(8, 2, 6)` did not finish in 100 s on a 2-vCPU machine,
    while `verify_exactness` checks all 256 inputs of that plan in
    milliseconds. A branch that gaps ends in a "gap" leaf (output -1) in
    place of its measurement. `branch_tol` must be in [0, 1), as in
    `verify_exactness`."""
    _check_branch_tol(branch_tol)
    bits = tuple(x)
    if len(bits) != plan.n:
        raise ValueError(f"plan has n={plan.n}, input has {len(bits)} bits")
    oracle = OracleSpec.from_bits(bits)
    entry = _entry_state(plan, oracle, branch_tol)
    if entry is None:
        return RunTree("vacuous", None, 0.0, 0, None, False, ())
    return _trace_walk(plan.root, entry, bits, oracle, 0, None, branch_tol)


def tree_leaves(tree: RunTree) -> list[RunTree]:
    """All leaves of a run tree that carry an output: reachable Output
    leaves, and "gap" leaves (output -1) where a measurement left a
    populated label without an outcome."""
    if tree.output is not None:
        return [tree]
    out: list[RunTree] = []
    for child in tree.children:
        out.extend(tree_leaves(child))
    return out


def _check_branch_tol(branch_tol: float) -> None:
    if not 0.0 <= branch_tol < 1.0:
        raise ValueError(f"branch_tol must be finite and in [0, 1), got {branch_tol!r}")


def check_limit(name: str, n: int, limit: int, kind: str) -> None:
    """Reject an `n` above `limit`, the largest that the `kind` walk takes."""
    if n > limit:
        raise ValueError(f"{name}={n} exceeds the {kind} limit {limit}")


def _check_tolerances(tol: float, branch_tol: float) -> None:
    check_tol(tol)
    _check_branch_tol(branch_tol)


def _summarize(plan: Plan, *, tol: float, branch_tol: float):
    # The batched walker is imported at the first verification, not with the
    # package: building plans does not need it.
    from .batch import summarize
    return summarize(plan, tol=tol, branch_tol=branch_tol)


def verify_exactness(
    plan: Plan,
    truth: Callable[[tuple[int, ...]], int] | None = None,
    *,
    limit: int = ENUMERATION_LIMIT,
    tol: float = DEFAULT_TOL,
    branch_tol: float = DEFAULT_BRANCH_TOL,
) -> VerificationReport:
    """Run the plan on all 2^n inputs and certify outputs and query counts.

    A counterexample records (input, wrong output, squared norm) for each
    output that disagrees with the truth function and whose branches carry
    total weight above `tol` on that input. Output -1 marks a branch that
    reached a measurement with a populated label that has no outcome, which
    only corrupted plans produce; it is never within `tol`, so any weight on
    it is a counterexample.

    An input whose entry contract vanishes cannot reach the plan and is
    skipped. Every other input must keep its norm: the plan is exact only
    if no input's wrong outputs carry total weight above `tol`, in one
    output or spread over two, no input has weight on output -1, and
    `max_norm_residual` is at most `tol`. `tol` must be finite and >= 0,
    and `branch_tol` in [0, 1).

    A `WeightTruth` (what `weight_truth` makes, and every builder uses) is
    read from a table by Hamming weight for all inputs at once; any other
    truth is called once per checked input, in input order, with the input's
    bit tuple.
    """
    _check_tolerances(tol, branch_tol)
    check_limit("n", plan.n, limit, "enumeration")
    truth_fn = truth if truth is not None else plan.truth
    entered, sums = _summarize(plan, tol=tol, branch_tol=branch_tol)
    checked = np.flatnonzero(entered)
    worst = int(sums.maxq[checked].max(initial=0))
    lost = np.abs(sums.total[:, checked].sum(axis=0) - 1.0)
    max_residual = float(max(lost.max(initial=0.0), sums.resid[checked].max(initial=0.0)))
    if isinstance(truth_fn, WeightTruth):
        table = np.array([w in truth_fn.weights for w in range(plan.n + 1)], dtype=int)
        truths = table[_popcounts(plan.n)[checked]]
    else:
        # The checked inputs' bits are generated in order and not kept.
        truths = np.array([truth_fn(bits) for bits in
                           compress(product((0, 1), repeat=plan.n), entered.tolist())], dtype=int)
    # wrong[r, c]: output r - 1 disagrees with the truth on checked input c
    wrong = np.arange(-1, 2)[:, None] != truths
    masses = np.where(wrong, sums.total[:, checked], 0.0)
    wrong_mass = float(masses.sum(axis=0).max(initial=0.0))
    gapped = bool(masses[0].any())
    # Output -1 is never within tol.
    cols, rows = np.nonzero(masses.T > [0.0, tol, tol])
    # A counterexample's bits come from its input index, first bit most significant.
    bits = (checked[cols, None] >> np.arange(plan.n - 1, -1, -1)) & 1
    counterexamples = [(tuple(b), r - 1, w) for b, r, w in
                       zip(bits.tolist(), rows.tolist(), masses[rows, cols].tolist())]
    return VerificationReport(
        family=plan.family,
        params=plan.params,
        n=plan.n,
        exact=wrong_mass <= tol and max_residual <= tol and not gapped,
        worst_case_queries=worst,
        claimed_bound=plan.claimed_queries,
        max_norm_residual=max_residual,
        counterexamples=tuple(counterexamples),
        inputs_checked=1 << plan.n,
    )


# ---------------------------------------------------------------------------
# Polynomial suite
# ---------------------------------------------------------------------------


def _fourier(table: np.ndarray, n: int) -> np.ndarray:
    """Fourier inversion of each row of a float (rows x 2^n) table, in place:
    alpha_S = 2^-n sum_x A(x) prod_{i in S} xhat_i.

    Columns are inputs in lexicographic bit order (first bit most
    significant), and the coefficient of S lands in the column whose bits
    mark the members of S.
    """
    rows = len(table)
    for axis in range(n):
        view = table.reshape(rows, 1 << axis, 2, 1 << (n - 1 - axis))
        lo, hi = view[:, :, 0], view[:, :, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
    table /= 1 << n
    return table


def _popcounts(n: int) -> np.ndarray:
    """Subset size of each column of a `_fourier` table."""
    index = np.arange(1 << n)
    counts = np.zeros_like(index)
    for k in range(n):
        counts += (index >> k) & 1
    return counts


@dataclass(frozen=True)
class MultilinearPoly:
    """Sparse multilinear polynomial in the +-1 variables, indexed by subsets
    of {1..n}."""

    n: int
    coeffs: tuple[tuple[tuple[int, ...], float], ...]

    @classmethod
    def from_values(cls, n: int, values: Sequence[float], *, tol: float = 1e-11) -> MultilinearPoly:
        """Fourier inversion: alpha_S = 2^-n sum_x A(x) prod_{i in S} xhat_i.

        `values` is indexed by inputs in lexicographic bit order (first bit
        most significant). `tol` must be finite and >= 0.
        """
        check_tol(tol)
        if len(values) != 1 << n:
            raise ValueError(f"need {1 << n} values, got {len(values)}")
        coeffs = _fourier(np.array(values, dtype=float).reshape(1, 1 << n), n)[0]
        found = np.flatnonzero(np.abs(coeffs) > tol)
        subsets = [tuple(k + 1 for k in range(n) if index >> (n - 1 - k) & 1)
                   for index in found.tolist()]
        terms = sorted(zip(subsets, coeffs[found].tolist()),
                       key=lambda item: (len(item[0]), item[0]))
        return cls(n, tuple(terms))

    def coeff(self, subset: Iterable[int]) -> float:
        key = tuple(sorted(subset))
        for s, c in self.coeffs:
            if s == key:
                return c
        return 0.0

    def evaluate(self, xhat: Sequence[float]) -> float:
        if len(xhat) != self.n:
            raise ValueError(f"need {self.n} entries, got {len(xhat)}")
        total = 0.0
        for subset, c in self.coeffs:
            term = c
            for i in subset:
                term *= xhat[i - 1]
            total += term
        return total

    def degree(self, *, tol: float = 1e-9) -> int:
        """The largest subset size with |coefficient| > `tol`, which must be
        finite and >= 0."""
        check_tol(tol)
        return max((len(s) for s, c in self.coeffs if abs(c) > tol), default=0)


def extract_multilinear(
    plan: Plan,
    selector: str | tuple = "acceptance",
    *,
    tol: float = DEFAULT_TOL,
    branch_tol: float = DEFAULT_BRANCH_TOL,
) -> MultilinearPoly:
    """Multilinear polynomial of the acceptance probability, or of one
    leaf's branch weight (selector ("leaf", outcome path)). Both run the
    summary walk, whose contract-match tolerance is `tol`. Both tolerances
    are checked as in `verify_exactness`."""
    _check_tolerances(tol, branch_tol)
    check_limit("n", plan.n, EXTRACTION_LIMIT, "extraction")
    if selector == "acceptance":
        _, sums = _summarize(plan, tol=tol, branch_tol=branch_tol)
        return MultilinearPoly.from_values(plan.n, sums.total[2])
    if isinstance(selector, tuple) and len(selector) == 2 and selector[0] == "leaf":
        from .batch import leaf_values
        return MultilinearPoly.from_values(plan.n, leaf_values(plan, tuple(selector[1]), tol=tol,
                                                               branch_tol=branch_tol))
    raise ValueError(f"unknown selector {selector!r}")


@dataclass(frozen=True)
class LeafDegreeRecord:
    family: str
    n: int
    path: tuple
    label: tuple
    queries: int
    entry_degree: int
    degree: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.degree <= self.bound


def _collect_plans(plan: Plan) -> list[Plan]:
    """`plan` and every plan it reaches, depth first through `callees`."""
    seen: dict[int, Plan] = {}
    stack = [plan]
    while stack:
        p = stack.pop()
        if id(p) not in seen:
            seen[id(p)] = p
            stack.extend(reversed(p.callees))
    return list(seen.values())


def audit_leaf_degrees(plan: Plan, *, coeff_tol: float = 1e-9) -> tuple[LeafDegreeRecord, ...]:
    """Check, for every subroutine reachable from the plan, that every exit
    amplitude is a multilinear polynomial of degree at most (entry degree +
    queries spent inside the subroutine).

    Entry degree is 0 for plans starting from a prepared state and 1 for
    plans consuming the precomputed input family (its amplitudes are linear
    in xhat). Together with linearity of every step this bounds each composed
    leaf amplitude's degree by its full path query count. `coeff_tol` must
    be finite and >= 0. A reachable plan with an n above EXTRACTION_LIMIT
    raises ValueError before any walk.
    """
    check_tol(coeff_tol, "coeff_tol")
    plans = _collect_plans(plan)
    for sub in plans:
        check_limit("subroutine n", sub.n, EXTRACTION_LIMIT, "extraction")
    # The batched walker is imported at the first audit, as in _summarize.
    from .batch import exit_amplitudes
    records: list[LeafDegreeRecord] = []
    for sub in plans:
        entry_degree = 0 if sub.contract is None else 1
        keys, queries_of, tables = exit_amplitudes(sub)
        sizes = _popcounts(sub.n)
        degrees: list[int] = []
        for table in tables:
            support = np.abs(_fourier(table, sub.n)) > coeff_tol
            degrees += np.where(support, sizes, 0).max(axis=1).tolist()
        for (path, label), degree in sorted(zip(keys, degrees)):
            queries = queries_of[path]
            records.append(LeafDegreeRecord(
                family=sub.family, n=sub.n, path=path, label=label,
                queries=queries, entry_degree=entry_degree,
                degree=degree, bound=queries + entry_degree,
            ))
    return tuple(records)


@dataclass(frozen=True)
class SymmetrizedPoly:
    """Univariate restriction q(s) of a symmetrized multilinear polynomial,
    s being the Hamming weight."""

    n: int
    q_values: tuple[float, ...]
    coeffs: tuple[float, ...]

    def degree(self, *, tol: float = 1e-9) -> int:
        """The largest power with |coefficient| > `tol`, which must be finite
        and >= 0."""
        check_tol(tol)
        return max((i for i, c in enumerate(self.coeffs) if abs(c) > tol), default=0)


def symmetrize_to_univariate(poly: MultilinearPoly) -> SymmetrizedPoly:
    """Average coefficients over subset-size classes and restrict to the
    Hamming weight axis.

    With avg_m the mean coefficient of the subsets of size m, q(s) is
    sum_m avg_m K_m(s), where the Krawtchouk integer K_m(s) = sum_j (-1)^j
    C(s, j) C(n-s, m-j) is the exact value of the elementary symmetric
    polynomial e_m(xhat) at every input of weight s. So a broken extraction
    shows in `q_values`, not here.
    """
    n = poly.n
    class_sum = [0.0] * (n + 1)
    for subset, c in poly.coeffs:
        class_sum[len(subset)] += c
    avg = [class_sum[m] / math.comb(n, m) for m in range(n + 1)]
    q_values = [sum(avg[m] * sum((-1) ** j * math.comb(s, j) * math.comb(n - s, m - j) for j in range(m + 1))
                    for m in range(n + 1)) for s in range(n + 1)]

    vander = np.vander(np.arange(n + 1, dtype=float), n + 1, increasing=True)
    coeffs = np.linalg.solve(vander, np.asarray(q_values))
    return SymmetrizedPoly(n, tuple(q_values), tuple(float(c) for c in coeffs))


def root_count_lower_bound(
    q_values: Mapping[int, float],
    claimed_nonzero: int,
    *,
    tol: float = 1e-9,
) -> int:
    """Count zero entries of a value table; with a certified nonzero witness
    this lower-bounds the degree of any polynomial matching the table. `tol`
    must be finite and >= 0."""
    check_tol(tol)
    if claimed_nonzero not in q_values:
        raise ZeroWitnessMissing(f"no value recorded at the witness point {claimed_nonzero}")
    if abs(q_values[claimed_nonzero]) < tol:
        raise ZeroWitnessMissing(
            f"value {q_values[claimed_nonzero]:.3e} at {claimed_nonzero} is not nonzero")
    return sum(1 for point, value in q_values.items()
               if point != claimed_nonzero and abs(value) < tol)
