"""The benchmark's workloads: fixed instance lists, their set-up, and an
independent correctness oracle for every op.

An op is one plan verdict: one ``exactq verify``, one ``exactq poly`` pass or
one leaf extraction, or (on ``mutation``) one build-and-verify of a plan with
a perturbed step constant. The seed only shuffles the order and draws the
mutation deltas and the leaf paths; the instances are fixed because their
costs differ by orders of magnitude, so instances drawn by seed would make
every figure depend on the seed.

Library calls go through module attributes (``algorithms.build_unbr``,
``verifier.verify_exactness``, ``cli.main``) so that the tracer sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable

from exactq import algorithms, cli, recurrence, verifier
from exactq.sym import SymSpec

# Numerical tolerance of every oracle comparison.
ORACLE_TOL = 1e-9

# Sizes are chosen so that no op takes much over two seconds: a run repeats
# every plan often enough for a per-plan median, and each op is short next
# to the swings in CPU speed of a shared host.
CHAIN = ((8, 2), (7, 1), (7, 3))
# (family, CLI arguments, n, cold build of the same plan)
DISPATCH = (
    ("exact", ("--n", "10", "--k", "5"), 10, lambda: algorithms.build_exact_k(10, 5)),
    ("equality", ("--n", "12"), 12, lambda: algorithms.build_equality(12)),
    ("exactkl", ("--n", "8", "--k", "2", "--l", "6"), 8, lambda: algorithms.build_exact_kl(8, 2, 6)),
    ("sym", ("--a", "0011100"), 6, lambda: cli.build_sym(SymSpec("0011100"))),
    ("general", ("--n", "8", "--k", "2"), 8, lambda: algorithms.build_general_unbalance(8, 2)),
)
POLY = ((7, 1), (7, 3), (6, 2))
LEAF_PLAN = (6, 2)
LEAF_OPS = 2
LEAF_CHECK_INPUTS = 4
MUTATION = ((7, 1), (6, 2), (5, 1))
MUTATED_FIELDS = ("c1", "c2", "c8", "c9", "gamma")
DELTA_RANGE = (1e-3, 1e-2)


def paper_unb_queries(n: int, d: int) -> int:
    """Worst-case query count of the gap-d chain plan as the paper states it."""
    return {1: (n + 1) // 2, 2: (n + 2) // 2 - 1, 3: (n + 3) // 2 - 1}[d]


@dataclass
class Op:
    """One timed verdict: `call` does the work, `check` returns the oracle's
    complaints about its result (empty when correct)."""

    label: str
    n: int
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    detail: dict = field(default_factory=dict)

    @property
    def inputs(self) -> int:
        return 1 << self.n


# ---------------------------------------------------------------------------
# Set-up: imports happen in the caller; these are the cold plan builds.
# ---------------------------------------------------------------------------


def _setup_chain() -> None:
    for n, d in CHAIN:
        algorithms.build_unb(n, d)


def _setup_dispatch() -> None:
    for *_, build in DISPATCH:
        build()


def _setup_poly() -> None:
    for n, d in POLY + (LEAF_PLAN,):
        algorithms.build_unb(n, d)


def _setup_mutation() -> dict[tuple[int, int], recurrence.StepConstants]:
    """Only the unperturbed step constants: every op builds its own plan."""
    return {
        (n, d): recurrence.solve_step_constants(n, d, recurrence.chain_gamma_at(d, n - 2))
        for n, d in MUTATION
    }


SETUP = {
    "verify-chain": _setup_chain,
    "verify-dispatch": _setup_dispatch,
    "poly": _setup_poly,
    "mutation": _setup_mutation,
}


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, dict]:
    """Run the ``exactq`` entry point in-process and parse its JSON output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def verify_check(family: str, expect_queries: int | None) -> Callable:
    """Oracle for one ``exactq verify``: exact, norm conserved, and either the
    paper's query count (`expect_queries`) or at most the claimed bound. A
    report missing a field raises, which the harness counts as a failed op."""

    def check(result) -> list[str]:
        code, report = result
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if report["family"] != family:
            problems.append(f"report is for family {report['family']!r}")
        if report["exact"] is not True:
            problems.append("not exact")
        if not report["max_norm_residual"] <= ORACLE_TOL:
            problems.append(f"norm residual {report['max_norm_residual']}")
        worst = report["worst_case_queries"]
        if expect_queries is not None and worst != expect_queries:
            problems.append(f"worst-case queries {worst}, paper says {expect_queries}")
        if expect_queries is None and not worst <= report["claimed_bound"]:
            problems.append(f"worst-case queries {worst} above claimed {report['claimed_bound']}")
        return problems

    return check


def poly_check(n: int, d: int) -> Callable:
    """Oracle for one ``exactq poly`` on unb(n, d): q(s) is the 0/1 indicator
    of the two accepted weights and the leaf degree audit holds."""
    accepted = {(n - d) // 2, (n + d) // 2}

    def check(result) -> list[str]:
        code, payload = result
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if payload["audit_ok"] is not True:
            problems.append("leaf degree audit failed")
        q = payload["q_values"]
        if len(q) != n + 1:
            problems.append(f"{len(q)} q values for n={n}")
        else:
            bad = [s for s, v in enumerate(q) if not abs(v - (1.0 if s in accepted else 0.0)) <= ORACLE_TOL]
            if bad:
                problems.append(f"q(s) differs from the weight indicator at s={bad}")
        return problems

    return check


def leaf_paths(tree) -> list[tuple[tuple, float]]:
    """(outcome path, branch weight) of every reachable output leaf."""
    out = []

    def visit(node, path):
        if node.kind == "output":
            out.append((path, node.norm_sq))
        for child in node.children:
            visit(child, path + (child.outcome,) if node.kind == "measure" else path)

    visit(tree, ())
    return out


def _weight_along(tree, path: tuple) -> float:
    """Branch weight at the end of an outcome path through a run tree."""
    node, rest = tree, list(path)
    while rest:
        if node.kind == "measure":
            node = next((c for c in node.children if c.outcome == rest[0]), None)
            if node is None:
                return 0.0
            rest.pop(0)
        elif len(node.children) == 1:
            node = node.children[0]
        else:
            return 0.0
    return node.norm_sq


def leaf_check(expected: list[tuple[tuple[int, ...], float]]) -> Callable:
    """Oracle for one leaf extraction: the polynomial evaluates to the leaf's
    branch weight on sampled inputs, as read off independent run trees."""

    def check(poly) -> list[str]:
        problems = []
        if not all(math.isfinite(c) for _, c in poly.coeffs):
            problems.append("non-finite coefficient")
        for bits, weight in expected:
            value = poly.evaluate([1 - 2 * b for b in bits])
            if not abs(value - weight) <= ORACLE_TOL:
                problems.append(f"leaf value {value!r} at {bits}, run tree gives {weight!r}")
        return problems

    return check


def mutation_check(result) -> list[str]:
    if result.exact or not result.counterexamples:
        return ["mutated plan was not refuted"]
    return []


def mutated_constants(base: recurrence.StepConstants, name: str, delta: float) -> recurrence.StepConstants:
    return replace(base, **{name: getattr(base, name) + delta})


class Workload:
    """A workload's ops for one run. The constructor does the harness's own
    untimed work (drawing leaf paths); ``next_pass`` returns one shuffled pass
    over the instance list."""

    def __init__(self, name: str, rng: random.Random, setup_result=None):
        self.name = name
        self.rng = rng
        self.base = setup_result
        self.pass_index = 0
        self.leaves: list[tuple[tuple, list]] = []
        self.field_cycles: dict[tuple[int, int], list[str]] = {}
        if name == "poly":
            self._draw_leaves()
        if name == "mutation":
            # Each instance walks a seeded cycle through the fields, so every
            # run sees a balanced mix of perturbations.
            self.field_cycles = {key: rng.sample(MUTATED_FIELDS, len(MUTATED_FIELDS)) for key in MUTATION}

    def _draw_leaves(self) -> None:
        n, d = LEAF_PLAN
        plan = algorithms.build_unb(n, d)
        candidates: dict[tuple, None] = {}
        while len(candidates) < LEAF_OPS:
            bits = tuple(self.rng.randint(0, 1) for _ in range(n))
            for path, weight in leaf_paths(verifier.run_on_input(plan, bits)):
                if weight > 1e-6:
                    candidates.setdefault(path)
        for path in self.rng.sample(sorted(candidates, key=repr), LEAF_OPS):
            samples = [tuple(self.rng.randint(0, 1) for _ in range(n)) for _ in range(LEAF_CHECK_INPUTS)]
            expected = [(bits, _weight_along(verifier.run_on_input(plan, bits), path)) for bits in samples]
            self.leaves.append((path, expected))

    def next_pass(self) -> list[Op]:
        ops = getattr(self, "_ops_" + self.name.replace("-", "_"))()
        self.rng.shuffle(ops)
        self.pass_index += 1
        return ops

    def _ops_verify_chain(self) -> list[Op]:
        return [
            Op(f"verify unb n={n} d={d}", n,
               lambda n=n, d=d: run_cli(["verify", "--family", "unb", "--n", str(n), "--d", str(d)]),
               verify_check("unb", paper_unb_queries(n, d)))
            for n, d in CHAIN
        ]

    def _ops_verify_dispatch(self) -> list[Op]:
        return [
            Op(f"verify {family} {' '.join(args)}", n,
               lambda family=family, args=args: run_cli(["verify", "--family", family, *args]),
               verify_check(family, None))
            for family, args, n, _ in DISPATCH
        ]

    def _ops_poly(self) -> list[Op]:
        ops = [
            Op(f"poly unb n={n} d={d}", n,
               lambda n=n, d=d: run_cli(["poly", "--family", "unb", "--n", str(n), "--d", str(d)]),
               poly_check(n, d))
            for n, d in POLY
        ]
        n, d = LEAF_PLAN
        for path, expected in self.leaves:
            ops.append(Op(
                f"leaf unb n={n} d={d}", n,
                lambda path=path: verifier.extract_multilinear(algorithms.build_unb(n, d), ("leaf", path)),
                leaf_check(expected), {"path": repr(path)}))
        return ops

    def _ops_mutation(self) -> list[Op]:
        ops = []
        for n, d in MUTATION:
            cycle = self.field_cycles[(n, d)]
            name = cycle[self.pass_index % len(cycle)]
            delta = self.rng.uniform(*DELTA_RANGE)
            # The leakage coefficient gamma must stay nonnegative; the step
            # angles take either sign.
            if name != "gamma" and self.rng.random() < 0.5:
                delta = -delta
            bumped = mutated_constants(self.base[(n, d)], name, delta)
            ops.append(Op(
                f"mutated unbr n={n} d={d}", n,
                lambda n=n, d=d, bumped=bumped: verifier.verify_exactness(
                    algorithms.build_unbr(n, d, constants=bumped, validate=False)),
                mutation_check, {"field": name, "delta": delta}))
        return ops

    def reference_ops(self) -> list[Op]:
        """Untimed reference verdicts: on mutation, each unperturbed plan
        must verify exact."""
        if self.name != "mutation":
            return []
        return [
            Op(f"clean unbr n={n} d={d}", n,
               lambda n=n, d=d: verifier.verify_exactness(algorithms.build_unbr(n, d)),
               lambda report: [] if report.exact else ["unperturbed plan not exact"])
            for n, d in MUTATION
        ]
