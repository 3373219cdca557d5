"""Smoke check of the benchmark harness itself, on tiny instances.

    python3 perfbench/smoke.py

Runs every workload once with its instance list swapped for tiny plans
(unb(5,1), a mutated unbr(5,1), ...), untraced and traced, and checks that the
last output line carries exactly the metric names BENCHMARK.json declares.
Then feeds the oracle deliberately wrong expectations and checks that it
flags each one. Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402
from exactq import algorithms, cli, verifier  # noqa: E402
from exactq.sym import SymSpec  # noqa: E402

TINY = {
    "CHAIN": ((5, 1),),
    "DISPATCH": (
        ("exact", ("--n", "4", "--k", "2"), 4, lambda: algorithms.build_exact_k(4, 2)),
        ("sym", ("--a", "0110"), 3, lambda: cli.build_sym(SymSpec("0110"))),
    ),
    "POLY": ((5, 1),),
    "LEAF_PLAN": (5, 1),
    "MUTATION": ((5, 1),),
}


def fail(message: str) -> None:
    print(f"smoke: FAILED: {message}")
    sys.exit(1)


def check_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    for name in run.WORKLOADS:
        for trace in (0, 1):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run.run_workload(name, seed=7, seconds=0.01, trace=bool(trace))
            last = json.loads(buf.getvalue().strip().splitlines()[-1])
            if code != 0 or not last["correct"] or last["failed"] != 0:
                fail(f"{name} trace={trace} did not pass on tiny instances:\n{buf.getvalue()}")
            if set(last["metrics"]) != expected[trace]:
                fail(f"{name} trace={trace} emitted {sorted(set(last['metrics']) ^ expected[trace])} "
                     "against BENCHMARK.json")
            print(f"smoke: {name} trace={trace}: {len(last['metrics'])} metrics, "
                  f"{last['attempted']} ops correct")


def check_oracle_flags_wrong_expectations() -> None:
    cases = []
    verdict = workloads.run_cli(["verify", "--family", "unb", "--n", "5", "--d", "1"])
    paper = workloads.paper_unb_queries(5, 1)
    cases.append(("verify with the paper's count", workloads.verify_check("unb", paper), verdict, False))
    cases.append(("verify expecting one query more", workloads.verify_check("unb", paper + 1), verdict, True))
    cases.append(("verify expecting another family", workloads.verify_check("unbr", paper), verdict, True))

    poly = workloads.run_cli(["poly", "--family", "unb", "--n", "5", "--d", "1"])
    cases.append(("poly against its own weights", workloads.poly_check(5, 1), poly, False))
    cases.append(("poly against gap 3 weights", workloads.poly_check(5, 3), poly, True))

    plan = algorithms.build_unb(5, 1)
    bits = (0, 1, 1, 0, 1)
    tree = verifier.run_on_input(plan, bits)
    path, weight = max(workloads.leaf_paths(tree), key=lambda item: item[1])
    leaf = verifier.extract_multilinear(plan, ("leaf", path))
    cases.append(("leaf at its run-tree weight", workloads.leaf_check([(bits, weight)]), leaf, False))
    cases.append(("leaf at a shifted weight", workloads.leaf_check([(bits, weight + 0.1)]), leaf, True))

    base = workloads.SETUP["mutation"]()
    mutated = verifier.verify_exactness(algorithms.build_unbr(
        5, 1, constants=workloads.mutated_constants(base[(5, 1)], "c1", 2e-3), validate=False))
    clean = verifier.verify_exactness(algorithms.build_unbr(5, 1))
    cases.append(("mutated unbr(5,1) expected refuted", workloads.mutation_check, mutated, False))
    cases.append(("clean unbr(5,1) expected refuted", workloads.mutation_check, clean, True))

    for label, check, result, should_flag in cases:
        problems = check(result)
        if bool(problems) != should_flag:
            fail(f"oracle {'missed' if should_flag else 'wrongly flagged'}: {label} {problems}")
        print(f"smoke: oracle {'flags' if should_flag else 'accepts'} {label}"
              + (f" ({problems[0]})" if problems else ""))


def main() -> int:
    for key, value in TINY.items():
        setattr(workloads, key, value)
    run.RESULTS = run.RESULTS / "smoke"
    check_metric_names()
    check_oracle_flags_wrong_expectations()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
