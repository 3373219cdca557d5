"""Benchmark of the exactq exhaustive certifier.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload verify-chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in one process, serially, on the library's default path
with BLAS pinned to one thread. With ``--trace 0`` the run times whole passes
over the workload's instance list, as many as bring the measured time nearest
to ``--seconds``, and reports the end-to-end metrics in reference seconds
(see ``CAL_REF_S``). With ``--trace 1`` it runs a warm-up pass, one untraced
pass and then the same pass with every per-layer function wrapped in a span,
and reports the per-layer split and the tracing overhead.
Every op is checked by an independent oracle. The last line of standard output
is one JSON object (correct, attempted, failed, metrics); the full record, with
the environment and the exact work sizes, is written to ``perfbench/results/``.
"""

from __future__ import annotations

import os

BLAS_PIN = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_PIN)  # before numpy is imported, here or in a child

import argparse
import contextlib
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORKLOADS = ("verify-chain", "verify-dispatch", "poly", "mutation")
# Set-up is repeated in this many fresh processes; setup_s is their median.
SETUP_REPEATS = 9
NPROC = len(os.sched_getaffinity(0))
# The run and its set-up processes stay on one CPU, so that the calibration
# kernel always runs on the CPU whose speed it is to stand for.
PINNED_CPU = max(os.sched_getaffinity(0))
# Other tenants of a shared host change its CPU speed by tens of percent,
# from one second to the next and for minutes at a time, far beyond the
# benchmark's bounds, and the loss shows in CPU time as well as wall time. So
# every timing is taken between two runs of a fixed calibration kernel and
# reported in reference seconds: measured seconds * CAL_REF_S / the mean of
# the two kernel times. CAL_REF_S is about the kernel's time on an unloaded
# 2-vCPU Intel Xeon host, so there reference seconds read close to wall
# seconds.
CAL_REF_S = 0.0045
_CAL_MATRIX = np.random.default_rng(0).standard_normal((8, 8)) + 0j
_CAL_ARRAY = np.ones(1 << 17, dtype=complex)
LIMITS = (
    "shared machine: other tenants can slow the CPU during a run; "
    "times are scaled by a calibration kernel run beside them",
    "no hardware performance counters",
    "no page-cache dropping: set-up is measured with warm file caches",
)


def _source_present() -> bool:
    return (SRC / "exactq" / "__init__.py").is_file()


def _calibration_kernel() -> None:
    """A fixed mix of the kinds of work exactq's simulator does: interpreted
    arithmetic, small numpy calls, dicts keyed by tuples, and a sweep over an
    array larger than the CPU's private caches. Each kind slows by its own
    amount when the host is busy, so the kernel mixes them all."""
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    v = np.ones(8, dtype=complex)
    for _ in range(200):
        v = _CAL_MATRIX @ v
        v = v / np.linalg.norm(v)
    amplitudes = {}
    for i in range(4_000):
        amplitudes[(i & 63, i >> 6)] = complex(i, 1) * 0.5
    for _ in range(3):
        (_CAL_ARRAY * 1.0001).sum()


def calibration_s() -> float:
    """Seconds of the calibration kernel, the fastest of three runs. It uses
    nothing of exactq, so a change to the program does not move it."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Import plus cold plan builds, each from one fresh process: the
    samples in reference seconds, and as measured."""
    samples, raw = [], []
    cal = calibration_s()
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        cal_after = calibration_s()
        raw.append(float(out.stdout.split()[-1]))
        samples.append(raw[-1] * CAL_REF_S / ((cal + cal_after) / 2))
        cal = cal_after
    return samples, raw


def environment() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "pinned_cpu": PINNED_CPU,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "blas_threads": BLAS_PIN,
        "limits": list(LIMITS),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def run_ops(ops, tracer=None) -> list[dict]:
    """Time each op between two calibration runs, check it, and return one
    record per op, with its time as measured and in reference seconds."""
    records = []
    cal = calibration_s()
    for op in ops:
        if tracer is not None:
            tracer.run_id += 1
        start = time.perf_counter()
        try:
            result = op.call()
            seconds = time.perf_counter() - start
            problems = op.check(result)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            seconds = time.perf_counter() - start
            problems = [f"raised {type(exc).__name__}: {exc}"]
        cal_after = calibration_s()
        cal_s = (cal + cal_after) / 2
        cal = cal_after
        records.append({"op": op.label, "n": op.n, "inputs": op.inputs, "seconds": seconds,
                        "cal_s": cal_s, "ref_s": seconds * CAL_REF_S / cal_s,
                        "ok": not problems, "problems": problems, **op.detail})
    return records


def timed_passes(workload, seconds: float) -> tuple[list[list[dict]], float]:
    """Whole passes, as many as bring the measured time nearest to `seconds`
    (at least one), so that every instance is timed equally often."""
    passes: list[list[dict]] = []
    start = time.perf_counter()
    while True:
        passes.append(run_ops(workload.next_pass()))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes, elapsed


def end_to_end(passes: list[list[dict]], setup_samples: list[float]) -> dict:
    """Medians, in reference seconds: throughput is the median over passes
    of a pass's inputs over its time; each plan's latency is the median over
    its ops, and p50 and max are taken over the plans."""
    by_plan: dict[str, list[float]] = {}
    for r in (r for p in passes for r in p):
        by_plan.setdefault(r["op"], []).append(r["ref_s"])
    plan_s = [statistics.median(v) for v in by_plan.values()]
    return {
        "inputs_per_s": {"value": statistics.median(
            sum(r["inputs"] for r in p) / sum(r["ref_s"] for r in p) for p in passes), "unit": "1/s"},
        "plan_p50_s": {"value": statistics.median(plan_s), "unit": "s"},
        "plan_max_s": {"value": max(plan_s), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MiB"},
    }


def as_measured(passes: list[list[dict]], wall: float, setup_raw: list[float]) -> dict:
    """The same run in wall seconds, unscaled, for the result file."""
    records = [r for p in passes for r in p]
    return {
        "inputs_per_s": sum(r["inputs"] for r in records) / wall,
        "plan_p50_s": statistics.median(r["seconds"] for r in records),
        "plan_max_s": max(r["seconds"] for r in records),
        "setup_s": statistics.median(setup_raw),
        "calibration_s": statistics.median(r["cal_s"] for r in records),
    }


def per_layer(tracer, traced_records: list[dict], traced_s: float, untraced_s: float) -> dict:
    summary = tracer.summary()
    metrics = {}
    for name, row in summary.items():
        metrics[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
        metrics[f"{name}.s"] = {"value": row["s"], "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": row["self_s"], "unit": "s"}
    inputs = sum(r["inputs"] for r in traced_records)
    apply_row = summary["state_core.apply_bindings"]
    total_self = sum(row["self_s"] for row in summary.values())
    metrics["state_core.apply_bindings.per_input"] = {
        "value": apply_row["calls"] / inputs, "unit": "calls/input"}
    metrics["state_core.apply_bindings.self_share"] = {
        "value": apply_row["self_s"] / total_self, "unit": "fraction"}
    metrics["trace.overhead"] = {"value": traced_s / untraced_s, "unit": "ratio"}
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    setup_samples, setup_raw = ([], []) if trace else measure_setup(name)

    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    tracer = Tracer() if trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        setup_result = workloads.SETUP[name]()
    workload = workloads.Workload(name, random.Random(seed), setup_result)
    RESULTS.mkdir(parents=True, exist_ok=True)

    record: dict = {"workload": name, "seed": seed,
                    "seconds": seconds, "trace": int(trace), "environment": environment()}
    if tracer is None:
        timed, wall = timed_passes(workload, seconds)
        records, passes = [r for p in timed for r in p], len(timed)
        metrics = end_to_end(timed, setup_samples)
        record["as_measured"] = as_measured(timed, wall, setup_raw)
        record["setup_samples_s"] = setup_samples
        record["setup_raw_s"] = setup_raw
    else:
        ops = workload.next_pass()
        run_ops(ops)  # warm-up, so that the first timed pass pays no one-off costs
        untraced = run_ops(ops)
        with tracer.installed():
            traced = run_ops(ops, tracer)
        records, passes = untraced + traced, 2
        wall = sum(r["seconds"] for r in records)
        metrics = per_layer(tracer, traced, sum(r["ref_s"] for r in traced),
                            sum(r["ref_s"] for r in untraced))
        spans_file = RESULTS / f"{name}-spans.npz"
        tracer.write(spans_file)
        record["spans_file"] = str(spans_file.relative_to(ROOT))
        record["spans"] = len(tracer.start)

    references = run_ops(workload.reference_ops())
    checked = records + references
    failed = sum(1 for r in checked if not r["ok"])
    record.update({
        "passes": passes,
        "measured_s": wall,
        "work": {
            "ops": len(records),
            "inputs": sum(r["inputs"] for r in records),
            "reference_ops": len(references),
            "per_op": records,
            "reference": references,
        },
        "failed_frac": failed / len(checked),
        "metrics": metrics,
    })
    (RESULTS / f"{name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {name}  seed {seed}  passes {passes}  ops {len(records)}  "
          f"inputs {record['work']['inputs']}  measured {wall:.3f} s")
    for r in checked:
        if not r["ok"]:
            print(f"  FAILED {r['op']}: {'; '.join(r['problems'])}")
    print(f"  failed_frac = {record['failed_frac']:.6g} ({failed}/{len(checked)})")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for key, value in record.get("as_measured", {}).items():
        print(f"  as measured: {key} = {value:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checked), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        last = json.loads(out.stdout.strip().splitlines()[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for key, m in last["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _source_present():
        print(f"error: no exactq sources under {SRC}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {PINNED_CPU})
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
