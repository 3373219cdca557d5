"""The verification reports that tests/test_reports.py pins.

`PLANS` names every plan of the set: the claims grid (every
`EXACT_{k,l}^n` with n <= 8), every symmetric value vector with n <= 4
under both strategies, the benchmark's chain and dispatch plans, and the
fixed mutants of acceptance criterion 8. `report(name)` is the verbose
`verify_exactness` report of one, as JSON would carry it.

Run `python tests/reports.py` (with src on PYTHONPATH) to rewrite
tests/reports.json after a change that is meant to change a report; list
each changed plan where the change is described.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

from exactq import (
    STRATEGIES,
    SymSpec,
    appendix_a_angles,
    build_appendix_a,
    build_equality,
    build_exact_k,
    build_exact_kl,
    build_general_unbalance,
    build_sym,
    build_unb,
    build_unbr,
    chain_gamma_at,
    solve_step_constants,
    verify_exactness,
)

PATH = Path(__file__).with_name("reports.json")
STEP_FIELDS = ("c1", "c2", "c8", "c9", "gamma")
DELTA = 1e-3


def _mutated_unbr(n, d, field):
    base = solve_step_constants(n, d, chain_gamma_at(d, n - 2))
    return build_unbr(n, d, constants=replace(base, **{field: getattr(base, field) + DELTA}),
                      validate=False)


def _mutated_appendix_a(angle):
    angles = dict(appendix_a_angles())
    angles[angle] += DELTA
    return build_appendix_a(angle_overrides=angles)


def _plans() -> dict:
    plans = {f"exactkl({n},{k},{l})": lambda n=n, k=k, l=l: build_exact_kl(n, k, l)
             for n in range(1, 9) for k in range(n + 1) for l in range(k, n + 1)}
    for bits in (b for n in range(5) for b in itertools.product("01", repeat=n + 1)):
        for strategy in STRATEGIES:
            spec = SymSpec("".join(bits), None, strategy)
            plans[f"sym({spec.a},{strategy})"] = lambda spec=spec: build_sym(spec)
    for n, d in ((8, 2), (7, 1), (7, 3)):
        plans[f"unb({n},{d})"] = lambda n=n, d=d: build_unb(n, d)
    plans.update({
        "exact(10,5)": lambda: build_exact_k(10, 5),
        "equality(12)": lambda: build_equality(12),
        "sym(0011100)": lambda: build_sym(SymSpec("0011100")),
        "general(8,2)": lambda: build_general_unbalance(8, 2),
    })
    for (n, d), field in itertools.product(((5, 1), (7, 1), (6, 2)), STEP_FIELDS):
        plans[f"unbr({n},{d}) {field}+{DELTA}"] = lambda n=n, d=d, f=field: _mutated_unbr(n, d, f)
    plans[f"unb(5,1) gamma=1/126+{DELTA}"] = lambda: build_unb(5, 1, gamma_override=1 / 126 + DELTA)
    for angle in ("split1", "merge1", "split2"):
        plans[f"appendix_a {angle}+{DELTA}"] = lambda a=angle: _mutated_appendix_a(a)
    plans[f"appendix_a gamma=1/112+{DELTA}"] = lambda: build_appendix_a(gamma_override=1 / 112 + DELTA)
    return plans


PLANS = _plans()


def report(name: str) -> dict:
    """The verbose report of plan `name`, through a JSON round trip, so
    that it compares equal to its stored copy; floats survive exactly."""
    return json.loads(json.dumps(verify_exactness(PLANS[name]()).as_dict(verbose=True)))


def load() -> dict:
    return json.loads(PATH.read_text())


def write() -> None:
    """One plan per line, so that a changed report is a changed line."""
    lines = [f"{json.dumps(name)}: {json.dumps(report(name))}" for name in PLANS]
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write()
    print(f"wrote {len(PLANS)} reports to {PATH}", file=sys.stderr)
