"""The verification reports that tests/test_reports.py pins.

`PLANS` names every plan of the set: the claims grid (every
`EXACT_{k,l}^n` with n <= 8), every symmetric value vector with n <= 4
under both strategies, the benchmark's chain and dispatch plans, and the
fixed mutants of acceptance criterion 8. `report(name)` is the verbose
`verify_exactness` report of one, as JSON would carry it.

`POLYS` names the polynomial half: the acceptance polynomial and the leaf
degree audit of the poly benchmark's chain plans, and leaf polynomials on
fixed outcome paths of `unb(6,2)`. `poly_report(name)` is one of them, as
JSON would carry it, in tests/poly_reports.json.

Run `python tests/reports.py` (with src on PYTHONPATH) to rewrite both files
after a change that is meant to change a report. Before it writes a file, it
prints the name of each entry whose pinned value changes, with the top-level
fields that change in a report, or that it adds or drops; list each where
the change is described.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from exactq import (
    STRATEGIES,
    SymSpec,
    appendix_a_angles,
    audit_leaf_degrees,
    build_appendix_a,
    build_equality,
    build_exact_k,
    build_exact_kl,
    build_general_unbalance,
    build_sym,
    build_unb,
    build_unbr,
    chain_gamma_at,
    extract_multilinear,
    solve_step_constants,
    verify_exactness,
)

PATH = Path(__file__).with_name("reports.json")
POLY_PATH = Path(__file__).with_name("poly_reports.json")
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

# Outcome paths of unb(6,2): whole output paths through both gap levels and
# the rest branch, and two prefixes that end inside the run tree.
LEAF_PATHS = (
    (("pair", 1, 2), ("pair", 1, 2), ("pair",)),
    (("pair", 2, 4), ("rest",), ("s",)),
    (("rest",), ("s",)),
    (("rest",), ("pair", 3, 5), ("s",)),
    (("pair", 1, 3),),
    (("rest",),),
)


def _polys() -> dict:
    polys = {}
    for n, d in ((7, 1), (7, 3), (6, 2)):
        polys[f"unb({n},{d}) acceptance"] = lambda n=n, d=d: extract_multilinear(build_unb(n, d)).coeffs
        polys[f"unb({n},{d}) audit"] = lambda n=n, d=d: [asdict(r) for r in audit_leaf_degrees(build_unb(n, d))]
    for path in LEAF_PATHS:
        polys[f"unb(6,2) leaf {path}"] = lambda path=path: extract_multilinear(build_unb(6, 2), ("leaf", path)).coeffs
    return polys


POLYS = _polys()


def _json(value):
    """`value` through a JSON round trip, so that it compares equal to its
    stored copy; floats survive exactly."""
    return json.loads(json.dumps(value))


def report(name: str) -> dict:
    """The verbose report of plan `name`."""
    return _json(verify_exactness(PLANS[name]()).as_dict(verbose=True))


def poly_report(name: str):
    """The coefficients, or the audit records, that `name` of POLYS gives."""
    return _json(POLYS[name]())


def load(path: Path = PATH) -> dict:
    return json.loads(path.read_text())


def _write(path: Path, names, make) -> None:
    """One entry per line, so that a changed report is a changed line. The
    names whose entries change, with the fields that change in a report, or
    that are added or dropped, are printed first."""
    old = load(path) if path.exists() else {}
    new = {name: make(name) for name in names}
    for name in [*new, *(name for name in old if name not in new)]:
        if name not in old:
            print(f"added: {name}")
        elif name not in new:
            print(f"dropped: {name}")
        elif new[name] != old[name]:
            was, now = old[name], new[name]
            fields = ""
            if isinstance(was, dict) and isinstance(now, dict):
                fields = " [" + ", ".join(key for key in {**was, **now}
                                          if key not in was or key not in now or was[key] != now[key]) + "]"
            print(f"changed: {name}{fields}")
    lines = [f"{json.dumps(name)}: {json.dumps(value)}" for name, value in new.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    _write(PATH, PLANS, report)
    _write(POLY_PATH, POLYS, poly_report)
    print(f"wrote {len(PLANS)} reports to {PATH} and {len(POLYS)} to {POLY_PATH}", file=sys.stderr)
