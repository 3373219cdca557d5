"""Reports pinned exactly: every verification report of tests/reports.py's
plan set must equal its stored copy in tests/reports.json, and every
polynomial and degree audit its copy in tests/poly_reports.json, floats bit
for bit. A change that is meant to change a report reruns tests/reports.py."""

from __future__ import annotations

import json

import reports


def assert_matches(path, names, make):
    stored = reports.load(path)
    assert list(stored) == list(names), "the plan set changed; rerun tests/reports.py"
    changed = []
    for name, expected in stored.items():
        got = make(name)
        if got != expected:
            changed.append(f"{name}\n  pinned: {json.dumps(expected)}\n  now:    {json.dumps(got)}")
    assert not changed, f"{len(changed)} reports differ:\n" + "\n".join(changed)


def test_verify_reports_match_the_pinned_file():
    assert_matches(reports.PATH, reports.PLANS, reports.report)


def test_poly_reports_match_the_pinned_file():
    assert_matches(reports.POLY_PATH, reports.POLYS, reports.poly_report)
