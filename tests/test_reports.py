"""Verification reports pinned exactly: every report of tests/reports.py's
plan set must equal its stored copy in tests/reports.json, floats bit for
bit. A change that is meant to change a report reruns tests/reports.py."""

from __future__ import annotations

import json

import reports


def test_verify_reports_match_the_pinned_file():
    stored = reports.load()
    assert list(stored) == list(reports.PLANS), "the plan set changed; rerun tests/reports.py"
    changed = []
    for name, expected in stored.items():
        got = reports.report(name)
        if got != expected:
            changed.append(f"{name}\n  pinned: {json.dumps(expected)}\n  now:    {json.dumps(got)}")
    assert not changed, f"{len(changed)} reports differ:\n" + "\n".join(changed)
