"""Span tracer that wraps the exactq functions named by the per-layer metrics.

The wrappers are installed from outside the package: each target is a name
as the calling module looks it up (for example ``exactq.verifier.apply_bindings``,
which is what the verifier's walk calls), so nothing under ``src/`` changes.
Spans are kept in flat in-memory arrays and written out once, at the end.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

from exactq import algorithms, cli, gadgets, recurrence, sym, verifier

_BUILDERS = (
    "build_appendix_a", "build_equality", "build_exact_k", "build_exact_kl",
    "build_general_unbalance", "build_unb", "build_unbr", "build_uw_step",
)

# (span name, module, attribute): every place a traced function is looked up
# at call time. Builders are wrapped in their own module too, so the recursive
# calls down a chain are spans of their own.
TARGETS: tuple[tuple[str, object, str], ...] = (
    *(("algorithms.build", algorithms, name) for name in _BUILDERS),
    *(("algorithms.build", cli, name) for name in _BUILDERS),
    ("algorithms.build", cli, "build_sym"),
    ("algorithms.build", sym, "build_exact_k"),
    ("recurrence.solve_step_constants", algorithms, "solve_step_constants"),
    ("recurrence.solve_step_constants", cli, "solve_step_constants"),
    ("recurrence.solve_step_constants", recurrence, "solve_step_constants"),
    ("state_core.isometry_from_columns", gadgets, "isometry_from_columns"),
    ("state_core.apply_bindings", verifier, "apply_bindings"),
    ("state_core.measure", verifier, "measure"),
    ("gadgets.oracle_apply", verifier, "oracle_apply"),
    ("verifier.verify_exactness", verifier, "verify_exactness"),
    ("verifier.verify_exactness", cli, "verify_exactness"),
    ("verifier.extract_multilinear", verifier, "extract_multilinear"),
    ("verifier.extract_multilinear", cli, "extract_multilinear"),
    ("verifier.audit_leaf_degrees", cli, "audit_leaf_degrees"),
    ("verifier.symmetrize_to_univariate", cli, "symmetrize_to_univariate"),
    ("cli.main", cli, "main"),
)
# A classmethod is wrapped on its class and rebound as a classmethod.
CLASS_TARGETS = (("verifier.MultilinearPoly.from_values", verifier.MultilinearPoly, "from_values"),)

LAYER_NAMES: tuple[str, ...] = (
    "algorithms.build",
    "recurrence.solve_step_constants",
    "state_core.isometry_from_columns",
    "state_core.apply_bindings",
    "state_core.measure",
    "gadgets.oracle_apply",
    "verifier.verify_exactness",
    "verifier.extract_multilinear",
    "verifier.audit_leaf_degrees",
    "verifier.symmetrize_to_univariate",
    "verifier.MultilinearPoly.from_values",
    "cli.main",
)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span and
    the run id (the op index, or -1 for set-up) current at entry."""

    def __init__(self) -> None:
        self.names = list(LAYER_NAMES)
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name_id = array("l")
        self.run = array("l")
        self.outermost = array("b")  # no enclosing span of the same name
        self.run_id = -1
        self._stack: list[int] = []
        self._depth = [0] * len(self.names)

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            stack = self._stack
            self.parent.append(stack[-1] if stack else -1)
            self.name_id.append(nid)
            self.run.append(self.run_id)
            self.outermost.append(self._depth[nid] == 0)
            self.end.append(0.0)
            stack.append(span)
            self._depth[nid] += 1
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self._depth[nid] -= 1
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, owner, attr in TARGETS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
            for name, owner, attr in CLASS_TARGETS:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive seconds (outermost spans only, so a
        recursive builder is not counted twice) and self seconds (each span
        minus the time covered by its direct child spans)."""
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        child_time = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += duration[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["self_s"] += duration[i] - child_time[i]
            if self.outermost[i]:
                row["s"] += duration[i]
        return out

    def write(self, path) -> None:
        """Write all spans as one compact .npz file (arrays plus name table)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent),
            run=np.asarray(self.run),
        )
