"""Exception types shared across the package, and the checks that every
tolerance and every gamma knob pass where they enter.

Everything derives from ValueError so callers that only care about "bad input
vs bug" can catch one base class.
"""

from __future__ import annotations

import math


def check_tol(tol: float, name: str = "tol") -> None:
    """Reject a tolerance that is negative, infinite or NaN."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")


def check_gamma(gamma: float, name: str) -> None:
    """Reject a leakage coefficient gamma outside [0, 1], or NaN."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {gamma!r}")


class ExactQError(ValueError):
    """Base class for all package-specific errors."""


class NotIsometry(ExactQError):
    """Specified gadget columns are not orthonormal, or completion failed."""


class BindingConflict(ExactQError):
    """A label binding is not a bijection onto the gadget's label space, or
    two bindings of one gadget step share a global label."""


class PartitionGap(ExactQError):
    """A measured label's outcome names no child of the measurement.

    Raised by the per-input `state_core.measure` and by the degree audit's
    exit walk. The summary walk (`verify_exactness`, `extract_multilinear`)
    does not raise it: there a branch that gaps ends at its measurement as
    output -1. Nor does `run_on_input`, whose run tree puts a "gap" leaf
    (output -1) in place of that measurement."""


class IndexOutOfRange(ExactQError):
    """A query index, or a Call wire var(i), lies outside its plan's 1..n."""


class ConstraintViolation(ExactQError):
    """Step constants fail one of their defining identities."""


class DivergedChain(ExactQError):
    """The decay recurrence was fed a gamma at or beyond its pole."""


class DegenerateCase(ExactQError):
    """Parameters collapse the construction (for example n = d)."""


class NoChain(ExactQError):
    """No known recursion chain exists for the requested parameters."""


class InconsistentSpec(ExactQError):
    """A symmetric-function description contradicts itself."""


class ZeroWitnessMissing(ExactQError):
    """Root counting requires a nonzero witness point, and it vanished."""
