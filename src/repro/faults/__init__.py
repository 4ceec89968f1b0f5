"""Unified deterministic fault injection (``Session(faults=...)``).

Public surface:

* :mod:`repro.faults.points` -- the closed catalog of injection points;
* :class:`FaultSpec` / :class:`FaultPlan` -- declarative, serializable
  descriptions of what to break (JSON, env ``REPRO_FAULTS``, or DSL);
* :class:`FaultRuntime` / :data:`NULL_FAULTS` -- the seeded evaluator
  every seam shares, and the zero-overhead inert default;
* :mod:`repro.faults.chaos` -- the ``repro chaos`` campaign runner
  (imported lazily: it pulls in the full session stack).
"""

from repro.faults import points
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.runtime import (
    NO_FAULT,
    NULL_FAULTS,
    FaultOutcome,
    FaultRuntime,
    NullFaultRuntime,
    resolve_faults,
)

__all__ = [
    "points",
    "FaultPlan", "FaultSpec",
    "FaultOutcome", "FaultRuntime", "NullFaultRuntime",
    "NO_FAULT", "NULL_FAULTS", "resolve_faults",
]
