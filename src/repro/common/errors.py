"""Exception hierarchy for the CloudViews reproduction.

Every subsystem raises a subclass of :class:`ReproError` so that callers can
distinguish library failures from programming errors.  Parsing, binding,
planning, execution, storage, and service failures each get their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(ReproError):
    """Raised when SQL text cannot be tokenized or parsed.

    Carries the position of the offending token so error messages can point
    at the exact spot in the query text.
    """

    def __init__(self, message: str, position: int = -1, text: str = ""):
        self.position = position
        self.text = text
        if position >= 0 and text:
            line = text.count("\n", 0, position) + 1
            col = position - (text.rfind("\n", 0, position) + 1) + 1
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class BindError(ReproError):
    """Raised when names in a query cannot be resolved against the catalog."""


class PlanError(ReproError):
    """Raised when a logical plan is malformed or cannot be lowered."""


class ExecutionError(ReproError):
    """Raised when a physical operator fails at run time."""


class TransientBackendError(ExecutionError):
    """A retryable backend failure (flaky I/O, a busy database file).

    The engine's bounded retry loop (:data:`repro.engine.engine.
    EXECUTE_RETRIES`) absorbs these before they can surface to a caller;
    only exhaustion propagates.
    """


class InjectedCrash(TransientBackendError):
    """Simulated process/worker death from the fault-injection framework.

    Raised by :meth:`repro.faults.runtime.FaultRuntime.fire` for
    ``crash``-kind specs.  Everything in flight is torn down exactly as
    an OS kill would leave it (open transactions roll back), and both
    the engine's transient retry and the scheduler's worker-retry loop
    treat it as retryable.
    """


class CatalogError(ReproError):
    """Raised for unknown datasets, duplicate registrations, and the like."""


class StorageError(ReproError):
    """Raised by the simulated store (missing streams, sealed-view misuse)."""


class ConfigError(ReproError, ValueError):
    """Raised for invalid configuration or argument values.

    Subclasses :class:`ValueError` as well, so call sites that predate the
    unified hierarchy (and external code catching ``ValueError``) keep
    working while everything raised by the library remains a
    :class:`ReproError`.
    """


class InsightsError(ReproError):
    """Raised by the insights service (lock conflicts, unknown tags)."""


class InsightsTimeout(InsightsError):
    """Raised when a serving-layer round trip exceeds the client timeout.

    Only ever raised *internally* by :class:`repro.insights.client.
    InsightsClient` attempts; after retries are exhausted the client
    degrades the job to reuse-disabled compilation instead of
    propagating, matching the paper's kill-switch behavior during
    incidents (Section 4).
    """


class ShardError(ReproError):
    """Raised by the sharded insights deployment (:mod:`repro.shard`):
    protocol framing violations, supervisor spawn failures, and RPC
    plumbing errors that are not the serving layer's own fault surface
    (those map onto :class:`InsightsError` so the client's retry /
    circuit-breaker ladder treats a dead shard like a dead service)."""


class SelectionError(ReproError):
    """Raised when view selection is given inconsistent constraints."""


class SchedulingError(ReproError):
    """Raised by the cluster simulator for impossible schedules."""


class SignatureError(ReproError):
    """Raised when a signature cannot be computed (e.g. unbound parameters)."""


class LintError(ReproError):
    """Raised by a debug-mode self-check (``REPRO_DEBUG_CHECKS``); the
    message says what diverged."""
