"""The closed catalog of fault-injection points.

Every seam in the stack where the unified fault framework can perturb
execution is named here, together with the failure *kinds* that make
sense at that seam.  Naming the points centrally keeps three things in
sync: the seams threaded through the code (each calls
:meth:`~repro.faults.runtime.FaultRuntime.fire` with one of these
constants), plan validation (a :class:`~repro.faults.plan.FaultSpec`
naming an unknown point or an unsupported kind is a
:class:`~repro.common.errors.ConfigError` at construction, not a silent
no-op at run time), and the DESIGN-doc injection-point table.

Failure kinds:

``transient``
    A retryable backend error (:class:`~repro.common.errors.
    TransientBackendError`) -- the moral equivalent of a flaky I/O
    syscall.  The engine's bounded retry loop absorbs these.
``crash``
    Simulated process/worker death (:class:`~repro.common.errors.
    InjectedCrash`).  Anything in flight is torn down exactly as an
    OS kill would leave it (open transactions roll back on the next
    open); schedulers and engines treat it as retryable.
``storage``
    A :class:`~repro.common.errors.StorageError` -- a view or blob
    read/write failed.  On the view-read path the engine degrades the
    job to a reuse-free recompute.
``error``
    A non-retryable serving-layer error (the insights client maps it
    to :class:`~repro.common.errors.InsightsError` and runs its own
    retry/degrade cycle).
``drop``
    The insights trip consumes its full timeout and fails (as an
    :class:`~repro.common.errors.InsightsTimeout` would).
``delay``
    Extra simulated latency added to a surviving trip.
``torn``
    A partial write: the journal emits a truncated JSONL record with no
    trailing newline, exactly what a crash mid-``write(2)`` leaves.
"""

from __future__ import annotations

from typing import Dict, Tuple

# ---------------------------------------------------------------------- #
# point names

#: Backend plan execution (fired once per ``ExecutionBackend.execute``).
BACKEND_EXECUTE = "backend.execute"
#: Spool materialization, fired per Spool before any write happens.
BACKEND_MATERIALIZE = "backend.materialize"
#: Mid-materialization (after the CTAS/row write, before the commit) --
#: the kill-mid-CTAS scenario; fired per Spool right after
#: ``backend.materialize``, on both backends.
BACKEND_MATERIALIZE_MID = "backend.materialize.mid"
#: Reading a materialized view back (fired per ViewScan in the plan).
BACKEND_SCAN_VIEW = "backend.scan_view"
#: Dropping a view's backing storage (GC / purge cascades).
BACKEND_DROP_VIEW = "backend.drop_view"
#: One WAL append in the catalog journal.
JOURNAL_APPEND = "journal.append"
#: A journal snapshot (fired after the temp file is written, before the
#: atomic rename -- a crash here must leave the old snapshot intact).
JOURNAL_SNAPSHOT = "journal.snapshot"
#: A scheduler worker picking up a job (worker death).
SCHEDULER_WORKER = "scheduler.worker"
#: One job's trip to the insights serving layer: each attempt whose tags
#: have not reached the service yet (a retry after a timeout draws none).
INSIGHTS_RPC = "insights.rpc"
#: One lifecycle GC sweep.
GC_SWEEP = "gc.sweep"
#: One lookup frame on the router's fetch fan-out (per contacted shard).
SHARD_RPC = "shard.rpc"
#: Spawning one shard worker process (supervisor start/restart).
SHARD_SPAWN = "shard.spawn"
#: Sudden shard-process death observed at the router (the process is
#: really SIGKILLed; the supervisor's restart policy decides recovery).
SHARD_DEATH = "shard.death"

#: point -> (description, valid kinds).  The closed vocabulary.
REGISTRY: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    BACKEND_EXECUTE: (
        "backend plan execution", ("transient", "crash")),
    BACKEND_MATERIALIZE: (
        "view materialization, before any write", ("transient", "crash")),
    BACKEND_MATERIALIZE_MID: (
        "mid-materialization, after the write before the commit",
        ("crash",)),
    BACKEND_SCAN_VIEW: (
        "materialized-view read", ("storage", "transient")),
    BACKEND_DROP_VIEW: (
        "view storage drop (GC / purge)", ("storage",)),
    JOURNAL_APPEND: (
        "catalog-journal WAL append", ("torn", "storage")),
    JOURNAL_SNAPSHOT: (
        "catalog-journal snapshot, before the atomic rename",
        ("crash", "storage")),
    SCHEDULER_WORKER: (
        "scheduler worker-thread death", ("crash",)),
    INSIGHTS_RPC: (
        "insights serving-layer round trip", ("drop", "error", "delay")),
    GC_SWEEP: (
        "lifecycle GC sweep", ("storage",)),
    SHARD_RPC: (
        "shard RPC on the fetch fan-out", ("drop", "error", "delay")),
    SHARD_SPAWN: (
        "shard worker-process spawn", ("error",)),
    SHARD_DEATH: (
        "shard worker-process death (real SIGKILL)", ("crash",)),
}

ALL_POINTS = tuple(sorted(REGISTRY))
ALL_KINDS = ("transient", "crash", "storage", "error",
             "drop", "delay", "torn")


def valid_kinds(point: str) -> Tuple[str, ...]:
    """The failure kinds supported at ``point`` (empty when unknown)."""
    entry = REGISTRY.get(point)
    return entry[1] if entry else ()
