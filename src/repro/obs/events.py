"""Structured event log: the flight recorder's third pillar.

One append-only stream of typed events covering the whole reuse feedback
loop — the view lifecycle (created / sealed / invalidated / evicted /
reused), the insights-service lock table (acquired / denied / released),
kill-switch flips, per-job compile/finish records, and selection epochs.

Consumers read the log in process or its JSONL export after the fact
(``repro obs events`` over a capture is the reproduction's stand-in for
Figure 5's query-monitoring tool).  The export is *replayable*:
:func:`replay_counters` recomputes per-kind totals from the serialized
stream, which tests compare against the live
:class:`~repro.obs.metrics.MetricsRegistry` counters to prove the log is
a faithful record rather than a parallel guess.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.common.clock import SECONDS_PER_DAY

# ---------------------------------------------------------------------- #
# event kinds (the schema's closed vocabulary)

VIEW_CREATED = "view.created"
VIEW_SEALED = "view.sealed"
VIEW_REUSED = "view.reused"
VIEW_INVALIDATED = "view.invalidated"
VIEW_EVICTED = "view.evicted"
LOCK_ACQUIRED = "lock.acquired"
LOCK_DENIED = "lock.denied"
LOCK_RELEASED = "lock.released"
KILL_SWITCH_FLIPPED = "killswitch.flip"
JOB_COMPILED = "job.compiled"
JOB_FINISHED = "job.finished"
JOB_FAILED = "job.failed"
SELECTION_EPOCH = "selection.epoch"
# Concurrent frontend: the fault-tolerant insights client's circuit
# breaker and degradation path, plus scheduler wave boundaries.
BREAKER_OPEN = "breaker.open"
BREAKER_HALF_OPEN = "breaker.half_open"
BREAKER_CLOSED = "breaker.closed"
FETCH_DEGRADED = "insights.degraded"
FETCH_RETRY = "insights.retry"
SCHEDULER_WAVE = "scheduler.wave"
# View lifecycle subsystem: invalidation cascades, GC sweeps, runtime
# epoch bumps, and the durable catalog journal.
LIFECYCLE_CASCADE = "lifecycle.cascade"
GC_SWEEP = "gc.sweep"
EPOCH_BUMPED = "epoch.bumped"
JOURNAL_SNAPSHOT = "journal.snapshot"
JOURNAL_RECOVERED = "journal.recovered"
# A claimed view vanished between compile and execute (the GC sweep won
# the race); the job fell back to a reuse-free recompile.
REUSE_FALLBACK = "execute.reuse_fallback"
# Failure hardening (the fault-injection subsystem's degradation trail):
# every retry, quarantine, torn journal record, and aborted sweep leaves
# a flight-recorder event so chaos campaigns can audit the reuse path's
# graceful-degradation guarantees after the fact.
EXECUTE_RETRY = "execute.retry"
VIEW_QUARANTINED = "view.quarantined"
WORKER_RETRIED = "scheduler.worker_retried"
JOURNAL_TORN_TAIL = "journal.torn_tail"
JOURNAL_WRITE_FAILED = "journal.write_failed"
GC_SWEEP_ABORTED = "gc.sweep_aborted"
VIEW_DROP_FAILED = "view.drop_failed"
# Sharded insights deployment (repro.shard): worker-process lifecycle as
# seen by the supervisor, plus router-observed RPC failures.  Per-shard
# latency lands in the metrics registry, not here.
SHARD_SPAWNED = "shard.spawned"
SHARD_DIED = "shard.died"
SHARD_RESTARTED = "shard.restarted"
SHARD_RPC_FAILED = "shard.rpc_failed"

ALL_KINDS = (
    VIEW_CREATED, VIEW_SEALED, VIEW_REUSED, VIEW_INVALIDATED, VIEW_EVICTED,
    LOCK_ACQUIRED, LOCK_DENIED, LOCK_RELEASED, KILL_SWITCH_FLIPPED,
    JOB_COMPILED, JOB_FINISHED, JOB_FAILED, SELECTION_EPOCH,
    BREAKER_OPEN, BREAKER_HALF_OPEN, BREAKER_CLOSED,
    FETCH_DEGRADED, FETCH_RETRY, SCHEDULER_WAVE,
    LIFECYCLE_CASCADE, GC_SWEEP, EPOCH_BUMPED,
    JOURNAL_SNAPSHOT, JOURNAL_RECOVERED,
    REUSE_FALLBACK,
    EXECUTE_RETRY, VIEW_QUARANTINED, WORKER_RETRIED,
    JOURNAL_TORN_TAIL, JOURNAL_WRITE_FAILED,
    GC_SWEEP_ABORTED, VIEW_DROP_FAILED,
    SHARD_SPAWNED, SHARD_DIED, SHARD_RESTARTED, SHARD_RPC_FAILED,
)


@dataclass(frozen=True)
class Event:
    """One structured record: what happened, when, to which job."""

    kind: str
    at: float
    job_id: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"kind": self.kind, "at": self.at}
        if self.job_id:
            payload["job_id"] = self.job_id
        if self.attrs:
            payload["attrs"] = self.attrs
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "Event":
        payload = json.loads(line)
        return Event(
            kind=payload["kind"],
            at=float(payload["at"]),
            job_id=payload.get("job_id", ""),
            attrs=payload.get("attrs", {}),
        )


class EventLog:
    """Append-only structured log."""

    def __init__(self) -> None:
        self._events: List[Event] = []

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------ #
    # writes

    def append(self, event: Event) -> Event:
        self._events.append(event)
        return event

    def emit(self, kind: str, at: float, job_id: str = "",
             **attrs: object) -> Event:
        return self.append(Event(kind=kind, at=at, job_id=job_id,
                                 attrs=attrs))

    # ------------------------------------------------------------------ #
    # reads

    def events(self, kind: Optional[str] = None,
               since: Optional[float] = None,
               job_id: Optional[str] = None) -> List[Event]:
        out = self._events
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if since is not None:
            out = [e for e in out if e.at >= since]
        if job_id is not None:
            out = [e for e in out if e.job_id == job_id]
        return list(out)

    def since_day(self, day: int) -> List[Event]:
        """Events at or after simulated midnight of ``day``."""
        return self.events(since=day * SECONDS_PER_DAY)

    def counts(self) -> Dict[str, int]:
        """Per-kind totals of the live stream."""
        out: Dict[str, int] = {}
        for event in self._events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    # ------------------------------------------------------------------ #
    # export / replay

    def dump_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            for event in self._events:
                handle.write(event.to_json() + "\n")
        return len(self._events)

    @staticmethod
    def load_jsonl(path: str) -> List[Event]:
        events: List[Event] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    events.append(Event.from_json(line))
        return events


def replay_counters(events: Iterable[Event]) -> Dict[str, float]:
    """Recompute the ``events.<kind>`` counter totals from a serialized
    stream.  A capture is consistent iff this equals the registry's
    ``events.*`` counters from the live run."""
    out: Dict[str, float] = {}
    for event in events:
        name = f"events.{event.kind}"
        out[name] = out.get(name, 0.0) + 1.0
    return out


#: Attribute values longer than this are elided in :func:`render_events`
#: (full values live in the JSONL export; think ``plan_text`` / ``sql``).
_ATTR_DISPLAY_WIDTH = 48


def _display_value(value: object) -> str:
    text = str(value).replace("\n", "\\n")
    if len(text) > _ATTR_DISPLAY_WIDTH:
        text = text[:_ATTR_DISPLAY_WIDTH - 3] + "..."
    return text


def render_events(events: Iterable[Event], limit: Optional[int] = None) -> str:
    """Operator-facing rendering of an event stream."""
    lines = [f"{'time':>12}  {'kind':<20} {'job':<12} attrs"]
    shown = 0
    for event in events:
        if limit is not None and shown >= limit:
            lines.append("  ... (truncated)")
            break
        attrs = " ".join(f"{k}={_display_value(event.attrs[k])}"
                         for k in sorted(event.attrs))
        lines.append(f"{event.at:>12.3f}  {event.kind:<20} "
                     f"{event.job_id:<12} {attrs}")
        shown += 1
    return "\n".join(lines)
