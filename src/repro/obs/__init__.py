"""Flight recorder: unified tracing, metrics, and structured event log.

The observability substrate for the reuse feedback loop (Figure 5's
monitoring and telemetry boxes).  DESIGN §6 has the span taxonomy and
the capture files.
"""

from repro.obs.events import (
    ALL_KINDS,
    Event,
    EventLog,
    JOB_COMPILED,
    JOB_FINISHED,
    KILL_SWITCH_FLIPPED,
    LOCK_ACQUIRED,
    LOCK_DENIED,
    LOCK_RELEASED,
    SELECTION_EPOCH,
    VIEW_CREATED,
    VIEW_EVICTED,
    VIEW_INVALIDATED,
    VIEW_REUSED,
    VIEW_SEALED,
    render_events,
    replay_counters,
)
from repro.obs.metrics import Histogram, MetricsRegistry, percentile
from repro.obs.recorder import (
    EVENTS_FILE,
    METRICS_FILE,
    NULL_RECORDER,
    SPANS_FILE,
    FlightRecorder,
    NullRecorder,
    load_capture,
)
from repro.obs.tracing import Span, Tracer, render_flamegraph

__all__ = [
    "ALL_KINDS",
    "Event",
    "EventLog",
    "EVENTS_FILE",
    "FlightRecorder",
    "Histogram",
    "JOB_COMPILED",
    "JOB_FINISHED",
    "KILL_SWITCH_FLIPPED",
    "LOCK_ACQUIRED",
    "LOCK_DENIED",
    "LOCK_RELEASED",
    "METRICS_FILE",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "SELECTION_EPOCH",
    "Span",
    "SPANS_FILE",
    "Tracer",
    "VIEW_CREATED",
    "VIEW_EVICTED",
    "VIEW_INVALIDATED",
    "VIEW_REUSED",
    "VIEW_SEALED",
    "load_capture",
    "percentile",
    "render_events",
    "render_flamegraph",
    "replay_counters",
]
