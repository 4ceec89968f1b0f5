"""Per-layer metrics of a traced repeat, derived from its spans.

Names are ``<src/repro package>.<what>``.  A ``_s`` metric is the
layer's *self* seconds summed over the window -- the span minus what its
child spans cover -- unless the span is in :data:`INCLUSIVE`.  With
scheduler threads these are thread-seconds and include GIL wait.  Times
are scaled to the reference machine by the window's mean speed, like the
end-to-end metrics.
"""

from __future__ import annotations

import statistics
import threading
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from trace import Span, self_times
from workloads import WorkloadSpec

if TYPE_CHECKING:
    from harness import Counters, RunLog

#: Reported as the time the caller waited, child spans included: on the
#: sharded workload the work of these layers happens across an RPC.
INCLUSIVE = ("engine.compile", "engine.execute", "lifecycle.journal_append",
             "lifecycle.invalidate", "lifecycle.gc_sweep")


def layer_metrics(spans: Sequence[Span], window: Tuple[float, float],
                  log: RunLog, before: Counters, after: Counters,
                  spec: WorkloadSpec) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``, from the spans
    inside ``window`` and the counters read at its edges."""
    start, end = window
    window_s = log.window_s
    speed = log.machine_speed
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    inside = [s for s in spans if s.start >= start and s.end <= end]
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    named: Dict[str, List[Span]] = {}
    for span in inside:
        self_s[span.name] = self_s.get(span.name, 0.0) + own[span.id]
        total_s[span.name] = total_s.get(span.name, 0.0) + span.seconds
        named.setdefault(span.name, []).append(span)

    def seconds(name: str) -> float:
        return speed * (total_s if name in INCLUSIVE
                        else self_s).get(name, 0.0)

    def calls(name: str) -> int:
        return len(named.get(name, ()))

    def notes(name: str) -> float:
        return sum(s.note or 0 for s in named.get(name, ()))

    def median_ms(name: str) -> float:
        found = named.get(name)
        return speed * statistics.median(s.seconds for s in found) * 1e3 \
            if found else 0.0

    jobs = max(1, log.attempted)
    store = {key: after.store[key] - before.store[key]
             for key in after.store}
    lookups = ((after.cache_hits - before.cache_hits)
               + (after.cache_misses - before.cache_misses))
    waves = after.waves - before.waves
    main_thread = threading.get_ident()  # the harness drives from here
    worker_busy_s = sum(s.seconds for s in inside
                        if s.parent is None and s.thread != main_thread)
    epochs = [c.seconds + s.seconds for c, s in zip(
        named.get("selection.candidates", ()),
        named.get("selection.select", ()))]
    spawn_s = speed * sum(s.seconds for s in spans
                          if s.name == "shard.spawn")
    return {
        "sql.parse_s": seconds("sql.parse"),
        "plan.build_s": seconds("plan.build"),
        "plan.normalize_s": seconds("plan.normalize"),
        "plan.nodes": log.plan_nodes,
        "optimizer.rewrite_s": seconds("optimizer.rewrite"),
        "optimizer.optimize_s": seconds("optimizer.optimize"),
        "optimizer.views_matched": log.views_matched,
        "optimizer.views_proposed": log.views_proposed,
        "signatures.enumerate_s": seconds("signatures.enumerate"),
        "signatures.sign_s": seconds("signatures.sign"),
        "signatures.sign_calls": calls("signatures.sign"),
        "signatures.sign_calls_per_job": calls("signatures.sign") / jobs,
        "insights.fetch_s": seconds("insights.fetch"),
        "insights.fetch_calls": calls("insights.fetch"),
        "insights.cache_hit_share": (
            (after.cache_hits - before.cache_hits) / lookups
            if lookups else 0.0),
        "insights.lock_s": seconds("insights.lock"),
        "insights.lock_calls": calls("insights.lock"),
        "insights.lock_denied": notes("insights.lock"),
        "insights.publish_s": seconds("insights.publish"),
        "insights.degraded_fetches": (after.degraded_fetches
                                      - before.degraded_fetches),
        "shard.rpc_s": seconds("shard.rpc"),
        "shard.rpc_calls": calls("shard.rpc"),
        "shard.rpc_calls_per_job": calls("shard.rpc") / jobs,
        "shard.rpc_p50_us": median_ms("shard.rpc") * 1e3,
        "shard.spawn_s": spawn_s,
        "shard.worker_cpu_s": speed * log.worker_cpu_s,
        "engine.compile_s": seconds("engine.compile"),
        "engine.execute_s": seconds("engine.execute"),
        "engine.compile_self_s": speed * self_s.get("engine.compile", 0.0),
        "engine.execute_self_s": speed * self_s.get("engine.execute", 0.0),
        "engine.reuse_fallbacks": sum(
            1 for s in named.get("engine.compile", ())
            if s.parent is not None
            and by_id[s.parent].name == "engine.execute"),
        "backends.execute_s": seconds("backends.execute"),
        "backends.execute_calls": calls("backends.execute"),
        "backends.rows_in": log.rows_in,
        "backends.rows_out": log.rows_out,
        "backends.bytes_read": log.bytes_read,
        "backends.load_table_s": seconds("backends.load_table"),
        "storage.seal_s": seconds("storage.seal"),
        "storage.views_created": store["total_created"],
        "storage.views_reused": store["total_reused"],
        "storage.reuse_per_build": (
            store["total_reused"] / store["total_created"]
            if store["total_created"] else 0.0),
        "storage.views_purged": store["total_purged"],
        "storage.pin_failures": notes("storage.pin"),
        "core.ingest_s": seconds("core.ingest"),
        "core.ingest_records": calls("core.ingest"),
        "selection.candidates_s": seconds("selection.candidates"),
        "selection.select_s": seconds("selection.select"),
        "selection.epochs": calls("selection.select"),
        "selection.selected_views": notes("selection.select"),
        "selection.epoch_p50_ms": (speed * statistics.median(epochs) * 1e3
                                   if epochs else 0.0),
        "lifecycle.journal_append_s": seconds("lifecycle.journal_append"),
        "lifecycle.journal_appends": calls("lifecycle.journal_append"),
        "lifecycle.journal_bytes": notes("lifecycle.journal_append"),
        "lifecycle.invalidate_s": seconds("lifecycle.invalidate"),
        "lifecycle.views_invalidated": store["total_purged"],
        "lifecycle.gc_sweep_s": seconds("lifecycle.gc_sweep"),
        "lifecycle.gc_removed": notes("lifecycle.gc_sweep"),
        "lifecycle.recover_s": 0.0,  # measured after close, by verify
        "scheduler.waves": waves,
        "scheduler.jobs_per_wave": log.attempted / waves if waves else 0.0,
        "scheduler.wave_p50_ms": median_ms("harness.wave"),
        "scheduler.barrier_wait_s": seconds("scheduler.drain"),
        "scheduler.thread_busy_share": (
            worker_busy_s / (spec.workers * window_s)
            if spec.workers else 0.0),
        "workload.cook_s": seconds("workload.cook"),
        "trace.coverage_share": sum(
            own[s.id] for s in inside
            if not s.name.startswith("harness.")) / window_s,
        "trace.overhead_share": 0.0,  # needs an untraced run; see run.py
        "trace.jobs": log.attempted,
        "trace.window_s": speed * window_s,
        "trace.machine_speed": speed,
        "jobs_reusing_share": log.reusing / jobs,
        "failed_share": log.failed / jobs,
    }
