"""Lifecycle stress tests (run in CI via ``pytest -m stress``).

A hostile thread of the test's own sweeps aggressively while the job
scheduler hammers the same engine (a sweep is a step its caller runs;
nothing in the library sweeps on a timer).  The invariants under test:

* no job ever fails because a sweep collected a view it was reading
  -- execute-time pins keep in-flight ViewScans resident;
* reuse results equal the no-GC baseline results (the matcher's atomic
  ``claim_for_reuse`` means a claimed view cannot be swept mid-scan);
* ViewStore counters stay monotonic while builds, reuses, purges, and
  sweeps interleave;
* crash-recovery holds under churn: a journal written while sweeps and
  the scheduler race still replays to the exact pre-crash digest.
"""

import threading

import pytest

from repro.catalog import schema_of
from repro.engine import ScopeEngine
from repro.engine.engine import EngineConfig
from repro.lifecycle import LifecycleConfig, LifecycleManager
from repro.optimizer.context import Annotation
from repro.optimizer.rules import apply_rewrites
from repro.plan import PlanBuilder, normalize
from repro.plan.logical import Join
from repro.scheduler import JobRequest, JobScheduler, SchedulerConfig
from repro.signatures import enumerate_subexpressions
from repro.sql import parse

pytestmark = pytest.mark.stress

SQL = ("SELECT name, SUM(v) AS s FROM T JOIN D "
       "WHERE v > 1 GROUP BY name")


def build_engine(ttl=30.0):
    engine = ScopeEngine(config=EngineConfig(view_ttl_seconds=ttl))
    engine.register_table(
        schema_of("T", [("k", "int"), ("v", "float")]),
        [dict(k=i % 6, v=float(i)) for i in range(60)])
    engine.register_table(
        schema_of("D", [("k", "int"), ("name", "str")]),
        [dict(k=i, name=f"n{i}") for i in range(6)])
    return engine


def annotate_shared_join(engine):
    plan = normalize(apply_rewrites(
        PlanBuilder(engine.catalog).build(parse(SQL))))
    subs = enumerate_subexpressions(plan, engine.signature_salt)
    join = max((s for s in subs if isinstance(s.plan, Join)),
               key=lambda s: s.height)
    engine.insights.publish([Annotation(join.recurring, join.tag)])
    return join


def result_set(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


class TestJanitorVsScheduler:
    def test_sweeping_janitor_never_breaks_a_reading_job(self):
        engine = build_engine(ttl=30.0)
        manager = LifecycleManager(engine, LifecycleConfig())
        annotate_shared_join(engine)
        baseline = result_set(
            engine.run_sql(SQL, reuse_enabled=False, now=0.0).rows)

        stop = threading.Event()
        sweep_errors = []

        def hostile_janitor():
            # Sweeps with the clock pinned far in the future, so every
            # sealed view is expiry-eligible the moment it exists; only
            # pins keep readers safe.
            while not stop.is_set():
                try:
                    manager.sweep(now=1e9)
                except Exception as exc:  # pragma: no cover
                    sweep_errors.append(exc)

        janitor = threading.Thread(target=hostile_janitor)
        janitor.start()
        try:
            results = []
            scheduler = JobScheduler(engine, SchedulerConfig(workers=8))
            for wave in range(6):
                results.extend(scheduler.drain(
                    [JobRequest(sql=SQL) for _ in range(10)],
                    now=float(wave)))
        finally:
            stop.set()
            janitor.join()

        manager.close()
        assert sweep_errors == []
        assert all(r.ok for r in results), \
            [r.error for r in results if not r.ok]
        for result in results:
            assert result_set(result.run.rows) == baseline

    def test_counters_stay_monotonic_under_combined_churn(self):
        engine = build_engine(ttl=5.0)
        manager = LifecycleManager(engine, LifecycleConfig())
        annotate_shared_join(engine)

        snapshots = []
        stop = threading.Event()

        def sweeper():
            now = 0.0
            while not stop.is_set():
                now += 10.0
                manager.sweep(now=now)
                snapshots.append(engine.view_store.counters())

        thread = threading.Thread(target=sweeper)
        thread.start()
        try:
            scheduler = JobScheduler(engine, SchedulerConfig(workers=6))
            for wave in range(10):
                scheduler.drain(
                    [JobRequest(sql=SQL) for _ in range(5)],
                    now=float(wave * 3))
        finally:
            stop.set()
            thread.join()
        snapshots.append(engine.view_store.counters())
        manager.close()

        keys = ("total_created", "total_reused", "total_expired",
                "total_purged", "total_gc_evicted")
        for earlier, later in zip(snapshots, snapshots[1:]):
            for key in keys:
                assert later[key] >= earlier[key], key

    def test_journal_under_churn_still_replays_to_digest(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        engine = build_engine(ttl=40.0)
        manager = LifecycleManager(
            engine, LifecycleConfig(journal_dir=journal_dir,
                                    snapshot_every_ops=7))
        annotate_shared_join(engine)

        stop = threading.Event()

        def sweeper():
            now = 0.0
            while not stop.is_set():
                now += 25.0
                manager.sweep(now=now)

        thread = threading.Thread(target=sweeper)
        thread.start()
        try:
            scheduler = JobScheduler(engine, SchedulerConfig(workers=6))
            for wave in range(8):
                scheduler.drain(
                    [JobRequest(sql=SQL) for _ in range(5)],
                    now=float(wave * 2))
        finally:
            stop.set()
            thread.join()
        digest = engine.view_store.catalog_digest()
        counters = engine.view_store.counters()
        # Crash without close(): snapshot + WAL tail must reproduce
        # the catalog exactly.

        fresh = ScopeEngine()
        manager2 = LifecycleManager(
            fresh, LifecycleConfig(journal_dir=journal_dir))
        try:
            assert fresh.view_store.catalog_digest() == digest
            assert fresh.view_store.counters() == counters
        finally:
            manager2.close()
