"""Unit tests for the engine facade and the insights service."""

import pytest

from repro.catalog import schema_of
from repro.common.errors import InsightsError
from repro.engine import ScopeEngine
from repro.insights import InsightsClient, InsightsService
from repro.optimizer.context import Annotation
from repro.plan import PlanBuilder, normalize
from repro.plan.logical import Join
from repro.signatures import enumerate_subexpressions
from repro.sql import parse


@pytest.fixture
def engine():
    eng = ScopeEngine()
    eng.register_table(
        schema_of("Sales", [("CustomerId", "int"), ("Price", "float"),
                            ("Day", "str")]),
        [dict(CustomerId=i % 5, Price=float(i), Day="d0")
         for i in range(50)])
    eng.register_table(
        schema_of("Customer", [("CustomerId", "int"), ("MktSegment", "str")]),
        [dict(CustomerId=i, MktSegment="Asia" if i % 2 else "Europe")
         for i in range(5)])
    return eng


SQL = ("SELECT CustomerId, SUM(Price) AS s FROM Sales JOIN Customer "
       "WHERE MktSegment = 'Asia' GROUP BY CustomerId")


def annotate_join(engine, sql=SQL):
    from repro.optimizer.rules import apply_rewrites
    plan = normalize(apply_rewrites(PlanBuilder(engine.catalog).build(parse(sql))))
    subs = enumerate_subexpressions(plan, engine.signature_salt)
    join = max((s for s in subs if isinstance(s.plan, Join)),
               key=lambda s: s.height)
    engine.insights.publish([Annotation(join.recurring, join.tag)])
    return join


class TestEngineLifecycle:
    def test_build_then_reuse_same_results(self, engine):
        annotate_join(engine)
        first = engine.run_sql(SQL)
        second = engine.run_sql(SQL, now=1.0)
        assert first.compiled.built_views == 1
        assert second.compiled.reused_views == 1
        assert sorted(map(repr, first.rows)) == sorted(map(repr, second.rows))

    def test_compile_fetches_annotations_with_latency(self, engine):
        annotate_join(engine)
        compiled = engine.compile(SQL)
        assert compiled.tags
        assert compiled.compile_latency > 0

    def test_views_disabled_per_job(self, engine):
        annotate_join(engine)
        run = engine.run_sql(SQL, reuse_enabled=False)
        assert run.compiled.built_views == 0
        assert run.compiled.compile_latency == 0.0

    def test_bulk_update_invalidates_views(self, engine):
        annotate_join(engine)
        engine.run_sql(SQL)
        engine.bulk_update("Sales", [dict(CustomerId=1, Price=9.0, Day="d1")])
        run = engine.run_sql(SQL, now=2.0)
        assert run.compiled.reused_views == 0
        assert run.compiled.built_views == 1  # rebuilt over new stream

    def test_gdpr_forget_invalidates_and_filters(self, engine):
        annotate_join(engine)
        engine.run_sql(SQL)
        engine.gdpr_forget("Sales", lambda row: row["CustomerId"] != 1)
        run = engine.run_sql(SQL, now=2.0)
        assert run.compiled.reused_views == 0
        assert all(r["CustomerId"] != 1 for r in run.rows)

    def test_runtime_version_change_invalidates_everything(self, engine):
        annotate_join(engine)
        engine.run_sql(SQL)
        engine.set_runtime_version("scope-r2")
        run = engine.run_sql(SQL, now=2.0)
        assert run.compiled.reused_views == 0
        # Old annotations were salted with the old version: no builds either.
        assert run.compiled.built_views == 0

    def test_deferred_sealing(self, engine):
        annotate_join(engine)
        compiled = engine.compile(SQL)
        run = engine.execute(compiled, now=0.0)
        assert run.sealed_views == []
        other = engine.run_sql(SQL, now=1.0)
        assert other.compiled.reused_views == 0  # still unsealed
        signature = run.result.spooled[0].signature
        engine.seal_spooled(run, signature, at=2.0)
        third = engine.run_sql(SQL, now=3.0)
        assert third.compiled.reused_views == 1

    def test_both_reuse_fallbacks_say_why(self, engine):
        from repro.faults import FaultPlan, FaultRuntime, FaultSpec, points
        from repro.obs import FlightRecorder

        recorder = FlightRecorder()
        recorder.install(engine)
        annotate_join(engine)
        expected = sorted(map(repr, engine.run_sql(SQL).rows))

        def reasons():
            return [event.attrs["reason"] for event in
                    recorder.events.events(kind="execute.reuse_fallback")]

        # The view read fails: strike, recompute without reuse.
        engine.backend.faults = FaultRuntime(FaultPlan(specs=[
            FaultSpec(points.BACKEND_SCAN_VIEW, "storage", max_fires=1)]))
        run = engine.run_sql(SQL, now=1.0)
        assert sorted(map(repr, run.rows)) == expected
        assert reasons() == ["view_read_failure"]
        # The view is collected between the claim and the pin.
        claimed = engine.compile(SQL, now=2.0)
        assert claimed.reused_views == 1
        [view] = engine.view_store.views()
        assert engine.view_store.remove(view.signature, reason="gc")
        run = engine.execute(claimed, now=2.0)
        assert sorted(map(repr, run.rows)) == expected
        assert run.compiled.reused_views == 0
        assert reasons() == ["view_read_failure", "pin_lost"]
        assert recorder.metrics.counters["execute.reuse_fallbacks"] == 2

    def test_history_recorded_after_execution(self, engine):
        engine.run_sql(SQL)
        assert len(engine.history) > 0

    def test_insights_kill_switch_stops_reuse(self, engine):
        annotate_join(engine)
        engine.run_sql(SQL)
        engine.insights.enabled = False
        run = engine.run_sql(SQL, now=1.0)
        assert run.compiled.reused_views == 0

    def test_job_ids_unique(self, engine):
        a = engine.compile(SQL)
        b = engine.compile(SQL)
        assert a.job_id != b.job_id


def signatures_by_list(replies):
    """A lookup's replies as recurring signatures per list, per tag."""
    return [[[a.recurring_signature for a in per_tag] for per_tag in found]
            for found, _ in replies]


class TestInsightsService:
    def test_publish_and_fetch_by_tag(self):
        service = InsightsService()
        service.publish([Annotation("r1", "tagA"), Annotation("r2", "tagB")])
        replies = service.lookup([["tagA"]])
        assert signatures_by_list(replies) == [[["r1"]]]
        assert replies[0][1] == 0.015

    def test_fetch_caches_tags(self):
        service = InsightsService()
        service.publish([Annotation("r1", "tagA")])
        [(_, first_latency)] = service.lookup([["tagA"]])
        [(_, second_latency)] = service.lookup([["tagA"]])
        assert (first_latency, second_latency) == (0.015, 0.0015)
        assert service.metrics.cache_hits == 1
        assert service.metrics.cache_misses == 1

    def test_publish_replaces_previous_generation(self):
        service = InsightsService()
        service.publish([Annotation("r1", "tagA")])
        service.publish([Annotation("r2", "tagB")])
        assert service.generation == 2
        assert signatures_by_list(service.lookup([["tagA"], ["tagB"]])) \
            == [[[]], [["r2"]]]

    def test_disabled_service_serves_nothing(self):
        service = InsightsService()
        service.publish([Annotation("r1", "tagA")])
        service.enabled = False
        fetched = InsightsClient(service).fetch_annotations(["tagA"])
        assert fetched == ({}, 0.0, False)
        # The fetch is counted; no tag went to the serving layer.
        assert (service.metrics.fetches,
                service.metrics.cache_misses) == (1, 0)

    def test_lock_exclusive(self):
        service = InsightsService()
        assert service.acquire_view_lock("sig", "job1")
        assert not service.acquire_view_lock("sig", "job2")
        assert service.metrics.locks_denied == 1

    def test_lock_reentrant_for_holder(self):
        service = InsightsService()
        assert service.acquire_view_lock("sig", "job1")
        assert service.acquire_view_lock("sig", "job1")

    def test_release_by_wrong_holder_raises(self):
        service = InsightsService()
        service.acquire_view_lock("sig", "job1")
        with pytest.raises(InsightsError):
            service.release_view_lock("sig", "job2")

    def test_report_available_releases_lock(self):
        service = InsightsService()
        service.acquire_view_lock("sig", "job1")
        service.report_view_available("sig", "job1")
        assert service.lock_holder("sig") is None
        assert service.acquire_view_lock("sig", "job2")

    def test_disabled_service_denies_locks(self):
        service = InsightsService()
        service.enabled = False
        assert not service.acquire_view_lock("sig", "job1")

    def test_release_unheld_lock_is_noop(self):
        InsightsService().release_view_lock("sig", "job1")
