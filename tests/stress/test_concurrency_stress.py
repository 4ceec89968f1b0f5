"""Stress tests of many jobs on one engine (run in CI via ``pytest -m
stress``), with and without injected serving-layer faults.

The jobs of a scheduler wave interleave: their fetches go out together,
and each compiles before any of them is sealed.  Serial jobs between the
waves stand in for the other callers of a busy deployment.  The
invariants under test:

* no duplicate view buildout for the same strict signature -- the
  insights service's lock table is the only guard;
* a failed producing job releases its view locks, so later jobs can
  build the signature;
* the circuit breaker walks closed -> open -> half-open -> closed under
  injected faults, and with >= 10% injected fetch failures every job
  still completes -- degraded jobs compile without reuse, none error;
* the service's ``UsageMetrics`` counters stay exact and monotonic.
"""

import pytest

from repro.catalog import schema_of
from repro.common.errors import ExecutionError
from repro.engine import ScopeEngine
from repro.executor import UdoRegistry
from repro.faults import NULL_FAULTS, resolve_faults
from repro.insights import InsightsClient
from repro.insights import client as client_module
from repro.obs import FlightRecorder
from repro.optimizer.context import Annotation
from repro.optimizer.rules import apply_rewrites
from repro.plan import PlanBuilder, normalize
from repro.plan.logical import Join
from repro.scheduler import JobRequest, JobScheduler, SchedulerConfig
from repro.signatures import enumerate_subexpressions
from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.sql import parse
from repro.workload.generator import generate_workload
from tests.integration.test_service_contract import usage

pytestmark = pytest.mark.stress

SQL = ("SELECT name, SUM(v) AS s FROM T JOIN D "
       "WHERE v > 1 GROUP BY name")
FAILING_SQL = ("SELECT name, SUM(v) AS s FROM T JOIN D "
               "WHERE v > 1 GROUP BY name PROCESS USING Explode")


def build_engine(insights=None):
    udos = UdoRegistry()

    def explode(rows):
        raise ExecutionError("injected container failure")

    udos.register("Explode", explode)
    engine = ScopeEngine(udos=udos, insights=insights)
    engine.register_table(
        schema_of("T", [("k", "int"), ("v", "float")]),
        [dict(k=i % 6, v=float(i)) for i in range(60)])
    engine.register_table(
        schema_of("D", [("k", "int"), ("name", "str")]),
        [dict(k=i, name=f"n{i}") for i in range(6)])
    return engine


def annotate_shared_join(engine, sql=SQL):
    plan = normalize(apply_rewrites(
        PlanBuilder(engine.catalog).build(parse(sql))))
    subs = enumerate_subexpressions(plan, engine.signature_salt)
    join = max((s for s in subs if isinstance(s.plan, Join)),
               key=lambda s: s.height)
    engine.insights.publish([Annotation(join.recurring, join.tag)])
    return join


class TestNoDuplicateBuildout:
    def test_signature_materialized_once_across_waves(self):
        engine = build_engine()
        annotate_shared_join(engine)
        scheduler = JobScheduler(engine, SchedulerConfig(workers=8))
        runs = []
        for wave in range(5):
            runs.append(engine.run_sql(SQL, now=float(wave)))
            results = scheduler.drain(
                [JobRequest(sql=SQL) for _ in range(8)], now=float(wave))
            runs.append(engine.run_sql(SQL, now=float(wave)))
            assert all(r.ok for r in results)
        # Built by the first job, reused by every later one: in a wave,
        # by its serial neighbours, and by every later wave.
        assert engine.view_store.total_created == 1
        assert sum(run.compiled.built_views for run in runs) == 1
        assert engine.view_store.total_reused >= 8 * 4
        assert engine.insights.held_locks() == {}

    def test_failed_producer_releases_lock_for_next_wave(self):
        engine = build_engine()
        join = annotate_shared_join(engine, sql=FAILING_SQL)
        scheduler = JobScheduler(engine, SchedulerConfig(workers=4))
        with pytest.raises(ExecutionError):
            engine.run_sql(FAILING_SQL, now=0.0)
        crashed = scheduler.drain(
            [JobRequest(sql=FAILING_SQL) for _ in range(4)], now=0.0)
        assert all(not r.ok for r in crashed)
        assert engine.insights.lock_holder(join.strict) is None
        # The same fragment is buildable by a healthy job now.
        healthy = scheduler.drain(
            [JobRequest(sql=SQL)], now=1.0)
        assert healthy[0].ok
        assert healthy[0].views_built == 1


class TestBreakerUnderFaults:
    def test_breaker_cycles_under_concurrent_faulty_fetches(
            self, monkeypatch):
        """Eight waves of 30 fetches each, every attempt failing: the
        fetches of a wave go out together, and none raises."""
        # No retries and a short cool-down: the breaker opens, probes and
        # reopens several times within one wave.
        monkeypatch.setattr(client_module, "MAX_RETRIES", 0)
        monkeypatch.setattr(client_module, "BREAKER_COOLDOWN_FETCHES", 10)
        client = InsightsClient()
        client.recorder = FlightRecorder()
        client.faults = resolve_faults("insights.rpc:error")
        client.publish([Annotation("rec-1", "tag-1")])

        def transitions():
            return [event.kind for event in client.recorder.events.events()
                    if event.kind.startswith("breaker.")]

        for _ in range(8):
            answers = client.fetch_wave([(["tag-1"], 0.0)] * 30)
            assert all(answer.degraded for answer in answers)
        assert client.breaker.state == "open"
        assert "breaker.open" in transitions()
        # Heal the service and drain the cooldown: closed again.
        client.faults = NULL_FAULTS
        for _ in range(client_module.BREAKER_COOLDOWN_FETCHES + 1):
            client.fetch_annotations(["tag-1"], now=0.0)
        assert client.breaker.state == "closed"
        assert transitions()[-2:] == ["breaker.half_open", "breaker.closed"]

    def test_ten_percent_fetch_failures_zero_job_failures(self, monkeypatch):
        # >= 10% of serving round trips fail; with retries disabled every
        # fault degrades its job.  Jobs must all succeed anyway.
        monkeypatch.setattr(client_module, "MAX_RETRIES", 0)
        workload = generate_workload(seed=11)
        config = SimulationConfig(days=2, workers=8)
        with config.open_session(
                faults="insights.rpc:drop:0.08;insights.rpc:error:0.07",
                ) as session:
            report = WorkloadSimulation(workload, config,
                                        session=session).run()
        assert report.jobs > 50
        assert report.failures == 0
        assert report.degraded_jobs > 0
        assert session.insights.degraded_fetches > 0

    def test_degraded_jobs_match_baseline_rows(self, monkeypatch):
        # A degraded compile must still return correct results -- it just
        # skips reuse.  Compare each faulty-run job against a clean run.
        # No retries: every injected drop degrades its job.
        monkeypatch.setattr(client_module, "MAX_RETRIES", 0)
        monkeypatch.setattr(client_module, "JITTER_SEED", "client-jitter-3")

        def outcomes(faults):
            client = InsightsClient()
            client.faults = faults
            engine = build_engine(insights=client)
            annotate_shared_join(engine)
            scheduler = JobScheduler(engine, SchedulerConfig(workers=8))
            results = []
            for wave in range(4):
                results += scheduler.drain(
                    [JobRequest(sql=SQL) for _ in range(6)],
                    now=float(wave))
            return results

        faulty = outcomes(resolve_faults("seed=5;insights.rpc:drop:0.2"))
        clean = outcomes(NULL_FAULTS)
        assert all(r.ok for r in faulty)
        assert any(r.degraded for r in faulty)
        expected = sorted(map(repr, clean[0].rows))
        for result in faulty:
            assert sorted(map(repr, result.rows)) == expected


class TestUsageMetricsAcrossWaves:
    def test_service_metrics_monotonic_under_concurrent_fetches(self):
        engine = build_engine()
        annotate_shared_join(engine)
        metrics = engine.insights.metrics
        snapshots = [usage(metrics)]
        scheduler = JobScheduler(engine, SchedulerConfig(workers=8))
        spy_compile = engine.compile

        def compile_and_sample(*args, **kwargs):
            snapshots.append(usage(metrics))
            return spy_compile(*args, **kwargs)

        engine.compile = compile_and_sample
        for wave in range(4):
            for _ in range(3):
                engine.run_sql(SQL, now=float(wave))
            scheduler.drain(
                [JobRequest(sql=SQL) for _ in range(10)], now=float(wave))
            snapshots.append(usage(metrics))

        # Ten jobs a wave and three serial jobs beside each.
        assert metrics.fetches == 4 * (10 + 3)
        assert len(snapshots) == 1 + 4 * (10 + 3) + 4
        for earlier, later in zip(snapshots, snapshots[1:]):
            for name, value in earlier.items():
                assert later[name] >= value, f"{name} went backwards"
