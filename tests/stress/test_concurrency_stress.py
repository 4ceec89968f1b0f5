"""Concurrency stress tests (run in CI via ``pytest -m stress``).

N threads x M jobs hammering one engine, with and without injected
serving-layer faults.  A scheduler wave runs on the thread that drains
it, so the tests that drive waves race them with callers of their own
(:func:`tests.threads.alongside`).  The invariants under test:

* no duplicate view buildout for the same strict signature -- the
  insights service's atomic lock table is the only guard;
* a failed producing job releases its view locks, so later jobs can
  build the signature;
* the circuit breaker walks closed -> open -> half-open -> closed under
  injected faults, and with >= 10% injected fetch failures every job
  still completes -- degraded jobs compile without reuse, none error;
* ``UsageMetrics`` counters stay exact and monotonic under threads;
* eight threads re-binding one cached plan skeleton while the catalog
  rolls GUIDs under them never raise and never scan a GUID the catalog
  did not issue.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.catalog import schema_of
from repro.common.errors import ExecutionError
from repro.engine import ScopeEngine
from repro.engine.engine import JobRun
from repro.executor import UdoRegistry
from repro.faults import NULL_FAULTS, resolve_faults
from repro.insights import InsightsClient, InsightsClientConfig
from repro.insights.service import UsageMetrics
from repro.optimizer.context import Annotation
from repro.optimizer.rules import apply_rewrites
from repro.plan import PlanBuilder, normalize
from repro.plan.logical import Join, Scan
from repro.scheduler import JobRequest, JobScheduler, SchedulerConfig
from repro.signatures import enumerate_subexpressions
from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.sql import parse
from repro.workload.generator import generate_workload
from tests.threads import alongside

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
    def test_many_threads_one_buildout_per_signature(self):
        engine = build_engine()
        annotate_shared_join(engine)
        # Straight onto the engine: the scheduler would hand out build
        # locks in submission order, and this is about the lock table
        # being the only guard when nothing orders the requests.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                runs = list(pool.map(
                    lambda _: engine.finish(
                        engine.execute(engine.compile(SQL, now=0.0)), at=0.0),
                    range(40)))
        finally:
            sys.setswitchinterval(interval)
        # 40 concurrent jobs raced for one shared join: exactly one won
        # the lock and materialized; everyone else was denied, found the
        # materialization slot open, or (once it sealed) reused the view.
        assert sum(run.compiled.built_views for run in runs) == 1
        assert engine.view_store.total_created == 1
        assert engine.insights.held_locks() == {}

    def test_signature_materialized_once_across_waves(self):
        engine = build_engine()
        annotate_shared_join(engine)
        scheduler = JobScheduler(engine, SchedulerConfig(workers=8))
        for wave in range(5):
            with alongside(lambda: engine.run_sql(
                    SQL, now=float(wave))) as runs:
                results = scheduler.drain(
                    [JobRequest(sql=SQL) for _ in range(8)],
                    now=float(wave))
            assert all(r.ok for r in results)
            assert all(isinstance(run, JobRun) for run in runs), runs
        # Built in wave 0 (by a job of the wave or one racing it),
        # reused by every later wave.
        assert engine.view_store.total_created == 1
        assert engine.view_store.total_reused >= 8 * 4

    def test_failed_producer_releases_lock_for_next_wave(self):
        engine = build_engine()
        join = annotate_shared_join(engine, sql=FAILING_SQL)
        scheduler = JobScheduler(engine, SchedulerConfig(workers=4))
        with alongside(lambda: engine.run_sql(
                FAILING_SQL, now=0.0)) as runs:
            crashed = scheduler.drain(
                [JobRequest(sql=FAILING_SQL) for _ in range(4)],
                now=0.0)
        assert all(not r.ok for r in crashed)
        assert all(isinstance(run, ExecutionError) for run in runs), runs
        assert engine.insights.lock_holder(join.strict) is None
        # The same fragment is buildable by a healthy job now.
        healthy = scheduler.drain(
            [JobRequest(sql=SQL)], now=1.0)
        assert healthy[0].ok
        assert healthy[0].views_built == 1


class TestBreakerUnderFaults:
    def test_breaker_cycles_under_concurrent_faulty_fetches(self):
        config = InsightsClientConfig(
            max_retries=0, breaker_failure_threshold=5,
            breaker_cooldown_fetches=10)
        client = InsightsClient(config=config)
        client.faults = resolve_faults("insights.rpc:error")
        client.publish([Annotation("rec-1", "tag-1")])
        errors = []

        def hammer(count):
            try:
                for _ in range(count):
                    client.fetch_annotations(["tag-1"], now=0.0)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(30,))
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, "degradation must never raise into the caller"
        assert client.breaker.state == "open"
        assert "open" in client.breaker.transitions
        # Heal the service and drain the cooldown: closed again.
        client.faults = NULL_FAULTS
        for _ in range(config.breaker_cooldown_fetches + 1):
            client.fetch_annotations(["tag-1"], now=0.0)
        assert client.breaker.state == "closed"
        assert client.breaker.transitions[-2:] == ["half-open", "closed"]

    def test_ten_percent_fetch_failures_zero_job_failures(self):
        # >= 10% of serving round trips fail; with retries disabled every
        # fault degrades its job.  Jobs must all succeed anyway.
        workload = generate_workload(seed=11)
        config = SimulationConfig(days=2, workers=8)
        with config.open_session(
                client_config=InsightsClientConfig(max_retries=0),
                faults="insights.rpc:drop:0.08;insights.rpc:error:0.07",
                ) as session:
            report = WorkloadSimulation(workload, config,
                                        session=session).run()
        assert report.jobs > 50
        assert report.failures == 0
        assert report.degraded_jobs > 0
        assert session.insights.degraded_fetches > 0

    def test_degraded_jobs_match_baseline_rows(self):
        # A degraded compile must still return correct results -- it just
        # skips reuse.  Compare each faulty-run job against a clean run.
        def outcomes(faults):
            client = InsightsClient(
                config=InsightsClientConfig(max_retries=0, seed=3))
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


class TestUsageMetricsUnderThreads:
    def test_counters_exact_and_monotonic(self):
        metrics = UsageMetrics()
        threads_n, per_thread = 8, 2000
        snapshots = []
        stop = threading.Event()

        def bump():
            for _ in range(per_thread):
                metrics.inc("fetches")
                metrics.inc("annotations_served", 3)

        def sample():
            while not stop.is_set():
                snapshots.append(metrics.snapshot())

        sampler = threading.Thread(target=sample)
        workers = [threading.Thread(target=bump) for _ in range(threads_n)]
        sampler.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        stop.set()
        sampler.join()

        assert metrics.fetches == threads_n * per_thread
        assert metrics.annotations_served == threads_n * per_thread * 3
        for earlier, later in zip(snapshots, snapshots[1:]):
            for name, value in earlier.items():
                assert later[name] >= value, f"{name} went backwards"

    def test_service_metrics_monotonic_under_concurrent_fetches(self):
        engine = build_engine()
        annotate_shared_join(engine)
        snapshots = []
        stop = threading.Event()

        def sample():
            while not stop.is_set():
                snapshots.append(engine.insights.metrics.snapshot())

        sampler = threading.Thread(target=sample)
        sampler.start()
        scheduler = JobScheduler(engine, SchedulerConfig(workers=8))
        for wave in range(4):
            with alongside(lambda: engine.run_sql(
                    SQL, now=float(wave)), threads=3):
                scheduler.drain(
                    [JobRequest(sql=SQL) for _ in range(10)],
                    now=float(wave))
        stop.set()
        sampler.join()

        # Ten jobs a wave and three callers racing each.
        assert engine.insights.metrics.fetches == 4 * (10 + 3)
        for earlier, later in zip(snapshots, snapshots[1:]):
            for name, value in earlier.items():
                assert later[name] >= value, f"{name} went backwards"


class TestPlanCacheUnderThreads:
    def test_eight_threads_compile_one_template_while_another_cooks(self):
        """Instances share skeleton subtrees across threads while the
        catalog rolls GUIDs under them: nothing raises (the debug
        cross-check compiles every hit from scratch too), every plan
        scans a GUID the catalog really issued, and the counters add up."""
        engine = build_engine()
        engine.config.debug_checks = True
        sql = ("SELECT name, SUM(v) AS s FROM T JOIN D "
               "WHERE v > @low GROUP BY name")
        threads_n, per_thread = 8, 40
        engine.compile(sql, {"low": 0.0})
        rows = list(engine.backend.scan_table(
            engine.catalog.current_guid("T")))
        plans, errors = [], []
        stop = threading.Event()

        def compile_many(offset):
            try:
                for index in range(per_thread):
                    low = float((offset + index) % 3)
                    plans.append(engine.compile(sql, {"low": low}).plan)
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        def cook():
            day = 0
            while not stop.is_set():
                day += 1
                engine.bulk_update("T", rows, at=float(day))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            cooker = threading.Thread(target=cook)
            workers = [threading.Thread(target=compile_many, args=(n,))
                       for n in range(threads_n)]
            cooker.start()
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
            stop.set()
            cooker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not cooker.is_alive()
        assert not any(thread.is_alive() for thread in workers)
        assert not errors, errors[:3]

        issued = {dataset: {v.guid for v in
                            engine.catalog.entry(dataset).versions}
                  for dataset in ("T", "D")}
        assert len(issued["T"]) > 1, "the cook never ran"
        assert len(plans) == threads_n * per_thread
        for plan in plans:
            for node in plan.walk():
                if isinstance(node, Scan):
                    assert node.stream_guid in issued[node.dataset]
        cache = engine.plan_cache
        assert cache.hits + cache.misses == len(plans) + 1
        assert cache.hits > 0 and cache.unstable == 0
