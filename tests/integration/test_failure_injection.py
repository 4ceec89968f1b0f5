"""Failure-injection tests: producing jobs that die mid-materialization.

A failed producer must not leave the system wedged: unsealed views are
abandoned, view-creation locks are released, and the next job over the
same subexpression can acquire the build.
"""

import pytest

from repro.catalog import schema_of
from repro.common.errors import ExecutionError
from repro.engine import ScopeEngine
from repro.executor import UdoRegistry
from repro.optimizer.context import Annotation
from repro.plan import PlanBuilder, normalize
from repro.optimizer.rules import apply_rewrites
from repro.signatures import enumerate_subexpressions
from repro.sql import parse


class _Bomb(Exception):
    pass


@pytest.fixture
def engine():
    udos = UdoRegistry()

    def explode(rows):
        raise ExecutionError("injected container failure")

    udos.register("Explode", explode)
    udos.register("Slow", lambda rows: rows)
    eng = ScopeEngine(udos=udos)
    eng.register_table(
        schema_of("T", [("k", "int"), ("v", "float")]),
        [dict(k=i % 6, v=float(i)) for i in range(60)])
    eng.register_table(
        schema_of("D", [("k", "int"), ("name", "str")]),
        [dict(k=i, name=f"n{i}") for i in range(6)])
    return eng


#: The shared fragment lives BELOW the exploding UDO, so the job fails
#: after the spool would have been planned but the whole run aborts.
FAILING_SQL = ("SELECT name, SUM(v) AS s FROM T JOIN D GROUP BY name "
               "PROCESS USING Explode")
HEALTHY_SQL = "SELECT name, SUM(v) AS s FROM T JOIN D GROUP BY name"


def annotate(engine, sql=HEALTHY_SQL):
    plan = normalize(apply_rewrites(
        PlanBuilder(engine.catalog).build(parse(sql))))
    subs = enumerate_subexpressions(plan, engine.signature_salt)
    join = max((s for s in subs if s.operator == "Join"),
               key=lambda s: s.height)
    engine.insights.publish([Annotation(join.recurring, join.tag)])
    return join


class TestProducerFailure:
    def test_failed_producer_abandons_unsealed_views(self, engine):
        join = annotate(engine)
        compiled = engine.compile(FAILING_SQL)
        assert compiled.built_views == 1
        with pytest.raises(ExecutionError):
            engine.execute(compiled)
        # The unsealed view is gone; nothing is stuck "materializing".
        strict = compiled.optimized.proposals[0].strict_signature
        assert not engine.view_store.is_materializing(strict, now=1.0)
        assert engine.view_store.lookup(strict, now=1.0) is None

    def test_failed_producer_releases_lock(self, engine):
        annotate(engine)
        compiled = engine.compile(FAILING_SQL)
        strict = compiled.optimized.proposals[0].strict_signature
        with pytest.raises(ExecutionError):
            engine.execute(compiled)
        assert engine.insights.lock_holder(strict) is None

    def test_next_job_takes_over_the_build(self, engine):
        annotate(engine)
        failing = engine.compile(FAILING_SQL)
        with pytest.raises(ExecutionError):
            engine.execute(failing)
        # A healthy job over the same fragment builds and seals the view.
        healthy = engine.run_sql(HEALTHY_SQL, now=1.0)
        assert healthy.compiled.built_views == 1
        assert healthy.sealed_views
        reuser = engine.run_sql(HEALTHY_SQL, now=2.0)
        assert reuser.compiled.reused_views == 1

    def test_in_flight_build_blocks_concurrent_job_until_failure(self, engine):
        annotate(engine)
        failing = engine.compile(FAILING_SQL)
        # Compiled (lock held, view unsealed): a concurrent compile of the
        # same fragment neither builds nor reuses.
        concurrent = engine.compile(HEALTHY_SQL, now=0.0)
        assert concurrent.built_views == 0
        assert concurrent.reused_views == 0
        with pytest.raises(ExecutionError):
            engine.execute(failing)
        # After the failure cleanup, the fragment is buildable again.
        retry = engine.compile(HEALTHY_SQL, now=1.0)
        assert retry.built_views == 1

    def test_failure_does_not_corrupt_history(self, engine):
        annotate(engine)
        failing = engine.compile(FAILING_SQL)
        with pytest.raises(ExecutionError):
            engine.execute(failing)
        run = engine.run_sql(HEALTHY_SQL, now=1.0)
        again = engine.run_sql(HEALTHY_SQL, now=2.0)
        assert sorted(map(repr, run.rows)) == sorted(map(repr, again.rows))


class TestSimulatorFailureTolerance:
    def test_factory_exception_does_not_kill_other_jobs(self):
        """A job whose compilation explodes must not wedge the cluster."""
        from repro.cluster import ClusterSimulator, SimulatedJob, StageGraph

        sim = ClusterSimulator(total_containers=4, work_rate=100.0,
                               container_startup=0.0)
        good = StageGraph()
        stage = good.new_stage()
        stage.work = 100.0
        stage.partitions = 1

        def bad_factory(now):
            return None  # the runner converts failures into no-shows

        sim.add_arrival(0.0, bad_factory)
        sim.add_arrival(1.0, lambda now: SimulatedJob("ok", "vc", 1.0, good))
        results = sim.run()
        assert [t.job_id for t in results] == ["ok"]
