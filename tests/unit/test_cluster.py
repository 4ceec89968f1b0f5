"""Unit tests for stage graphs and the cluster simulator."""

import pytest

from repro.catalog import Catalog, schema_of
from repro.cluster import (
    ClusterSimulator,
    SimulatedJob,
    Stage,
    StageGraph,
    build_stage_graph,
)
from repro.executor import Executor
from repro.optimizer import CardinalityEstimator
from repro.plan import PlanBuilder, Spool, normalize
from repro.sql import parse
from repro.storage import DataStore


def make_graph(*stage_specs):
    """stage_specs: (work, partitions, deps, is_writer)"""
    graph = StageGraph()
    for work, partitions, deps, writer in stage_specs:
        stage = graph.new_stage()
        stage.work = work
        stage.partitions = partitions
        stage.dependencies = list(deps)
        stage.is_spool_writer = writer
        if writer:
            stage.spool_signature = f"sig{stage.stage_id}"
    return graph


def job(graph, job_id="j1", vc="vc1", submit=0.0, **kwargs):
    return SimulatedJob(job_id=job_id, virtual_cluster=vc,
                        submit_time=submit, graph=graph, **kwargs)


class TestStageGraphConstruction:
    @pytest.fixture
    def env(self):
        catalog = Catalog()
        store = DataStore()
        version = catalog.register(schema_of("T", [
            ("k", "int"), ("v", "float")]), 100)
        store.put(version.guid, [dict(k=i % 10, v=float(i))
                                 for i in range(100)])
        version = catalog.register(schema_of("D", [
            ("k", "int"), ("name", "str")]), 10)
        store.put(version.guid, [dict(k=i, name=f"n{i}") for i in range(10)])
        return catalog, store

    def lower(self, env, sql, spool_sub=None):
        catalog, store = env
        plan = normalize(PlanBuilder(catalog).build(parse(sql)))
        if spool_sub is not None:
            plan = Spool(plan, "sig", "views/sig")
        result = Executor(store).execute(plan)
        estimator = CardinalityEstimator(catalog)
        return build_stage_graph(plan, result, estimator,
                                 rows_per_partition=10, max_partitions=8)

    def test_pipelined_ops_fuse_into_scan_stage(self, env):
        graph = self.lower(env, "SELECT k FROM T WHERE v > 5")
        assert len(graph.stages) == 1
        assert {"Scan", "Filter", "Project"} <= set(graph.stages[0].operators)

    def test_join_creates_stage_with_two_deps(self, env):
        graph = self.lower(env, "SELECT name FROM T JOIN D")
        join_stage = next(s for s in graph.stages if "Join" in s.operators)
        assert len(join_stage.dependencies) == 2

    def test_group_by_breaks_stage(self, env):
        graph = self.lower(env, "SELECT k, SUM(v) FROM T GROUP BY k")
        assert len(graph.stages) == 2

    def test_spool_writer_is_parallel_stage(self, env):
        graph = self.lower(env, "SELECT k FROM T WHERE v > 5", spool_sub=True)
        writers = [s for s in graph.stages if s.is_spool_writer]
        assert len(writers) == 1
        # The writer depends on the child stage but nothing depends on it.
        writer = writers[0]
        assert writer.dependencies
        assert all(writer.stage_id not in s.dependencies
                   for s in graph.stages)

    def test_partitions_follow_estimates(self, env):
        graph = self.lower(env, "SELECT k FROM T")
        assert graph.stages[0].partitions == 8  # 100 rows / 10, capped at 8

    def test_critical_path_leq_total(self, env):
        graph = self.lower(env, "SELECT name, SUM(v) FROM T JOIN D GROUP BY name")
        assert critical_path_work(graph) <= graph.total_work


def critical_path_work(graph):
    """Longest dependency chain by work (latency lower bound), from the
    stages and dependencies the cluster simulator schedules."""
    memo = {}

    def depth(stage):
        if stage.stage_id not in memo:
            memo[stage.stage_id] = stage.work + max(
                (depth(graph.stages[d]) for d in stage.dependencies),
                default=0.0)
        return memo[stage.stage_id]

    return max(map(depth, graph.stages), default=0.0)


def submit(sim, job):
    """Arrive ``job`` at its submit time, as the co-simulation does."""
    sim.add_arrival(job.submit_time, lambda now: job)


class TestSimulator:
    def test_single_stage_job(self):
        graph = make_graph((1000.0, 2, [], False))
        sim = ClusterSimulator(total_containers=10, work_rate=100.0,
                               container_startup=1.0)
        submit(sim, job(graph))
        (t,) = sim.run()
        assert t.latency == pytest.approx(1.0 + 1000.0 / (100.0 * 2))
        assert t.containers == 2
        assert t.processing_time == pytest.approx(2 * t.latency)

    def test_dependencies_respected(self):
        graph = make_graph((100.0, 1, [], False), (100.0, 1, [0], False))
        sim = ClusterSimulator(total_containers=4, work_rate=100.0,
                               container_startup=0.0)
        submit(sim, job(graph))
        (t,) = sim.run()
        assert t.latency == pytest.approx(2.0)

    def test_parallel_roots_overlap(self):
        graph = make_graph((100.0, 1, [], False), (100.0, 1, [], False),
                           (0.0, 1, [0, 1], False))
        sim = ClusterSimulator(total_containers=4, work_rate=100.0,
                               container_startup=0.0)
        submit(sim, job(graph))
        (t,) = sim.run()
        assert t.latency == pytest.approx(1.0)

    def test_bonus_containers_beyond_quota(self):
        graph = make_graph((1000.0, 8, [], False))
        sim = ClusterSimulator(total_containers=10, vc_quotas={"vc1": 2},
                               work_rate=100.0, container_startup=0.0)
        submit(sim, job(graph))
        (t,) = sim.run()
        assert t.containers == 8
        assert t.bonus_processing_time > 0
        assert t.bonus_processing_time == pytest.approx(
            t.processing_time * 6 / 8)

    def test_no_bonus_when_cluster_exactly_quota(self):
        graph = make_graph((1000.0, 8, [], False))
        sim = ClusterSimulator(total_containers=2, vc_quotas={"vc1": 2},
                               work_rate=100.0, container_startup=0.0)
        submit(sim, job(graph))
        (t,) = sim.run()
        assert t.bonus_processing_time == 0.0
        assert t.containers == 2

    def test_spool_seal_callback_fires_before_job_end(self):
        graph = make_graph((100.0, 1, [], False),
                           (500.0, 1, [0], False),
                           (10.0, 1, [0], True))
        sealed = []
        sim = ClusterSimulator(total_containers=4, work_rate=100.0,
                               container_startup=0.0)
        submit(sim, job(graph, on_spool_sealed=lambda s, t: sealed.append(t)))
        (t,) = sim.run()
        assert sealed and sealed[0] < t.finish_time

    def test_admission_queue_and_queue_length(self):
        graphs = [make_graph((1000.0, 1, [], False)) for _ in range(3)]
        sim = ClusterSimulator(total_containers=10, work_rate=100.0,
                               container_startup=0.0, vc_job_slots=1)
        for i, g in enumerate(graphs):
            submit(sim, job(g, job_id=f"j{i}", submit=float(i)))
        results = sim.run()
        by_id = {t.job_id: t for t in results}
        assert by_id["j0"].queue_length_at_submit == 0
        assert by_id["j1"].queue_length_at_submit == 0  # j0 running, 0 waiting
        assert by_id["j2"].queue_length_at_submit == 1  # j1 waiting
        assert by_id["j1"].queue_wait > 0

    def test_jobs_in_separate_vcs_do_not_queue_on_each_other(self):
        sim = ClusterSimulator(total_containers=10, work_rate=100.0,
                               container_startup=0.0, vc_job_slots=1)
        submit(sim, job(make_graph((1000.0, 1, [], False)), "a", "vc1", 0.0))
        submit(sim, job(make_graph((1000.0, 1, [], False)), "b", "vc2", 1.0))
        results = sim.run()
        assert all(t.queue_wait == 0 for t in results)

    def test_job_overhead_delays_start(self):
        graph = make_graph((100.0, 1, [], False))
        sim = ClusterSimulator(total_containers=4, work_rate=100.0,
                               container_startup=0.0,
                               job_overhead_seconds=5.0)
        submit(sim, job(graph))
        (t,) = sim.run()
        assert t.latency == pytest.approx(6.0)

    def test_arrival_factory_can_decline(self):
        sim = ClusterSimulator(total_containers=4)
        sim.add_arrival(1.0, lambda now: None)
        assert sim.run() == []

    def test_on_complete_callback(self):
        done = []
        graph = make_graph((10.0, 1, [], False))
        sim = ClusterSimulator(total_containers=4, work_rate=100.0,
                               container_startup=0.0)
        submit(sim, job(graph, on_complete=lambda j, t: done.append(t.job_id)))
        sim.run()
        assert done == ["j1"]

    def test_deterministic_across_runs(self):
        def run_once():
            sim = ClusterSimulator(total_containers=6, work_rate=50.0,
                                   container_startup=0.5, vc_job_slots=2)
            for i in range(8):
                graph = make_graph((500.0 + i * 100, 3, [], False),
                                   (200.0, 2, [0], False))
                submit(sim, job(graph, job_id=f"j{i}",
                               vc=f"vc{i % 2}", submit=float(i)))
            return [(t.job_id, t.finish_time, t.containers)
                    for t in sim.run()]

        assert run_once() == run_once()

    def test_zero_container_cluster_rejected(self):
        from repro.common.errors import SchedulingError
        with pytest.raises(SchedulingError):
            ClusterSimulator(total_containers=0)

    def test_empty_graph_completes_instantly(self):
        sim = ClusterSimulator(total_containers=2, container_startup=0.0)
        submit(sim, job(StageGraph(), "empty"))
        (t,) = sim.run()
        assert t.latency == 0.0
