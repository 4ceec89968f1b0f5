"""Integration tests: the full workload co-simulation.

These assert the *shape* of the paper's production results at test scale
(small day counts so the suite stays fast): CloudViews wins on every
Table-1 metric, views are reused multiple times per build, the first-job
materialization overhead exists, and schedule/selection mechanics hold.

Whatever does not read the cluster model's telemetry runs on both
schedules of the one driver: a ``...Waves`` subclass re-runs the class
with ``workers`` set.
"""

import pytest

from repro.core import MultiLevelControls
from repro.selection import SelectionPolicy
from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.telemetry import compare_telemetry
from repro.workload import generate_workload


def small_workload(seed=7):
    return generate_workload(seed=seed, virtual_clusters=2,
                             templates_per_vc=10, adhoc_per_day=2)


def run_sim(enabled, days=4, seed=7, **config_kwargs):
    config = SimulationConfig(days=days, cloudviews_enabled=enabled,
                              **config_kwargs)
    return WorkloadSimulation(small_workload(seed), config).run()


def job_rows(report):
    """(virtual cluster, views reused) per job, from either schedule."""
    jobs = getattr(report, "telemetry", None) or report.results
    return [(job.virtual_cluster, job.views_reused) for job in jobs]


@pytest.fixture(scope="class")
def reports(request):
    workers = request.cls.workers
    return run_sim(True, workers=workers), run_sim(False, workers=workers)


class ScheduleInvariantShape:
    workers = None  # the cluster schedule

    def test_views_built_and_reused(self, reports):
        enabled, baseline = reports
        assert enabled.views_created > 0
        assert enabled.views_reused > enabled.views_created
        assert baseline.views_created == 0
        assert baseline.views_reused == 0

    def test_selection_ran_each_feedback_day(self, reports):
        enabled, _ = reports
        assert len(enabled.selections) == 3  # days 1..3 for a 4-day run

    def test_workload_overlap_shape(self, reports):
        enabled, _ = reports
        repo = enabled.repository
        assert repo.repeated_fraction() > 0.75
        assert repo.average_repeat_frequency() > 2.0


class TestSimulationShapeWaves(ScheduleInvariantShape):
    workers = 2


class TestSimulationShape(ScheduleInvariantShape):
    def test_same_job_population(self, reports):
        enabled, baseline = reports
        assert len(enabled.telemetry) == len(baseline.telemetry)

    def test_cloudviews_wins_every_table1_metric(self, reports):
        enabled, baseline = reports
        report = compare_telemetry(baseline.telemetry, enabled.telemetry)
        for metric in ("latency", "processing_time",
                       "bonus_processing_time", "containers",
                       "input_bytes", "data_read_bytes"):
            assert report.improvement_percent(metric) > 0, metric

    def test_median_latency_improvement_positive(self, reports):
        enabled, baseline = reports
        report = compare_telemetry(baseline.telemetry, enabled.telemetry)
        assert report.median_latency_improvement >= 0

    def test_daily_series_cumulative_monotone(self, reports):
        enabled, _ = reports
        series = enabled.cumulative_daily("processing_time")
        values = [v for _, v in series]
        assert values == sorted(values)

    def test_deterministic_simulation(self):
        a = run_sim(True, days=2)
        b = run_sim(True, days=2)
        assert [(t.job_id, t.finish_time) for t in a.telemetry] == \
            [(t.job_id, t.finish_time) for t in b.telemetry]

    def test_first_builder_slower_than_baseline_peer(self, reports):
        """Some jobs pay the materialization overhead (Section 2.4)."""
        enabled, baseline = reports
        base_by_key = {(t.virtual_cluster, round(t.submit_time, 3)): t
                       for t in baseline.telemetry}
        builders = [t for t in enabled.telemetry if t.views_built > 0]
        assert builders
        slower = sum(
            1 for t in builders
            if (match := base_by_key.get(
                (t.virtual_cluster, round(t.submit_time, 3)))) is not None
            and t.processing_time > match.processing_time)
        assert slower > 0


class TestSimulationMechanics:
    workers = None  # the cluster schedule

    def config(self, **kwargs):
        return SimulationConfig(cloudviews_enabled=True,
                                workers=self.workers, **kwargs)

    def test_controls_gate_the_simulation(self):
        controls = MultiLevelControls()  # opt-in, nothing onboarded
        config = self.config(days=3)
        with config.open_session(controls=controls) as session:
            report = WorkloadSimulation(small_workload(), config,
                                        session=session).run()
        assert report.views_created == 0

    def test_partially_onboarded_controls(self):
        workload = small_workload()
        controls = MultiLevelControls()
        controls.enable_vc(workload.virtual_clusters[0])
        config = self.config(days=3)
        with config.open_session(controls=controls) as session:
            report = WorkloadSimulation(workload, config,
                                        session=session).run()
        reusers = {virtual_cluster
                   for virtual_cluster, views_reused in job_rows(report)
                   if views_reused > 0}
        assert reusers <= {workload.virtual_clusters[0]}

    def test_schedule_aware_policy_reduces_wasted_builds(self):
        naive_cfg = self.config(
            days=4,
            policy=SelectionPolicy(storage_budget_bytes=50_000_000,
                                   materialization_lag_seconds=0.0,
                                   min_reuses_per_epoch=0.0))
        aware_cfg = self.config(
            days=4,
            policy=SelectionPolicy(storage_budget_bytes=50_000_000,
                                   materialization_lag_seconds=150.0,
                                   min_reuses_per_epoch=0.0))
        naive = WorkloadSimulation(small_workload(), naive_cfg).run()
        aware = WorkloadSimulation(small_workload(), aware_cfg).run()
        naive_ratio = naive.views_reused / max(1, naive.views_created)
        aware_ratio = aware.views_reused / max(1, aware.views_created)
        assert aware_ratio >= naive_ratio

    def test_storage_budget_limits_views(self):
        tight_cfg = self.config(
            days=3,
            policy=SelectionPolicy(storage_budget_bytes=200,
                                   min_reuses_per_epoch=0.0))
        roomy_cfg = self.config(
            days=3,
            policy=SelectionPolicy(storage_budget_bytes=50_000_000,
                                   min_reuses_per_epoch=0.0))
        tight = WorkloadSimulation(small_workload(), tight_cfg).run()
        roomy = WorkloadSimulation(small_workload(), roomy_cfg).run()
        assert tight.views_created <= roomy.views_created

    def test_selection_algorithms_all_run(self):
        for algorithm in ("greedy", "per_vc", "bigsubs"):
            config = self.config(days=3, selection_algorithm=algorithm)
            report = WorkloadSimulation(small_workload(), config).run()
            assert report.views_created >= 0  # completes without error

    def test_unknown_selection_algorithm_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSimulation(
                small_workload(),
                self.config(selection_algorithm="magic"))

    def test_results_correct_under_reuse(self):
        """Spot-check: a reused day's jobs produce the same answers as a
        reuse-free engine run over the same streams."""
        workload = small_workload()
        config = self.config(days=3)
        with config.open_session() as session:
            WorkloadSimulation(workload, config, session=session).run()
            engine = session.engine
            for instance in workload.jobs_for_day(2)[:5]:
                with_reuse = engine.run_sql(
                    instance.template.sql, params=instance.params,
                    virtual_cluster=instance.template.virtual_cluster,
                    now=instance.submit_time)
                without = engine.run_sql(
                    instance.template.sql, params=instance.params,
                    reuse_enabled=False, now=instance.submit_time)
                assert sorted(map(repr, with_reuse.rows)) == \
                    sorted(map(repr, without.rows))


class TestSimulationMechanicsWaves(TestSimulationMechanics):
    workers = 2
