"""Integration tests: runtime upgrades and re-analysis (Section 4).

"Sometimes they also evolve with new SCOPE runtime ... As a result, all
existing materialized views get invalidated.  Thus, evolving signatures
is very tricky since we need to keep track of changes that can affect
signatures and re-run any prior workload analysis."
"""

import pytest

from repro.api import Session
from repro.catalog import schema_of
from repro.common.clock import SECONDS_PER_DAY
from repro.core import MultiLevelControls
from repro.lifecycle import LifecycleConfig
from repro.obs import FlightRecorder
from repro.obs import events as obs_events
from repro.selection import SelectionPolicy


def make_session(lifecycle=None):
    controls = MultiLevelControls()
    controls.enable_vc("vc1")
    cv = Session(controls=controls,
                 policy=SelectionPolicy(min_reuses_per_epoch=0.0),
                 lifecycle=lifecycle)
    cv.engine.register_table(
        schema_of("T", [("k", "int"), ("v", "float")]),
        [dict(k=i % 5, v=float(i)) for i in range(60)])
    cv.engine.register_table(
        schema_of("D", [("k", "int"), ("n", "str")]),
        [dict(k=i, n=f"x{i}") for i in range(5)])
    return cv


@pytest.fixture
def cloudviews():
    return make_session()


SQL_A = "SELECT n, SUM(v) AS s FROM T JOIN D GROUP BY n"
SQL_B = "SELECT n, COUNT(*) AS c FROM T JOIN D GROUP BY n"


def runtime_jobs(repository, version):
    """The jobs compiled under one runtime, as selection filters them."""
    return repository.window(float("-inf"), float("inf"),
                             runtime_version=version)


def observe_round(cv, now):
    cv.run(SQL_A, virtual_cluster="vc1", template_id="a", now=now)
    cv.run(SQL_B, virtual_cluster="vc1", template_id="b", now=now + 1)


class TestRuntimeUpgrade:
    def test_upgrade_withdraws_annotations(self, cloudviews):
        observe_round(cloudviews, 0.0)
        cloudviews.analyze_and_publish()
        assert cloudviews.engine.insights.annotation_count() > 0
        cloudviews.handle_runtime_upgrade("scope-r2")
        assert cloudviews.engine.insights.annotation_count() == 0
        assert cloudviews.last_selection is None

    def test_analysis_ignores_old_runtime_records(self, cloudviews):
        observe_round(cloudviews, 0.0)
        cloudviews.handle_runtime_upgrade("scope-r2")
        # Only old-runtime records exist: analysis must select nothing.
        result = cloudviews.analyze_and_publish()
        assert result.selected == []

    def test_reanalysis_after_new_observations(self, cloudviews):
        observe_round(cloudviews, 0.0)
        cloudviews.analyze_and_publish()
        cloudviews.handle_runtime_upgrade("scope-r2")
        # Fresh observations under the new runtime restore the loop.
        observe_round(cloudviews, 100.0)
        result = cloudviews.analyze_and_publish()
        assert result.selected
        builder = cloudviews.run(SQL_A, virtual_cluster="vc1",
                                 template_id="a", now=200.0)
        reuser = cloudviews.run(SQL_B, virtual_cluster="vc1",
                                template_id="b", now=201.0)
        assert builder.compiled.built_views >= 1
        assert reuser.compiled.reused_views >= 1

    def test_results_stable_across_upgrade(self, cloudviews):
        before = cloudviews.run(SQL_A, virtual_cluster="vc1",
                                template_id="a", now=0.0)
        cloudviews.handle_runtime_upgrade("scope-r2")
        after = cloudviews.run(SQL_A, virtual_cluster="vc1",
                               template_id="a", now=1.0)
        assert sorted(map(repr, before.rows)) == sorted(map(repr, after.rows))

    def test_mixed_runtime_repository_partitions_cleanly(self, cloudviews):
        observe_round(cloudviews, 0.0)
        cloudviews.handle_runtime_upgrade("scope-r2")
        observe_round(cloudviews, 100.0)
        old = runtime_jobs(cloudviews.repository, "scope-r1")
        new = runtime_jobs(cloudviews.repository, "scope-r2")
        assert old.total_jobs() == 2
        assert new.total_jobs() == 2
        # The same logical plans hash differently across runtimes.
        old_signatures = {r.recurring for r in old.subexpressions}
        new_signatures = {r.recurring for r in new.subexpressions}
        assert not (old_signatures & new_signatures)


class TestUpgradeWithLifecycle:
    def test_an_upgrade_is_stamped_with_the_session_clock(self, tmp_path):
        """The cascade and ``epoch.bumped`` events of an upgrade carry the
        simulated time of the job before it, as a selection epoch's do;
        they used to read 0.0 whatever the day."""
        day5 = 5 * SECONDS_PER_DAY
        cv = Session(recorder=FlightRecorder(), lifecycle=LifecycleConfig(
            journal_dir=str(tmp_path / "journal")))
        cv.engine.register_table(schema_of("T", [("k", "int")]),
                                 [dict(k=1)])
        cv.run("SELECT k FROM T", now=day5)
        cv.handle_runtime_upgrade("scope-r2")
        events = cv.engine.recorder.events
        stamps = [e.at for kind in (obs_events.LIFECYCLE_CASCADE,
                                    obs_events.EPOCH_BUMPED)
                  for e in events.events(kind=kind)]
        assert stamps == [day5, day5]
        cv.close()

    def test_an_upgrade_is_the_journaled_epoch_bump(self, tmp_path):
        """With a lifecycle, an upgrade is its epoch bump: one journaled
        ``epoch`` record, every view purged by the cascade.  A restart
        straight after it (no ``close``) recovers the new runtime -- it
        used to recover ``scope-r1`` at epoch 0, with the views live."""
        lifecycle = LifecycleConfig(journal_dir=str(tmp_path / "journal"))
        cv = make_session(lifecycle)
        observe_round(cv, 0.0)
        cv.analyze_and_publish()
        observe_round(cv, 10.0)
        assert cv.views_created > 0
        cv.handle_runtime_upgrade("scope-r2")
        assert cv.engine.runtime_version == "scope-r2"
        assert cv.lifecycle.epoch == 1
        assert cv.engine.insights.annotation_count() == 0
        assert all(v.purged for v in cv.engine.view_store.views())

        with make_session(lifecycle) as restarted:
            assert restarted.engine.runtime_version == "scope-r2"
            assert restarted.lifecycle.epoch == 1
            assert restarted.engine.view_store.catalog_digest() \
                == cv.engine.view_store.catalog_digest()
        cv.close()


class TestUpgradeMidSimulation:
    @pytest.mark.parametrize("workers", [None, 2], ids=["cluster", "waves"])
    def test_next_epoch_selects_only_new_runtime_jobs(self, workers):
        """A runtime upgrade fired from the day-boundary hook: the epoch
        of that same midnight has no new-runtime job to analyse, and the
        next one must not publish signatures only old jobs carried."""
        from repro.simulation import SimulationConfig, WorkloadSimulation
        from repro.workload import generate_workload

        def upgrade(day, simulation):
            if day == 2:
                simulation.session.handle_runtime_upgrade("scope-r2")

        workload = generate_workload(seed=7, virtual_clusters=2,
                                     templates_per_vc=10, adhoc_per_day=0)
        config = SimulationConfig(days=4, workers=workers)
        report = WorkloadSimulation(workload, config,
                                    on_day_boundary=upgrade).run()

        before, at_upgrade, after = report.selections
        assert before.selected
        assert at_upgrade.selected == []
        assert after.selected
        new_runtime = {record.recurring for record in
                       runtime_jobs(report.repository, "scope-r2")
                       .subexpressions}
        assert {c.recurring for c in after.selected} <= new_runtime
        # Day 3 therefore builds and reuses views again.
        day3 = [job.job_id for job in report.repository.jobs
                if job.submit_time >= 3 * 86400.0]
        reused_on_day3 = sum(
            1 for record in report.repository.subexpressions
            if record.job_id in day3 and record.operator == "ViewScan")
        assert reused_on_day3 > 0
