"""Integration tests for checkpoint/restart and SparkCruise."""

import pytest

from repro.api import Session
from repro.catalog import schema_of
from repro.core import DeploymentMode, MultiLevelControls
from repro.engine import ScopeEngine
from repro.extensions import (
    CheckpointManager,
    FailureModel,
    format_insights,
    sparkcruise_tpcds,
    workload_insights_report,
)
from repro.history import canonical_rows
from repro.selection import SelectionPolicy


def register_tables(target):
    """Install the two test tables on an engine or a session."""
    target.register_table(
        schema_of("Events", [("UserId", "int"), ("Value", "float"),
                             ("Day", "str")]),
        [dict(UserId=i % 9, Value=float(i), Day="d0") for i in range(120)])
    target.register_table(
        schema_of("Users", [("UserId", "int"), ("Segment", "str")]),
        [dict(UserId=i, Segment="Asia" if i % 3 else "Europe")
         for i in range(9)])
    return target


@pytest.fixture
def engine():
    return register_tables(ScopeEngine())


@pytest.fixture
def session():
    """The SparkCruise deployment: opt-out, every candidate eligible."""
    with Session(controls=MultiLevelControls(mode=DeploymentMode.OPT_OUT),
                 policy=SelectionPolicy(min_reuses_per_epoch=0.0)) as sess:
        yield register_tables(sess)


SQL = ("SELECT UserId, SUM(Value) AS total FROM Events JOIN Users "
       "WHERE Segment = 'Asia' GROUP BY UserId")


class TestCheckpointRestart:
    def test_checkpoint_inserted_before_risky_operator(self, engine):
        manager = CheckpointManager(engine)
        compiled = manager.compile_with_checkpoints(SQL)
        assert compiled.built_views >= 1

    def test_restart_reuses_checkpoint(self, engine):
        manager = CheckpointManager(engine)
        compiled = manager.compile_with_checkpoints(SQL)
        run, sealed = manager.run_with_failure(compiled, now=0.0)
        assert run is None and sealed
        resubmitted = manager.resubmit(SQL, now=10.0)
        assert resubmitted.compiled.reused_views >= 1

    def test_restart_result_matches_clean_run(self, engine):
        manager = CheckpointManager(engine)
        compiled = manager.compile_with_checkpoints(SQL)
        manager.run_with_failure(compiled, now=0.0)
        recovered = manager.resubmit(SQL, now=10.0)
        clean = engine.run_sql(SQL, reuse_enabled=False, now=10.0)
        assert sorted(map(repr, recovered.rows)) == \
            sorted(map(repr, clean.rows))

    def test_checkpoints_do_not_leak_into_later_annotations(self, engine):
        manager = CheckpointManager(engine)
        manager.compile_with_checkpoints(SQL)
        # The temporary checkpoint annotations were rolled back.
        assert engine.insights.annotation_count() == 0

    def test_failure_model_learns(self):
        model = FailureModel()
        assert model.is_risky("GroupBy")       # default heuristic
        assert not model.is_risky("Filter")
        model.risk_by_operator["Filter"] = 0.2  # learned from history
        assert model.is_risky("Filter")
        # Once history exists, defaults no longer apply.
        assert not model.is_risky("GroupBy")

    def test_max_checkpoints_respected(self, engine):
        manager = CheckpointManager(engine, max_checkpoints_per_job=1)
        compiled = manager.compile_with_checkpoints(SQL)
        assert compiled.built_views <= 1


class TestSparkCruise:
    @staticmethod
    def observe(session, times):
        """The workload runs with reuse off; the session logs each job."""
        for i in range(times):
            session.run(SQL, template_id="asia-totals",
                        reuse_override=False, now=float(i))

    def test_session_builds_repository(self, session):
        self.observe(session, 3)
        assert session.repository.total_jobs() == 3
        assert session.repository.repeated_fraction() > 0.5

    def test_user_scheduled_analysis_enables_reuse(self, session):
        self.observe(session, 3)
        result = session.analyze_and_publish()
        assert result.selected
        builder = session.run(SQL, template_id="asia-totals", now=10.0)
        reuser = session.run(SQL, template_id="asia-totals", now=11.0)
        assert builder.views_built >= 1
        assert reuser.views_reused >= 1

    def test_insights_report_shape(self, session):
        self.observe(session, 4)
        report = workload_insights_report(session.repository)
        assert report["jobs"] == 4
        assert 0.0 <= report["repeated_subexpression_fraction"] <= 1.0
        assert report["reuse_candidates"] >= 1
        text = format_insights(report)
        assert "Workload Insights" in text
        assert "repeated subexpressions" in text

    def test_tpcds_flow_reproduces_section_5_5(self):
        """EXPERIMENTS §5.5, pinned: the session records round 1, the
        user-scheduled analysis selects, round 2 reuses -- with the same
        answers as the reuse-free baseline."""
        baseline = sparkcruise_tpcds(reuse=False)
        enabled = sparkcruise_tpcds(reuse=True)
        assert (baseline.work, enabled.work) == (64_063, 34_633)
        assert (baseline.built, baseline.reused) == (0, 0)
        assert (enabled.built, enabled.reused) == (5, 7)
        assert {name: canonical_rows(result.rows)
                for name, result in enabled.results.items()} == \
            {name: canonical_rows(result.rows)
             for name, result in baseline.results.items()}
