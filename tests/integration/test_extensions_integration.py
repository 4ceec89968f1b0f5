"""Integration tests for checkpoint/restart and SparkCruise."""

import pytest

from repro.catalog import schema_of
from repro.engine import ScopeEngine
from repro.extensions import (
    CheckpointManager,
    FailureModel,
    QueryEventListener,
    format_insights,
    run_workload_analysis,
    workload_insights_report,
)
from repro.selection import SelectionPolicy


@pytest.fixture
def engine():
    eng = ScopeEngine()
    eng.register_table(
        schema_of("Events", [("UserId", "int"), ("Value", "float"),
                             ("Day", "str")]),
        [dict(UserId=i % 9, Value=float(i), Day="d0") for i in range(120)])
    eng.register_table(
        schema_of("Users", [("UserId", "int"), ("Segment", "str")]),
        [dict(UserId=i, Segment="Asia" if i % 3 else "Europe")
         for i in range(9)])
    return eng


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
        model.record_failure("Filter", weight=0.2)
        assert model.is_risky("Filter")
        # Once history exists, defaults no longer apply.
        assert not model.is_risky("GroupBy")

    def test_max_checkpoints_respected(self, engine):
        manager = CheckpointManager(engine, max_checkpoints_per_job=1)
        compiled = manager.compile_with_checkpoints(SQL)
        assert compiled.built_views <= 1


class TestSparkCruise:
    def test_listener_builds_repository(self, engine):
        listener = QueryEventListener(engine)
        for i in range(3):
            run = engine.run_sql(SQL, reuse_enabled=False, now=float(i))
            listener.on_query_end(run, now=float(i))
        assert listener.repository.total_jobs() == 3
        assert listener.repository.repeated_fraction() > 0.5

    def test_user_scheduled_analysis_enables_reuse(self, engine):
        listener = QueryEventListener(engine)
        for i in range(3):
            run = engine.run_sql(SQL, reuse_enabled=False, now=float(i))
            listener.on_query_end(run, now=float(i))
        result = run_workload_analysis(
            listener, SelectionPolicy(min_reuses_per_epoch=0.0))
        assert result.selected
        builder = engine.run_sql(SQL, now=10.0)
        reuser = engine.run_sql(SQL, now=11.0)
        assert builder.compiled.built_views >= 1
        assert reuser.compiled.reused_views >= 1

    def test_insights_report_shape(self, engine):
        listener = QueryEventListener(engine)
        for i in range(4):
            run = engine.run_sql(SQL, reuse_enabled=False, now=float(i))
            listener.on_query_end(run, now=float(i))
        report = workload_insights_report(listener.repository)
        assert report["jobs"] == 4
        assert 0.0 <= report["repeated_subexpression_fraction"] <= 1.0
        assert report["reuse_candidates"] >= 1
        text = format_insights(report)
        assert "Workload Insights" in text
        assert "repeated subexpressions" in text
