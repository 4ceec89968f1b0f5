"""Tests that pin down the paper's documented limitations (Section 2.4).

These are *intentional* behaviours -- the reproduction must exhibit the
same blind spots the production system has, or it is modelling a
different system.
"""

import pytest

from repro.catalog import schema_of
from repro.engine import ScopeEngine
from repro.obs import FlightRecorder
from repro.obs.events import JOB_COMPILED
from repro.optimizer.context import Annotation
from repro.plan import PlanBuilder, normalize
from repro.optimizer.rules import apply_rewrites
from repro.signatures import enumerate_subexpressions
from repro.sql import parse


def annotate_all(engine, sql, params=None, only_largest=False):
    plan = normalize(apply_rewrites(
        PlanBuilder(engine.catalog, params).build(parse(sql))))
    subs = [s for s in enumerate_subexpressions(plan, engine.signature_salt)
            if s.height >= 1 and s.eligible]
    if only_largest:
        subs = [max(subs, key=lambda s: s.height)]
    engine.insights.publish([Annotation(s.recurring, s.tag) for s in subs])


class TestExactMatchOnly:
    """Limitation: 'it can only reuse the exact same logical query
    subexpressions' -- no algebraic equivalence, no containment (in the
    production path)."""

    @pytest.fixture
    def engine(self):
        eng = ScopeEngine()
        eng.register_table(
            schema_of("Sales", [("CustomerId", "int"), ("Price", "float")]),
            [dict(CustomerId=i % 30, Price=float(i)) for i in range(120)])
        return eng

    def test_algebraically_equal_predicate_not_reused(self, engine):
        view_sql = "SELECT CustomerId, Price FROM Sales WHERE CustomerId > 5"
        query_sql = ("SELECT CustomerId, Price FROM Sales "
                     "WHERE 2 * CustomerId > 10")
        annotate_all(engine, view_sql)
        engine.run_sql(view_sql)          # materializes
        run = engine.run_sql(query_sql, now=1.0)
        assert run.compiled.reused_views == 0  # the paper's §5.3 example

    def test_contained_predicate_not_reused_in_production_path(self, engine):
        view_sql = "SELECT CustomerId, Price FROM Sales WHERE CustomerId > 5"
        query_sql = "SELECT CustomerId, Price FROM Sales WHERE CustomerId > 6"
        annotate_all(engine, view_sql)
        engine.run_sql(view_sql)
        run = engine.run_sql(query_sql, now=1.0)
        assert run.compiled.reused_views == 0


class TestConcurrentQueries:
    """Limitation: 'CloudViews cannot help queries that are submitted
    concurrently unless their submission schedule is altered.'"""

    def test_simultaneous_compiles_cannot_reuse(self):
        engine = ScopeEngine()
        engine.register_table(
            schema_of("T", [("k", "int"), ("v", "float")]),
            [dict(k=i % 5, v=float(i)) for i in range(50)])
        engine.register_table(
            schema_of("D", [("k", "int"), ("n", "str")]),
            [dict(k=i, n=f"x{i}") for i in range(5)])
        sql = "SELECT n, SUM(v) AS s FROM T JOIN D GROUP BY n"
        annotate_all(engine, sql, only_largest=True)
        first = engine.compile(sql, now=100.0)
        second = engine.compile(sql, now=100.0)  # same instant
        assert first.built_views == 1
        assert second.built_views == 0   # build lock held by `first`
        assert second.reused_views == 0  # nothing sealed yet


class TestNotMaintained:
    """Limitation: views are 'recreated whenever the inputs change ...
    particularly true for recurring queries with a sliding window, e.g.,
    last seven days, where all except the most recent input in the window
    might remain same.'"""

    def _engine_with_daily_partitions(self, days=3):
        engine = ScopeEngine()
        for day in range(days):
            engine.register_table(
                schema_of(f"Events_d{day}", [("k", "int"), ("v", "float")]),
                [dict(k=i % 4, v=float(i + day)) for i in range(40)])
        return engine

    @staticmethod
    def _window_sql(days=3):
        parts = [f"SELECT k, v FROM Events_d{day}" for day in range(days)]
        inner = " UNION ALL ".join(parts)
        return (f"SELECT k, SUM(v) AS s FROM ({inner}) AS w GROUP BY k")

    def test_single_partition_update_invalidates_whole_window_view(self):
        engine = self._engine_with_daily_partitions()
        sql = self._window_sql()
        annotate_all(engine, sql)
        producer = engine.run_sql(sql)
        assert producer.compiled.built_views >= 1
        reuser = engine.run_sql(sql, now=1.0)
        assert reuser.compiled.reused_views >= 1

        # Only the newest day changes; the other partitions are untouched.
        engine.bulk_update("Events_d2",
                           [dict(k=i % 4, v=float(i)) for i in range(42)],
                           at=2.0)
        after = engine.run_sql(sql, now=3.0)
        # The union-wide view went stale even though 2 of 3 inputs are
        # unchanged -- and it is wastefully re-materialized from scratch.
        assert after.compiled.reused_views == 0
        assert after.compiled.built_views >= 1


class TestFirstHitSlowdown:
    """Limitation: 'the first query hitting a common subexpression slows
    down due to additional materialization overhead.'"""

    def test_builder_cost_exceeds_plain_cost(self):
        engine = ScopeEngine(recorder=FlightRecorder())
        engine.register_table(
            schema_of("T", [("k", "int"), ("v", "float")]),
            [dict(k=i % 5, v=float(i)) for i in range(100)])
        sql = "SELECT k, SUM(v) AS s FROM T WHERE v > 5 GROUP BY k"
        annotate_all(engine, sql)
        builder = engine.compile(sql)
        assert builder.built_views >= 1
        [event] = engine.recorder.events.events(kind=JOB_COMPILED)
        assert event.attrs["estimated_cost"] > \
            event.attrs["estimated_cost_without_reuse"]
