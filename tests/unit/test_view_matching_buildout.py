"""Unit tests for top-down view matching and bottom-up view buildout."""

import pytest

from repro.catalog import Catalog, schema_of
from repro.engine import ScopeEngine
from repro.obs import FlightRecorder
from repro.obs.events import JOB_COMPILED
from repro.optimizer import (
    Annotation,
    OptimizerContext,
    insert_spools,
    match_views,
    optimize,
    view_path_for,
)
from repro.optimizer import view_buildout
from repro.plan import Filter, Join, PlanBuilder, Spool, ViewScan, normalize
from repro.signatures import (
    enumerate_subexpressions,
    recurring_signature,
    signature_tag,
    strict_signature,
)
from repro.sql import parse
from repro.storage import ViewStore


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(schema_of("Sales", [
        ("CustomerId", "int"), ("Price", "float")]), 1000)
    cat.register(schema_of("Customer", [
        ("CustomerId", "int"), ("MktSegment", "str")]), 100)
    return cat


SQL = ("SELECT CustomerId, SUM(Price) FROM Sales JOIN Customer "
       "WHERE MktSegment = 'Asia' GROUP BY CustomerId")


def build(catalog, sql=SQL):
    from repro.optimizer.rules import apply_rewrites
    return normalize(apply_rewrites(PlanBuilder(catalog).build(parse(sql))))


def join_subexpr(plan):
    return max((s for s in enumerate_subexpressions(plan)
                if isinstance(s.plan, Join)), key=lambda s: s.height)


def make_ctx(catalog, views=None, **kwargs):
    return OptimizerContext(catalog=catalog,
                            view_store=views or ViewStore(), **kwargs)


def seal_view(ctx, sub, rows=40, now=0.0):
    ctx.view_store.begin_materialize(
        sub.strict, view_path_for("vc", sub.strict), sub.plan.schema,
        "vc", now, recurring_signature=sub.recurring)
    ctx.view_store.seal(sub.strict, now, rows, rows * 8)


class TestMatching:
    def test_matches_available_view(self, catalog):
        plan = build(catalog)
        ctx = make_ctx(catalog)
        sub = join_subexpr(plan)
        seal_view(ctx, sub)
        outcome = match_views(plan, ctx, now=1.0)
        assert outcome.reused
        views = [n for n in outcome.plan.walk() if isinstance(n, ViewScan)]
        assert len(views) == 1
        assert views[0].signature == sub.strict
        assert views[0].rows == 40

    def test_no_match_without_view(self, catalog):
        plan = build(catalog)
        outcome = match_views(plan, make_ctx(catalog), now=1.0)
        assert not outcome.reused
        assert outcome.plan == plan

    def test_unsealed_view_not_matched(self, catalog):
        plan = build(catalog)
        ctx = make_ctx(catalog)
        sub = join_subexpr(plan)
        ctx.view_store.begin_materialize(
            sub.strict, "p", sub.plan.schema, "vc", now=0.0)
        assert not match_views(plan, ctx, now=1.0).reused

    def test_expired_view_not_matched(self, catalog):
        plan = build(catalog)
        ctx = make_ctx(catalog, views=ViewStore(ttl_seconds=10.0))
        sub = join_subexpr(plan)
        seal_view(ctx, sub)
        assert not match_views(plan, ctx, now=100.0).reused

    def test_costly_view_rejected(self, catalog):
        plan = build(catalog)
        ctx = make_ctx(catalog)
        sub = join_subexpr(plan)
        seal_view(ctx, sub, rows=10_000_000)  # reading it costs more
        assert not match_views(plan, ctx, now=1.0).reused

    def test_matching_preserves_schema(self, catalog):
        plan = build(catalog)
        ctx = make_ctx(catalog)
        seal_view(ctx, join_subexpr(plan))
        outcome = match_views(plan, ctx, now=1.0)
        assert outcome.plan.schema == plan.schema

    def test_top_down_prefers_larger_subexpression(self, catalog):
        plan = build(catalog)
        ctx = make_ctx(catalog)
        subs = enumerate_subexpressions(plan)
        join = join_subexpr(plan)
        inner_filter = next(s for s in subs if isinstance(s.plan, Filter))
        seal_view(ctx, join, rows=40)
        seal_view(ctx, inner_filter, rows=20)
        outcome = match_views(plan, ctx, now=1.0)
        views = [n for n in outcome.plan.walk() if isinstance(n, ViewScan)]
        assert [v.signature for v in views] == [join.strict]

    def test_reuse_disabled_skips_matching(self, catalog):
        plan = build(catalog)
        ctx = make_ctx(catalog, reuse_enabled=False)
        seal_view(ctx, join_subexpr(plan))
        assert not match_views(plan, ctx, now=1.0).reused

    def test_match_records_reuse_in_store(self, catalog):
        plan = build(catalog)
        ctx = make_ctx(catalog)
        sub = join_subexpr(plan)
        seal_view(ctx, sub)
        match_views(plan, ctx, now=1.0)
        assert ctx.view_store.total_reused == 1

    def test_viewscan_keeps_parent_signatures_stable(self, catalog):
        plan = build(catalog)
        ctx = make_ctx(catalog)
        seal_view(ctx, join_subexpr(plan))
        outcome = match_views(plan, ctx, now=1.0)
        assert strict_signature(outcome.plan) == strict_signature(plan)
        assert recurring_signature(outcome.plan) == recurring_signature(plan)


class TestBuildout:
    def annotate(self, ctx, sub):
        ctx.annotations[sub.recurring] = Annotation(
            sub.recurring, signature_tag(sub.recurring))

    def test_inserts_spool_for_selected_signature(self, catalog):
        plan = build(catalog)
        ctx = make_ctx(catalog)
        sub = join_subexpr(plan)
        self.annotate(ctx, sub)
        outcome = insert_spools(plan, ctx, now=0.0)
        assert outcome.builds
        spools = [n for n in outcome.plan.walk() if isinstance(n, Spool)]
        assert len(spools) == 1
        assert spools[0].signature == sub.strict
        assert ctx.view_store.is_materializing(sub.strict, now=0.0)

    def test_no_annotations_no_spools(self, catalog):
        plan = build(catalog)
        outcome = insert_spools(plan, make_ctx(catalog), now=0.0)
        assert not outcome.builds

    def test_already_available_not_rebuilt(self, catalog):
        plan = build(catalog)
        ctx = make_ctx(catalog)
        sub = join_subexpr(plan)
        self.annotate(ctx, sub)
        seal_view(ctx, sub)
        assert not insert_spools(plan, ctx, now=1.0).builds

    def test_in_flight_materialization_not_duplicated(self, catalog):
        plan = build(catalog)
        ctx = make_ctx(catalog)
        sub = join_subexpr(plan)
        self.annotate(ctx, sub)
        insert_spools(plan, ctx, now=0.0)
        # A concurrent job compiling now must not double-build.
        assert not insert_spools(plan, ctx, now=0.0).builds

    def test_lock_denial_blocks_build(self, catalog):
        plan = build(catalog)
        ctx = make_ctx(catalog, acquire_view_lock=lambda sig: False)
        self.annotate(ctx, join_subexpr(plan))
        assert not insert_spools(plan, ctx, now=0.0).builds

    def test_max_views_per_job_enforced(self, catalog, monkeypatch):
        # A per-job cap of one, so that the plan's several annotated
        # subexpressions must contend for it.
        monkeypatch.setattr(view_buildout, "MAX_VIEWS_PER_JOB", 1)
        plan = build(catalog)
        ctx = make_ctx(catalog)
        for sub in enumerate_subexpressions(plan):
            if sub.height >= 1:
                self.annotate(ctx, sub)
        outcome = insert_spools(plan, ctx, now=0.0)
        assert len(outcome.proposals) == 1

    def test_scans_never_spooled(self, catalog):
        plan = build(catalog)
        ctx = make_ctx(catalog)
        for sub in enumerate_subexpressions(plan):
            self.annotate(ctx, sub)
        outcome = insert_spools(plan, ctx, now=0.0)
        for spool in (n for n in outcome.plan.walk() if isinstance(n, Spool)):
            assert not isinstance(spool.child, type(plan)) or True
        from repro.plan import Scan
        assert not any(isinstance(n.child, Scan)
                       for n in outcome.plan.walk() if isinstance(n, Spool))

    def test_view_path_encodes_signature(self, catalog):
        plan = build(catalog)
        ctx = make_ctx(catalog, virtual_cluster="vc7")
        sub = join_subexpr(plan)
        self.annotate(ctx, sub)
        outcome = insert_spools(plan, ctx, now=0.0)
        assert sub.strict in outcome.proposals[0].view_path
        assert "vc7" in outcome.proposals[0].view_path

    def test_nondeterministic_subtree_never_built(self, catalog):
        plan = build(catalog,
                     "SELECT CustomerId FROM Sales "
                     "PROCESS USING Rng NONDETERMINISTIC")
        ctx = make_ctx(catalog)
        for sub in enumerate_subexpressions(plan):
            self.annotate(ctx, sub)
        outcome = insert_spools(plan, ctx, now=0.0)
        spooled_ops = {type(n.child).__name__
                       for n in outcome.plan.walk() if isinstance(n, Spool)}
        assert "Process" not in spooled_ops


class TestPipeline:
    def test_optimize_reports_costs(self):
        # Whole-plan costs are computed for the ``job.compiled`` event
        # alone; no reuse decision reads them.
        engine = ScopeEngine(recorder=FlightRecorder())
        engine.register_table(schema_of("Sales", [
            ("CustomerId", "int"), ("Price", "float")]),
            [dict(CustomerId=1, Price=2.0)])
        engine.register_table(schema_of("Customer", [
            ("CustomerId", "int"), ("MktSegment", "str")]),
            [dict(CustomerId=1, MktSegment="Asia")])
        optimized = engine.compile(SQL).optimized
        [event] = engine.recorder.events.events(kind=JOB_COMPILED)
        assert event.attrs["estimated_cost"] > 0
        assert event.attrs["estimated_cost_without_reuse"] > 0
        assert not optimized.matches and not optimized.proposals

    def test_optimize_match_then_build_are_exclusive_for_same_sig(self, catalog):
        ctx = make_ctx(catalog)
        raw = PlanBuilder(catalog).build(parse(SQL))
        plan = build(catalog)
        sub = join_subexpr(plan)
        ctx.annotations[sub.recurring] = Annotation(
            sub.recurring, signature_tag(sub.recurring))
        first = optimize(raw, ctx, now=0.0)
        assert first.built_views == 1 and first.reused_views == 0
        spool = next(n for n in first.plan.walk() if isinstance(n, Spool))
        ctx.view_store.seal(spool.signature, 1.0, 40, 320)
        second = optimize(raw, ctx, now=2.0)
        assert second.reused_views == 1 and second.built_views == 0
