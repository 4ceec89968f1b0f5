"""Unit tests for the monitoring surface (plan markers on reuse sites)."""

from repro.catalog import schema_of
from repro.engine import ScopeEngine
from repro.optimizer.context import Annotation
from repro.plan.logical import Scan, Spool, ViewScan, render_plan
from repro.signatures import enumerate_subexpressions


class TestRenderPlan:
    def test_viewscan_marked_as_reused(self):
        plan = ViewScan(signature="a" * 64, view_path="/views/a",
                        columns=("k",))
        assert "<-- reused CloudView" in render_plan(plan)

    def test_spool_marked_as_materializing(self):
        plan = Spool(Scan("T", ("k",)), signature="b" * 64,
                     view_path="/views/b")
        text = render_plan(plan)
        lines = text.splitlines()
        assert "<-- materializes CloudView" in lines[0]
        assert lines[1].startswith("  Scan T")       # child indented
        assert "CloudView" not in lines[1]           # plain nodes unmarked

    def test_render_plan_marks_cloudview_sites(self):
        engine = ScopeEngine()
        engine.register_table(
            schema_of("T", [("k", "int"), ("v", "float")]),
            [dict(k=i % 5, v=float(i)) for i in range(70)])
        sql = "SELECT k, SUM(v) AS s FROM T WHERE v > 5 GROUP BY k"
        subs = enumerate_subexpressions(
            engine.compile(sql, reuse_enabled=False).plan,
            engine.signature_salt)
        target = min((s for s in subs if s.height >= 1 and s.eligible),
                     key=lambda s: s.height)
        engine.insights.publish([Annotation(target.recurring, target.tag)])
        builder = engine.compile(sql)
        assert "materializes CloudView" in render_plan(builder.plan)
        engine.finish(engine.execute(builder), at=0.0)
        reuser = engine.compile(sql, now=1.0)
        assert "reused CloudView" in render_plan(reuser.plan)
