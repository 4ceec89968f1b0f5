"""Unit tests: stage graphs shrink under reuse (the container mechanism)."""

import pytest

from repro.catalog import schema_of
from repro.cluster import build_stage_graph
from repro.engine import ScopeEngine
from repro.optimizer import CardinalityEstimator
from repro.optimizer.context import Annotation
from repro.plan import PlanBuilder, normalize
from repro.optimizer.rules import apply_rewrites
from repro.signatures import enumerate_subexpressions
from repro.sql import parse
from tests.unit.test_cluster import critical_path_work


@pytest.fixture
def engine():
    eng = ScopeEngine()
    eng.register_table(
        schema_of("T", [("k", "int"), ("v", "float")]),
        [dict(k=i % 6, v=float(i)) for i in range(600)])
    eng.register_table(
        schema_of("D", [("k", "int"), ("n", "str")]),
        [dict(k=i, n=f"x{i}") for i in range(6)])
    return eng


SQL = "SELECT n, SUM(v) AS s FROM T JOIN D WHERE v > 5 GROUP BY n"


def annotate_join(engine):
    plan = normalize(apply_rewrites(
        PlanBuilder(engine.catalog).build(parse(SQL))))
    subs = enumerate_subexpressions(plan, engine.signature_salt)
    join = max((s for s in subs if s.operator == "Join"),
               key=lambda s: s.height)
    engine.insights.publish([Annotation(join.recurring, join.tag)])


def graph_for(engine, reuse, now):
    compiled = engine.compile(SQL, reuse_enabled=reuse, now=now)
    run = engine.finish(engine.execute(compiled, now=now), at=now)
    estimator = CardinalityEstimator(engine.catalog, history=None,
                                     overestimate=2.0,
                                     salt=engine.signature_salt)
    return build_stage_graph(compiled.plan, run.result, estimator,
                             rows_per_partition=15, max_partitions=96)


def test_reusing_job_has_fewer_smaller_stages(engine):
    annotate_join(engine)
    builder_graph = graph_for(engine, reuse=True, now=0.0)
    reuser_graph = graph_for(engine, reuse=True, now=1.0)
    baseline_graph = graph_for(engine, reuse=False, now=2.0)

    # The builder has an extra spool-writer stage vs the baseline.
    assert any(s.is_spool_writer for s in builder_graph.stages)
    assert len(builder_graph.stages) == len(baseline_graph.stages) + 1
    # The reuser collapses the join pipeline into a view scan.  (Note:
    # total *partitions* may go either way at this scale -- the accurate
    # ViewScan row count can exceed a badly under-estimated join -- but
    # stage count and actual work always shrink.)
    assert not any(s.is_spool_writer for s in reuser_graph.stages)
    assert len(reuser_graph.stages) < len(baseline_graph.stages)
    assert reuser_graph.total_work < baseline_graph.total_work
    assert critical_path_work(reuser_graph) < \
        critical_path_work(baseline_graph)


def test_viewscan_stage_partitions_follow_actual_rows(engine):
    annotate_join(engine)
    graph_for(engine, reuse=True, now=0.0)   # materialize
    reuser_graph = graph_for(engine, reuse=True, now=1.0)
    scan_stage = next(s for s in reuser_graph.stages
                      if "ViewScan" in s.operators)
    # ~594 filtered join rows at 15 rows/partition: exact, not inflated.
    assert scan_stage.partitions == pytest.approx(
        -(-scan_stage.actual_rows // 15), abs=1)
