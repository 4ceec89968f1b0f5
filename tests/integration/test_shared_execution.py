"""Integration tests for shared (pipelined) batch execution (Section 5.4)."""

import pytest

from repro.catalog import schema_of
from repro.engine import ScopeEngine
from repro.extensions import SharedBatchExecutor


@pytest.fixture
def engine():
    eng = ScopeEngine()
    eng.register_table(
        schema_of("T", [("k", "int"), ("v", "float")]),
        [dict(k=i % 6, v=float(i)) for i in range(200)])
    eng.register_table(
        schema_of("D", [("k", "int"), ("n", "str")]),
        [dict(k=i, n=f"x{i}") for i in range(6)])
    return eng


Q_SUM = "SELECT n, SUM(v) AS s FROM T JOIN D WHERE v > 10 GROUP BY n"
Q_COUNT = "SELECT n, COUNT(*) AS c FROM T JOIN D WHERE v > 10 GROUP BY n"
Q_AVG = "SELECT k, AVG(v) AS a FROM T WHERE v > 10 GROUP BY k"
Q_OTHER = "SELECT k, MAX(v) AS m FROM T WHERE v < 3 GROUP BY k"


def compile_batch(engine, queries):
    return [engine.compile(q, reuse_enabled=False) for q in queries]


class TestSharedBatch:
    def test_later_jobs_pipeline_common_fragments(self, engine):
        batch = SharedBatchExecutor(engine)
        results, stats = batch.execute_batch(
            compile_batch(engine, [Q_SUM, Q_COUNT, Q_AVG]))
        assert results[0].shared_hits == 0   # first computes everything
        assert results[1].shared_hits >= 1   # shares the join fragment
        assert results[2].shared_hits >= 1   # shares the filter fragment
        assert stats.fragments_shared >= 2
        assert stats.work_avoided > 0
        assert 0.0 < stats.sharing_fraction < 1.0

    def test_results_identical_to_isolated_execution(self, engine):
        batch = SharedBatchExecutor(engine)
        queries = [Q_SUM, Q_COUNT, Q_AVG, Q_OTHER]
        results, _ = batch.execute_batch(compile_batch(engine, queries))
        for result, sql in zip(results, queries):
            clean = engine.run_sql(sql, reuse_enabled=False)
            assert sorted(map(repr, result.rows)) == \
                sorted(map(repr, clean.rows)), sql

    def test_unrelated_queries_share_nothing(self, engine):
        batch = SharedBatchExecutor(engine)
        results, stats = batch.execute_batch(
            compile_batch(engine, [Q_SUM, Q_OTHER]))
        assert results[1].shared_hits == 0
        assert stats.fragments_shared == 0

    def test_identical_queries_share_everything_shareable(self, engine):
        batch = SharedBatchExecutor(engine)
        results, stats = batch.execute_batch(
            compile_batch(engine, [Q_SUM, Q_SUM]))
        assert results[1].shared_hits == 1  # one maximal shared subtree
        # The second job did essentially no work below the memo hit.
        assert stats.sharing_fraction > 0.3

    def test_memo_does_not_leak_across_batches(self, engine):
        batch = SharedBatchExecutor(engine)
        batch.execute_batch(compile_batch(engine, [Q_SUM]))
        results, stats = batch.execute_batch(compile_batch(engine, [Q_SUM]))
        assert results[0].shared_hits == 0  # fresh batch, fresh memo

    def test_nondeterministic_udo_reruns_every_time(self, engine):
        """The ineligible UDO subtree is recomputed per job; only the
        deterministic fragment below it may be pipelined."""
        invocations = []

        def stamped(rows):
            invocations.append(len(rows))
            return rows

        engine.executor.udos.register("Stamp", stamped)
        sql = ("SELECT k, SUM(v) AS s FROM T GROUP BY k "
               "PROCESS USING Stamp NONDETERMINISTIC")
        batch = SharedBatchExecutor(engine)
        batch.execute_batch(compile_batch(engine, [sql, sql]))
        assert len(invocations) == 2  # the UDO itself was never shared

    def test_sharing_interacts_with_materialized_views(self, engine):
        """Batch sharing composes with ordinary CloudViews compilation."""
        from repro.optimizer.context import Annotation
        from repro.plan import PlanBuilder, normalize
        from repro.optimizer.rules import apply_rewrites
        from repro.signatures import enumerate_subexpressions
        from repro.sql import parse

        plan = normalize(apply_rewrites(
            PlanBuilder(engine.catalog).build(parse(Q_SUM))))
        subs = enumerate_subexpressions(plan, engine.signature_salt)
        join = max((s for s in subs if s.operator == "Join"),
                   key=lambda s: s.height)
        engine.insights.publish([Annotation(join.recurring, join.tag)])
        producer = engine.run_sql(Q_SUM)          # materializes the join
        assert producer.sealed_views

        compiled = engine.compile(Q_COUNT, now=1.0)  # reuses the view
        assert compiled.reused_views == 1
        batch = SharedBatchExecutor(engine)
        results, _ = batch.execute_batch([compiled])
        clean = engine.run_sql(Q_COUNT, reuse_enabled=False, now=2.0)
        assert sorted(map(repr, results[0].rows)) == \
            sorted(map(repr, clean.rows))

    def test_sqlite_backend_is_refused_up_front(self):
        """A backend without the in-memory executor is refused at
        construction, not with an ``AttributeError`` deep inside the
        first job."""
        from repro.backends import create_backend
        from repro.common.errors import ConfigError

        with create_backend("sqlite") as backend:
            with pytest.raises(ConfigError) as refused:
                SharedBatchExecutor(ScopeEngine(backend=backend))
        assert "sqlite" in str(refused.value)
        assert "in-memory executor" in str(refused.value)

    def test_memo_keeps_a_row_count(self, engine):
        """The memo stores what the executor captured -- no row copies."""
        from repro.extensions.shared_execution import BatchStats

        batch = SharedBatchExecutor(engine)
        (compiled,) = compile_batch(engine, [Q_SUM])
        batch._run_job(compiled, BatchStats())
        assert batch._memo
        for entry in batch._memo.values():
            assert entry.rows == engine.store.read(entry.path).length
