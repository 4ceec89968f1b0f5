"""Unit tests for the co-simulation runner's internals."""

import pytest

from repro.backends.differential import oracle_config
from repro.catalog import schema_of
from repro.cluster import JobTelemetry
from repro.common.clock import SECONDS_PER_DAY
from repro.core import record_job_into
from repro.engine import ScopeEngine
from repro.plan import Process, Scan, Spool, ViewScan
from repro.signatures import (
    MAX_DEPENDENCY_DEPTH,
    reference_signature,
    signature_tag,
)
from repro.simulation import ClusterReport, SimulationConfig
from repro.workload import WorkloadRepository, generate_workload
from repro.workload.tpcds import TPCDS_QUERIES, install_tpcds


@pytest.fixture
def engine():
    eng = ScopeEngine()
    eng.register_table(
        schema_of("T", [("k", "int"), ("v", "float")]),
        [dict(k=i % 4, v=float(i)) for i in range(40)])
    eng.register_table(
        schema_of("D", [("k", "int"), ("n", "str")]),
        [dict(k=i, n=f"x{i}") for i in range(4)])
    return eng


SQL = "SELECT n, SUM(v) AS s FROM T JOIN D GROUP BY n"


def record(engine, run, repository=None, full_work=None, now=0.0):
    repository = repository if repository is not None else WorkloadRepository()
    record_job_into(repository, run, now,
                    virtual_cluster="vc1", template_id="t1",
                    pipeline_id="p1", salt=engine.signature_salt,
                    full_work=full_work)
    return repository


class TestRecordJobInto:
    def test_tree_structure_recorded(self, engine):
        run = engine.run_sql(SQL, reuse_enabled=False)
        repository = record(engine, run)
        records = repository.subexpressions
        roots = [r for r in records if r.parent_node_id is None]
        assert len(roots) == 1
        by_node = {r.node_id: r for r in records}
        for r in records:
            if r.parent_node_id is not None:
                assert r.parent_node_id in by_node

    def test_work_is_monotone_up_the_tree(self, engine):
        run = engine.run_sql(SQL, reuse_enabled=False)
        records = record(engine, run).subexpressions
        by_node = {r.node_id: r for r in records}
        for r in records:
            if r.parent_node_id is not None:
                assert by_node[r.parent_node_id].work >= r.work

    def test_input_datasets_collected(self, engine):
        run = engine.run_sql(SQL, reuse_enabled=False)
        repository = record(engine, run)
        assert repository.jobs[0].input_datasets == ("D", "T")
        root = next(r for r in repository.subexpressions
                    if r.parent_node_id is None)
        assert root.input_datasets == ("D", "T")

    def test_spool_is_transparent_in_records(self, engine):
        from repro.optimizer.context import Annotation
        from repro.plan import PlanBuilder, normalize
        from repro.optimizer.rules import apply_rewrites
        from repro.signatures import enumerate_subexpressions
        from repro.sql import parse

        plan = normalize(apply_rewrites(
            PlanBuilder(engine.catalog).build(parse(SQL))))
        subs = enumerate_subexpressions(plan, engine.signature_salt)
        join = max((s for s in subs if s.operator == "Join"),
                   key=lambda s: s.height)
        engine.insights.publish([Annotation(join.recurring, join.tag)])
        run = engine.run_sql(SQL)
        assert any(isinstance(n, Spool) for n in run.compiled.plan.walk())
        records = record(engine, run).subexpressions
        assert not any(r.operator == "Spool" for r in records)

    def test_viewscan_inherits_full_work(self, engine):
        from repro.optimizer.context import Annotation
        from repro.plan import PlanBuilder, normalize
        from repro.optimizer.rules import apply_rewrites
        from repro.signatures import enumerate_subexpressions
        from repro.sql import parse

        plan = normalize(apply_rewrites(
            PlanBuilder(engine.catalog).build(parse(SQL))))
        subs = enumerate_subexpressions(plan, engine.signature_salt)
        join = max((s for s in subs if s.operator == "Join"),
                   key=lambda s: s.height)
        engine.insights.publish([Annotation(join.recurring, join.tag)])

        full_work = {}
        repository = WorkloadRepository()
        producer = engine.run_sql(SQL)
        record(engine, producer, repository, full_work)
        reuser = engine.run_sql(SQL, now=1.0)
        assert any(isinstance(n, ViewScan) for n in reuser.compiled.plan.walk())
        record(engine, reuser, repository, full_work, now=1.0)

        occurrences = [r for r in repository.subexpressions
                       if r.recurring == join.recurring]
        assert len(occurrences) == 2
        producer_work = occurrences[0].work
        reuser_work = occurrences[1].work
        # The reusing instance records the compute the view STANDS FOR,
        # not the trivial cost of scanning it.
        assert reuser_work == pytest.approx(producer_work, rel=0.5)
        assert reuser_work > 0

    def test_join_algorithm_detail_recorded(self, engine):
        run = engine.run_sql(SQL, reuse_enabled=False)
        records = record(engine, run).subexpressions
        join = next(r for r in records if r.operator == "Join")
        assert join.detail in ("hash", "merge", "loop")


class TestSimulationReport:
    def make_report(self):
        telemetry = []
        for day in range(3):
            for i in range(2):
                t = JobTelemetry(job_id=f"d{day}j{i}", virtual_cluster="vc",
                                 submit_time=day * 86400.0 + i)
                t.processing_time = 10.0 * (day + 1)
                telemetry.append(t)
        return ClusterReport(
            config=SimulationConfig(days=3),
            telemetry=telemetry,
            repository=WorkloadRepository(),
            views_created=5, views_reused=20,
            catalog_digest="", wall_seconds=0.0)

    def test_total(self):
        report = self.make_report()
        assert report.total("processing_time") == 2 * (10 + 20 + 30)

    def test_daily_buckets(self):
        report = self.make_report()
        assert report.daily("processing_time") == {0: 20.0, 1: 40.0, 2: 60.0}

    def test_cumulative_daily(self):
        report = self.make_report()
        assert report.cumulative_daily("processing_time") == [
            (0, 20.0), (1, 60.0), (2, 120.0)]


class TestRecordsMatchThePerNodeWalks:
    """``record_job_into`` gathers eligibility and input datasets bottom-up
    in its one visit; every record must equal what the per-node subtree
    walks (and the uncached signature recursion) give for its node."""

    @staticmethod
    def check(session, job):
        compiled = job.run.compiled
        salt = session.engine.signature_salt
        nodes = [node for node in compiled.plan.walk()
                 if not isinstance(node, Spool)]     # node_id order
        records = [r for r in session.repository.subexpressions
                   if r.job_id == compiled.job_id]
        assert sorted(r.node_id for r in records) == list(range(len(nodes)))
        for r in records:
            node = nodes[r.node_id]
            recurring = reference_signature(node, True, salt)
            assert r.operator == node.op_label
            assert r.strict == reference_signature(node, False, salt)
            assert r.recurring == recurring
            assert r.tag == signature_tag(recurring)
            assert r.eligible == (not any(
                isinstance(n, Process) and (
                    not n.deterministic
                    or n.dependency_depth > MAX_DEPENDENCY_DEPTH)
                for n in node.walk()))
            assert r.input_datasets == tuple(sorted(
                n.dataset for n in node.walk() if isinstance(n, Scan)))
        return {type(node) for node in nodes}

    def test_tpcds_templates(self):
        with oracle_config("memory").open_session() as session:
            install_tpcds(session.engine, scale_rows=300, seed=42)
            operators = set()
            for round_no in (1, 2):
                for offset, (name, sql) in enumerate(TPCDS_QUERIES):
                    operators |= self.check(session, session.run(
                        sql, template_id=name,
                        now=1000.0 * round_no + offset))
                if round_no == 1:
                    session.analyze_and_publish()
            assert ViewScan in operators and session.views_created > 0

    def test_a_cooking_day_with_reuse(self):
        workload = generate_workload(
            name="records", seed=7, virtual_clusters=2, templates_per_vc=4,
            fact_rows_per_day=240, adhoc_per_day=2)
        with oracle_config("memory").open_session() as session:
            workload.install(session.engine, at=0.0)
            operators = set()
            for day in range(2):
                if day > 0:
                    workload.cook(session.engine, day)
                    session.evict_expired(now=day * SECONDS_PER_DAY)
                for job in workload.jobs_for_day(day):
                    operators |= self.check(session, session.run(
                        job.template.sql, params=job.params,
                        virtual_cluster=job.virtual_cluster,
                        template_id=job.template.template_id,
                        pipeline_id=job.template.pipeline_id,
                        now=job.submit_time))
                session.analyze_and_publish()
            assert ViewScan in operators

    @pytest.mark.parametrize("clause, eligible", [
        ("", True), (" DEPTH 16", True), (" DEPTH 17", False),
        (" NONDETERMINISTIC", False)])
    def test_user_code_in_the_subtree(self, clause, eligible):
        with oracle_config("memory").open_session() as session:
            session.engine.register_table(
                schema_of("T", [("k", "int"), ("v", "float")]),
                [dict(k=i % 4, v=float(i)) for i in range(8)])
            operators = self.check(session, session.run(
                "SELECT k, SUM(v) AS s FROM T GROUP BY k "
                f"PROCESS USING Scrub{clause}"))
            assert Process in operators
            by_operator = {r.operator: r.eligible
                           for r in session.repository.subexpressions}
            assert by_operator["Process"] is eligible
            assert by_operator["GroupBy"] is True
