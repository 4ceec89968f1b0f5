"""Unit tests for the Section-5 extension prototypes."""

import pytest

from repro.extensions import (
    ContainmentChecker,
    concurrency_histogram,
    concurrent_joins,
    estimate_pipelined_sharing,
    join_set_opportunities,
)
from repro.plan.expressions import BinaryOp, ColumnRef, Literal, conjoin
from repro.workload.repository import (
    JobRecord,
    SubexpressionRecord,
    WorkloadRepository,
)


def pred(column, op, value):
    return BinaryOp(op, ColumnRef(column), Literal(value))


class TestContainment:
    def setup_method(self):
        self.checker = ContainmentChecker()

    def test_paper_example(self):
        # View: CustomerId > 5 contains query: CustomerId > 6.
        assert self.checker.contains(pred("CustomerId", ">", 5),
                                     pred("CustomerId", ">", 6))
        assert not self.checker.contains(pred("CustomerId", ">", 6),
                                         pred("CustomerId", ">", 5))

    def test_boundary_inclusivity(self):
        assert self.checker.contains(pred("x", ">=", 5), pred("x", ">", 5))
        assert not self.checker.contains(pred("x", ">", 5), pred("x", ">=", 5))

    def test_range_containment(self):
        general = conjoin([pred("x", ">", 0), pred("x", "<", 100)])
        specific = conjoin([pred("x", ">", 10), pred("x", "<", 50)])
        assert self.checker.contains(general, specific)
        assert not self.checker.contains(specific, general)

    def test_equality_containment(self):
        assert self.checker.contains(pred("seg", "=", "Asia"),
                                     pred("seg", "=", "Asia"))
        assert not self.checker.contains(pred("seg", "=", "Asia"),
                                         pred("seg", "=", "Europe"))

    def test_equality_inside_range(self):
        assert self.checker.contains(pred("x", ">", 5), pred("x", "=", 10))
        assert not self.checker.contains(pred("x", ">", 5), pred("x", "=", 3))

    def test_unconstrained_view_contains_everything(self):
        assert self.checker.contains(None, pred("x", ">", 5))

    def test_query_looser_than_view_rejected(self):
        assert not self.checker.contains(pred("x", ">", 5), None)

    def test_multi_column(self):
        general = conjoin([pred("x", ">", 0), pred("y", "<", 10)])
        specific = conjoin([pred("x", ">", 5), pred("y", "<", 5)])
        assert self.checker.contains(general, specific)

    def test_unsupported_predicate_is_sound(self):
        weird = BinaryOp("=", ColumnRef("x"), ColumnRef("y"))
        assert not self.checker.contains(weird, pred("x", ">", 5))


def make_repo(records):
    repo = WorkloadRepository()
    by_job = {}
    for r in records:
        by_job.setdefault(r.job_id, []).append(r)
    for job_id, recs in by_job.items():
        repo.add_job(JobRecord(
            job_id=job_id, virtual_cluster="vc1",
            submit_time=recs[0].submit_time, template_id="t",
            pipeline_id="p", runtime_version="r1", input_datasets=(),
            subexpression_count=len(recs)), recs)
    return repo


def join_rec(job_id, strict, recurring, inputs, t=0.0, detail="hash"):
    return SubexpressionRecord(
        job_id=job_id, virtual_cluster="vc1", submit_time=t,
        template_id="t", pipeline_id="p", strict=strict,
        recurring=recurring, tag="tg", operator="Join", height=2,
        eligible=True, rows=10, size_bytes=80, work=500.0,
        input_datasets=inputs, detail=detail)


class TestJoinSets:
    def test_groups_by_input_set(self):
        repo = make_repo([
            join_rec("j1", "s1", "r1", ("A", "B")),
            join_rec("j2", "s2", "r2", ("A", "B")),
            join_rec("j3", "s3", "r3", ("A", "C")),
        ])
        opportunities = join_set_opportunities(repo)
        assert opportunities[0].inputs == ("A", "B")
        assert opportunities[0].occurrences == 2
        assert opportunities[0].distinct_variants == 2

    def test_generalization_gain(self):
        repo = make_repo([
            join_rec(f"j{i}", f"s{i % 2}", f"r{i % 2}", ("A", "B"))
            for i in range(6)])
        (opp,) = join_set_opportunities(repo)
        assert opp.occurrences == 6
        assert opp.distinct_variants == 2
        assert opp.generalization_gain == 4

    def test_single_input_joins_excluded(self):
        repo = make_repo([join_rec("j1", "s1", "r1", ("A",))])
        assert join_set_opportunities(repo) == []


class TestConcurrent:
    def test_concurrent_instances_counted(self):
        repo = make_repo([
            join_rec(f"j{i}", "s1", "r1", ("A", "B"), t=float(i * 10))
            for i in range(5)])
        (result,) = concurrent_joins(repo, overlap_horizon_seconds=100.0)
        assert result.concurrency == 5
        assert result.algorithm == "hash"

    def test_spread_instances_not_concurrent(self):
        repo = make_repo([
            join_rec(f"j{i}", "s1", "r1", ("A", "B"), t=float(i * 10000))
            for i in range(5)])
        assert concurrent_joins(repo, overlap_horizon_seconds=100.0) == []

    def test_histogram_buckets_by_algorithm(self):
        joins = concurrent_joins(make_repo(
            [join_rec(f"h{i}", "s1", "r1", ("A", "B"), t=float(i),
                      detail="hash") for i in range(3)]
            + [join_rec(f"m{i}", "s2", "r2", ("A", "C"), t=float(i),
                        detail="merge") for i in range(2)]),
            overlap_horizon_seconds=100.0)
        histogram = concurrency_histogram(joins, bucket_size=200)
        assert histogram["hash"] == {0: 1}
        assert histogram["merge"] == {0: 1}

    def test_pipelined_sharing_estimate(self):
        repo = make_repo([
            join_rec(f"j{i}", "s1", "r1", ("A", "B"), t=float(i))
            for i in range(4)])
        plan = estimate_pipelined_sharing(repo, overlap_horizon_seconds=100.0)
        assert plan.shared_instances == 1
        assert plan.duplicates_avoided == 3
        assert plan.work_avoided == pytest.approx(3 * 500.0)
