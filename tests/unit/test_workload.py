"""Unit tests for the workload generator, repository, and analyses."""

import pytest

from repro.common.clock import SECONDS_PER_DAY
from repro.engine import ScopeEngine
from repro.workload import (
    WorkloadRepository,
    consumer_distribution,
    generate_workload,
    overlap_series,
    pipeline_summary,
    sharing_summary,
)
from repro.workload.repository import JobRecord, SubexpressionRecord


@pytest.fixture(scope="module")
def workload():
    return generate_workload(seed=11, virtual_clusters=3, templates_per_vc=8)


class TestGenerator:
    def test_template_count(self, workload):
        assert len(workload.templates) == 24

    def test_templates_spread_across_vcs(self, workload):
        vcs = {t.virtual_cluster for t in workload.templates}
        assert vcs == set(workload.virtual_clusters)

    def test_roughly_80_percent_recurring(self, workload):
        recurring = sum(1 for t in workload.templates if t.recurring)
        assert recurring / len(workload.templates) >= 0.7

    def test_pipeline_lives_in_one_vc(self, workload):
        by_pipeline = {}
        for t in workload.templates:
            by_pipeline.setdefault(t.pipeline_id, set()).add(t.virtual_cluster)
        assert all(len(vcs) == 1 for vcs in by_pipeline.values())

    def test_install_registers_all_datasets(self, workload):
        engine = ScopeEngine()
        workload.install(engine)
        for dataset in workload.datasets():
            assert engine.catalog.has(dataset)
            rows = engine.store.get(engine.catalog.current_guid(dataset))
            assert rows

    def test_cook_rolls_fact_guids_only(self, workload):
        engine = ScopeEngine()
        workload.install(engine)
        before = {d: engine.catalog.current_guid(d)
                  for d in workload.datasets()}
        workload.cook(engine, day=1)
        after = {d: engine.catalog.current_guid(d)
                 for d in workload.datasets()}
        assert before["Events"] != after["Events"]
        assert before["Sessions"] != after["Sessions"]
        assert before["Users"] == after["Users"]

    def test_jobs_for_day_sorted_and_parameterized(self, workload):
        jobs = workload.jobs_for_day(2)
        times = [j.submit_time for j in jobs]
        assert times == sorted(times)
        assert all(j.params.get("runDate") == "d0002" for j in jobs
                   if j.template.uses_run_date)
        assert all(2 * SECONDS_PER_DAY <= t < 3 * SECONDS_PER_DAY
                   for t in times)

    def test_nonrecurring_templates_only_day_zero(self, workload):
        day0_ids = {j.template.template_id for j in workload.jobs_for_day(0)}
        day1_ids = {j.template.template_id for j in workload.jobs_for_day(1)}
        one_off = {t.template_id for t in workload.templates
                   if not t.recurring}
        assert one_off <= day0_ids
        assert not (one_off & {i for i in day1_ids if "adhoc" not in i})

    def test_adhoc_jobs_unique_per_day(self, workload):
        day1 = [j for j in workload.jobs_for_day(1)
                if "adhoc" in j.template.template_id]
        day2 = [j for j in workload.jobs_for_day(2)
                if "adhoc" in j.template.template_id]
        assert len(day1) == workload.adhoc_per_day
        sqls1 = {j.template.sql for j in day1}
        sqls2 = {j.template.sql for j in day2}
        assert not (sqls1 & sqls2)

    def test_generation_deterministic(self):
        a = generate_workload(seed=5, templates_per_vc=6)
        b = generate_workload(seed=5, templates_per_vc=6)
        assert [t.sql for t in a.templates] == [t.sql for t in b.templates]

    def test_different_seeds_differ(self):
        a = generate_workload(seed=5, templates_per_vc=6)
        b = generate_workload(seed=6, templates_per_vc=6)
        assert [t.sql for t in a.templates] != [t.sql for t in b.templates]

    def test_all_sql_parses_and_compiles(self, workload):
        engine = ScopeEngine()
        workload.install(engine)
        for instance in workload.jobs_for_day(0)[:20]:
            compiled = engine.compile(instance.template.sql,
                                      params=instance.params,
                                      reuse_enabled=False)
            assert compiled.plan.schema


def rec(job_id, recurring, strict, vc="vc1", t=0.0, height=1):
    return SubexpressionRecord(
        job_id=job_id, virtual_cluster=vc, submit_time=t,
        template_id=f"tmpl-{job_id}", pipeline_id="p", strict=strict,
        recurring=recurring, tag="tg", operator="Join", height=height,
        eligible=True, rows=10, size_bytes=80, work=100.0,
        input_datasets=("D",))


def job_record(job_id, t=0.0, datasets=("D",), template="tmpl"):
    return JobRecord(job_id=job_id, virtual_cluster="vc1", submit_time=t,
                     template_id=template, pipeline_id="pipe",
                     runtime_version="r1", input_datasets=tuple(datasets),
                     subexpression_count=1)


class TestRepository:
    def test_repeated_fraction(self):
        repo = WorkloadRepository()
        repo.add_job(job_record("j1"), [rec("j1", "r1", "s1")])
        repo.add_job(job_record("j2"), [rec("j2", "r1", "s1")])
        repo.add_job(job_record("j3"), [rec("j3", "r2", "s2")])
        assert repo.repeated_fraction() == pytest.approx(2 / 3)

    def test_average_repeat_frequency(self):
        repo = WorkloadRepository()
        for i in range(4):
            repo.add_job(job_record(f"j{i}"), [rec(f"j{i}", "r1", "s1")])
        repo.add_job(job_record("j9"), [rec("j9", "r2", "s2")])
        assert repo.average_repeat_frequency() == pytest.approx(2.5)

    def test_empty_repo_statistics(self):
        repo = WorkloadRepository()
        assert repo.repeated_fraction() == 0.0
        assert repo.average_repeat_frequency() == 0.0

    def test_window_filters_by_time(self):
        repo = WorkloadRepository()
        repo.add_job(job_record("j1", t=10.0), [rec("j1", "r1", "s1", t=10.0)])
        repo.add_job(job_record("j2", t=99.0), [rec("j2", "r1", "s1", t=99.0)])
        window = repo.window(0.0, 50.0)
        assert window.total_jobs() == 1
        assert window.total_subexpressions() == 1

    def test_occurrences_lookup(self):
        repo = WorkloadRepository()
        repo.add_job(job_record("j1"), [rec("j1", "r1", "s1")])
        repo.add_job(job_record("j2"), [rec("j2", "r1", "s1")])
        def occurrences(recurring):
            return [r for r in repo.subexpressions if r.recurring == recurring]

        assert len(occurrences("r1")) == 2
        assert occurrences("missing") == []

    def test_dataset_consumers_by_template(self):
        repo = WorkloadRepository()
        repo.add_job(job_record("j1", template="t1", datasets=("A", "B")), [])
        repo.add_job(job_record("j2", template="t2", datasets=("A",)), [])
        repo.add_job(job_record("j3", template="t1", datasets=("A",)), [])
        consumers = repo.dataset_consumers()
        assert consumers["A"] == {"t1", "t2"}
        assert consumers["B"] == {"t1"}


class TestAnalysis:
    def _repo(self):
        repo = WorkloadRepository()
        for i in range(6):
            repo.add_job(job_record(f"j{i}", t=i * SECONDS_PER_DAY / 2,
                                    template=f"t{i % 3}",
                                    datasets=("A",) if i % 2 else ("A", "B")),
                         [rec(f"j{i}", "r1", f"s{i // 2}",
                              t=i * SECONDS_PER_DAY / 2)])
        return repo

    def test_consumer_distribution_is_cdf(self):
        points = consumer_distribution(self._repo())
        fractions = [p.fraction_of_streams for p in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)
        counts = [p.distinct_consumers for p in points]
        assert counts == sorted(counts)

    def test_sharing_summary(self):
        summary = sharing_summary(self._repo())
        assert summary["datasets"] == 2
        assert summary["shared_fraction"] == 1.0
        assert summary["max_consumers"] >= summary["p90_consumers"]

    def test_sharing_summary_empty(self):
        assert sharing_summary(WorkloadRepository())["datasets"] == 0

    def test_overlap_series_buckets(self):
        points = overlap_series(self._repo(), bucket_days=1)
        assert len(points) == 3
        assert all(0.0 <= p.repeated_fraction <= 1.0 for p in points)

    def test_pipeline_summary(self):
        summary = pipeline_summary(self._repo())
        assert summary["jobs"] == 6
        assert summary["virtual_clusters"] == 1
        assert summary["runtime_versions"] == 1
