"""Unit tests for view-selection: candidates, greedy, per-VC, BigSubs,
and schedule awareness."""

import pytest

from repro.selection import (
    ReuseCandidate,
    SelectionPolicy,
    apply_schedule_awareness,
    bigsubs_select,
    build_candidates,
    effective_frequency,
    greedy_select,
    per_vc_select,
)
from repro.workload.repository import (
    JobRecord,
    SubexpressionRecord,
    WorkloadRepository,
)


def record(job_id, recurring, strict, *, vc="vc1", t=0.0, work=1000.0,
           rows=50, size=400, height=2, node_id=0, parent=None,
           eligible=True, operator="Join"):
    return SubexpressionRecord(
        job_id=job_id, virtual_cluster=vc, submit_time=t,
        template_id=f"tmpl-{recurring}", pipeline_id="p",
        strict=strict, recurring=recurring, tag=f"tag-{recurring}",
        operator=operator, height=height, eligible=eligible, rows=rows,
        size_bytes=size, work=work, node_id=node_id, parent_node_id=parent)


def repo_with(*records):
    repo = WorkloadRepository()
    by_job = {}
    for r in records:
        by_job.setdefault(r.job_id, []).append(r)
    for job_id, recs in by_job.items():
        repo.add_job(JobRecord(
            job_id=job_id, virtual_cluster=recs[0].virtual_cluster,
            submit_time=recs[0].submit_time, template_id="t",
            pipeline_id="p", runtime_version="r1",
            input_datasets=("D",), subexpression_count=len(recs)), recs)
    return repo


def candidate(recurring="r1", frequency=5, instances=1, rows=50,
              size=400, work=1000.0, vcs=("vc1",), times=None,
              per_vc=None):
    times = times or ((0.0,) * frequency,)
    return ReuseCandidate(
        recurring=recurring, tag=f"tag-{recurring}", operator="Join",
        height=2, frequency=frequency, instances=instances,
        distinct_jobs=frequency, avg_rows=rows, avg_bytes=size,
        avg_work=work, virtual_clusters=frozenset(vcs),
        instance_times=tuple(tuple(t) for t in times),
        per_vc_frequency=per_vc or tuple((vc, frequency) for vc in vcs))


class TestCandidates:
    def test_benefit_counts_only_within_epoch_reuse(self):
        within = candidate(frequency=6, instances=1)
        across = candidate(frequency=6, instances=6)
        assert within.benefit > 0
        assert across.reusable_occurrences == 0
        assert across.benefit <= 0

    def test_build_candidates_epoch_grouping(self):
        # Same recurring sig, two epochs, 3 occurrences each.
        records = []
        for day in range(2):
            for i in range(3):
                records.append(record(f"j{day}{i}", "r1", f"strict-{day}",
                                      t=day * 86400.0 + i))
        repo = repo_with(*records)
        (cand,) = build_candidates(repo)
        assert cand.frequency == 6
        assert cand.instances == 2
        assert cand.reusable_occurrences == 4

    def test_scans_excluded_by_height(self):
        records = [record(f"j{i}", "r1", "s1", height=0) for i in range(4)]
        assert build_candidates(repo_with(*records)) == []

    def test_ineligible_excluded(self):
        records = [record(f"j{i}", "r1", "s1", eligible=False)
                   for i in range(4)]
        assert build_candidates(repo_with(*records)) == []

    def test_never_cooccurring_excluded(self):
        records = [record(f"j{i}", "r1", f"s{i}") for i in range(4)]
        assert build_candidates(repo_with(*records)) == []

    def test_density_orders_output(self):
        records = ([record(f"a{i}", "big", "sb", size=100, work=5000.0,
                           node_id=0) for i in range(3)]
                   + [record(f"b{i}", "small", "ss", size=10000, work=500.0,
                             node_id=0) for i in range(3)])
        cands = build_candidates(repo_with(*records))
        assert [c.recurring for c in cands] == ["big", "small"]


class TestScheduleAwareness:
    def test_effective_frequency_no_lag(self):
        assert effective_frequency((0.0, 1.0, 2.0), 0.0) == 3

    def test_burst_collapses_to_one(self):
        assert effective_frequency((0.0, 1.0, 2.0), 100.0) == 1

    def test_spread_survives(self):
        assert effective_frequency((0.0, 200.0, 400.0), 100.0) == 3

    def test_mixed_burst_and_spread(self):
        # burst at 0-2s, then two spread instances
        assert effective_frequency((0.0, 1.0, 2.0, 500.0, 1000.0), 100.0) == 3

    def test_empty(self):
        assert effective_frequency((), 100.0) == 0

    def test_filter_drops_burst_only_candidates(self):
        burst = candidate(recurring="burst", frequency=4, instances=1,
                          times=((0.0, 1.0, 2.0, 3.0),))
        spread = candidate(recurring="spread", frequency=4, instances=1,
                           times=((0.0, 500.0, 1000.0, 1500.0),))
        survivors, rejected = apply_schedule_awareness([burst, spread], 100.0)
        assert [c.recurring for c in survivors] == ["spread"]
        assert rejected == 1

    def test_policy_lag_flows_through_greedy(self):
        burst = candidate(recurring="burst", frequency=4, instances=1,
                          times=((0.0, 1.0, 2.0, 3.0),))
        policy = SelectionPolicy(materialization_lag_seconds=100.0)
        result = greedy_select([burst], policy)
        assert result.selected == []
        assert result.rejected_by_schedule == 1


class TestGreedy:
    def test_respects_storage_budget(self):
        cands = [candidate(recurring=f"r{i}", size=400) for i in range(10)]
        policy = SelectionPolicy(storage_budget_bytes=1000,
                                 min_reuses_per_epoch=0)
        result = greedy_select(cands, policy)
        assert len(result.selected) == 2
        assert result.storage_used <= 1000
        assert result.rejected_by_budget == 8

    def test_respects_max_views(self):
        cands = [candidate(recurring=f"r{i}") for i in range(10)]
        policy = SelectionPolicy(max_views=3, min_reuses_per_epoch=0)
        assert len(greedy_select(cands, policy).selected) == 3

    def test_min_benefit_threshold(self):
        tiny = candidate(recurring="tiny", work=10.0, rows=50)
        assert tiny.benefit <= 0
        result = greedy_select([tiny], SelectionPolicy())
        assert result.selected == []

    def test_min_reuses_per_epoch(self):
        marginal = candidate(frequency=4, instances=2)  # 1 reuse/epoch
        hot = candidate(recurring="hot", frequency=8, instances=2)
        policy = SelectionPolicy(min_reuses_per_epoch=2.0)
        result = greedy_select([marginal, hot], policy)
        assert [c.recurring for c in result.selected] == ["hot"]

    def test_annotations_produced(self):
        result = greedy_select([candidate()], SelectionPolicy(
            min_reuses_per_epoch=0))
        (annotation,) = result.annotations()
        assert annotation.recurring_signature == "r1"
        assert annotation.tag == "tag-r1"

    def test_summary_is_readable(self):
        result = greedy_select([candidate()], SelectionPolicy(
            min_reuses_per_epoch=0))
        assert "1 views selected" in result.summary()


class TestPerVc:
    def test_per_vc_budgets_independent(self):
        a = candidate(recurring="a", vcs=("vc1",), size=800,
                      per_vc=(("vc1", 5),))
        b = candidate(recurring="b", vcs=("vc2",), size=800,
                      per_vc=(("vc2", 5),))
        policy = SelectionPolicy(storage_budget_bytes=1000,
                                 min_reuses_per_epoch=0)
        result = per_vc_select([a, b], policy)
        # Each VC has its own 1000-byte budget: both fit.
        assert {c.recurring for c in result.selected} == {"a", "b"}

    def test_explicit_per_vc_budget(self):
        a = candidate(recurring="a", vcs=("vc1",), size=800,
                      per_vc=(("vc1", 5),))
        policy = SelectionPolicy(per_vc_budgets={"vc1": 100},
                                 min_reuses_per_epoch=0)
        result = per_vc_select([a], policy)
        assert result.selected == []

    def test_cross_vc_candidate_needs_local_frequency(self):
        shared = candidate(recurring="x", vcs=("vc1", "vc2"),
                           per_vc=(("vc1", 5), ("vc2", 1)))
        policy = SelectionPolicy(min_reuses_per_epoch=0)
        result = per_vc_select([shared], policy)
        # vc2 frequency 1 cannot reuse; vc1 carries the selection.
        assert [c.recurring for c in result.selected] == ["x"]


class TestBigSubs:
    def _nested_repo(self):
        """Jobs where candidate 'outer' contains candidate 'inner'."""
        records = []
        for i in range(4):
            records.append(record(f"j{i}", "outer", "so", work=5000.0,
                                  size=500, node_id=0, parent=None, height=3))
            records.append(record(f"j{i}", "inner", "si", work=2000.0,
                                  size=300, node_id=1, parent=0, height=2))
        return repo_with(*records)

    def test_nested_candidate_suppressed(self):
        repo = self._nested_repo()
        cands = build_candidates(repo)
        policy = SelectionPolicy(storage_budget_bytes=10_000,
                                 min_reuses_per_epoch=0)
        result = bigsubs_select(repo, cands, policy)
        assert [c.recurring for c in result.selected] == ["outer"]

    def test_inner_selected_when_outer_does_not_fit(self):
        repo = self._nested_repo()
        cands = build_candidates(repo)
        policy = SelectionPolicy(storage_budget_bytes=350,
                                 min_reuses_per_epoch=0)
        result = bigsubs_select(repo, cands, policy)
        assert [c.recurring for c in result.selected] == ["inner"]

    def test_disjoint_candidates_both_selected(self):
        records = []
        for i in range(4):
            records.append(record(f"a{i}", "r1", "s1", node_id=0))
        for i in range(4):
            records.append(record(f"b{i}", "r2", "s2", node_id=0))
        repo = repo_with(*records)
        result = bigsubs_select(repo, build_candidates(repo),
                                SelectionPolicy(min_reuses_per_epoch=0))
        assert {c.recurring for c in result.selected} == {"r1", "r2"}

    def test_converges_empty_on_no_viable_candidates(self):
        repo = repo_with(record("j1", "r1", "s1"))
        result = bigsubs_select(repo, build_candidates(repo),
                                SelectionPolicy())
        assert result.selected == []

    def test_bigsubs_respects_max_views(self):
        records = []
        for sig in ("r1", "r2", "r3"):
            for i in range(4):
                records.append(record(f"{sig}-j{i}", sig, f"s-{sig}",
                                      node_id=0))
        repo = repo_with(*records)
        policy = SelectionPolicy(max_views=2, min_reuses_per_epoch=0)
        result = bigsubs_select(repo, build_candidates(repo), policy)
        assert len(result.selected) <= 2

    def test_unknown_algorithm_rejected(self):
        from repro.api import Session
        with pytest.raises(ValueError):
            Session(selection_algorithm="nope")
