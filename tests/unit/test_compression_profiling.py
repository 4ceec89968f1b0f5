"""Unit tests for workload compression and the profiling helpers."""

import pytest

from repro.workload import generate_workload
from repro.workload.compression import compress_workload, replay_plan
from repro.workload.profiling import (
    compile_only_repository,
    synthesize_dataset_sharing,
)
from repro.workload.repository import WorkloadRepository


@pytest.fixture(scope="module")
def repository():
    workload = generate_workload(seed=4, virtual_clusters=2,
                                 templates_per_vc=6)
    return compile_only_repository(workload, days=3)


class TestCompression:
    def test_recurring_instances_collapse(self, repository):
        compressed = compress_workload(repository)
        # Three days of recurring templates collapse ~3x (ad-hocs stay).
        assert compressed.compression_ratio > 1.5
        assert compressed.coverage() == repository.total_jobs()

    def test_representatives_are_earliest_instances(self, repository):
        compressed = compress_workload(repository)
        for representative in compressed.representatives:
            if representative.weight >= 3:
                # A daily template's exemplar comes from day 0.
                assert representative.job.submit_time < 86400.0

    def test_weights_ordered_descending(self, repository):
        compressed = compress_workload(repository)
        weights = [r.weight for r in compressed.representatives]
        assert weights == sorted(weights, reverse=True)

    def test_class_signature_stable_across_days(self, repository):
        by_template = {}
        for job in repository.jobs:
            if "adhoc" in job.template_id:
                continue
            by_template.setdefault(job.template_id, []).append(job.job_id)
        template, job_ids = next(
            (t, ids) for t, ids in by_template.items() if len(ids) >= 2)
        # Two days' instances of one template are one plan class: a
        # single representative stands for both.
        classes = [r for r in compress_workload(repository).representatives
                   if r.job.template_id == template]
        assert len(classes) == 1 and classes[0].weight == len(job_ids)

    def test_replay_plan_truncation(self, repository):
        compressed = compress_workload(repository)
        full = replay_plan(compressed)
        top = replay_plan(compressed, max_representatives=3)
        assert len(top) == 3
        assert len(full) == len(compressed.representatives)
        # Truncation keeps the heaviest classes.
        assert sum(w for _, w in top) >= sum(
            w for _, w in full[:3])

    def test_empty_repository(self):
        compressed = compress_workload(WorkloadRepository())
        assert compressed.representatives == []
        assert compressed.compression_ratio == 1.0


class TestProfiling:
    def test_compile_only_matches_generator_shape(self, repository):
        assert repository.total_jobs() > 0
        assert repository.repeated_fraction() > 0.7

    def test_compile_only_has_no_runtime_numbers(self, repository):
        assert all(r.rows == 0 for r in repository.subexpressions)

    def test_compile_only_tracks_tree_structure(self, repository):
        roots = [r for r in repository.subexpressions
                 if r.parent_node_id is None]
        jobs = {r.job_id for r in repository.subexpressions}
        assert len(roots) == len(jobs)

    def test_synthesized_sharing_is_heavy_tailed(self):
        repo = synthesize_dataset_sharing("c1", seed=1, streams=100,
                                          consumers=400)
        consumers = sorted((len(c) for c in
                            repo.dataset_consumers().values()),
                           reverse=True)
        assert consumers[0] > 5 * consumers[len(consumers) // 2]

    def test_synthesized_sharing_deterministic(self):
        a = synthesize_dataset_sharing("c1", seed=1, streams=50,
                                       consumers=100)
        b = synthesize_dataset_sharing("c1", seed=1, streams=50,
                                       consumers=100)
        assert [j.input_datasets for j in a.jobs] == \
            [j.input_datasets for j in b.jobs]

    def test_skew_increases_top_stream_consumers(self):
        flat = synthesize_dataset_sharing("c", seed=2, streams=100,
                                          consumers=500, skew=0.8)
        skewed = synthesize_dataset_sharing("c", seed=2, streams=100,
                                            consumers=500, skew=1.4)
        top = lambda repo: max(len(c) for c in
                               repo.dataset_consumers().values())
        assert top(skewed) > top(flat)
