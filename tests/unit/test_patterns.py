"""Unit tests for query-pattern discovery (Section 5.2)."""

import pytest

from repro.workload import generate_workload
from repro.cli import main
from repro.workload.patterns import discover_patterns, operator_chains
from repro.workload.persistence import save_repository
from repro.workload.profiling import compile_only_repository
from repro.workload.repository import WorkloadRepository


@pytest.fixture(scope="module")
def repository():
    workload = generate_workload(seed=6, virtual_clusters=2,
                                 templates_per_vc=6)
    return compile_only_repository(workload, days=2)


class TestOperatorChains:
    def test_chains_run_root_to_leaf(self, repository):
        job_id = repository.jobs[0].job_id
        records = [r for r in repository.subexpressions
                   if r.job_id == job_id]
        chains = operator_chains(records)
        assert chains
        root_op = next(r.operator for r in records
                       if r.parent_node_id is None)
        for chain in chains:
            assert chain[0] == root_op
            assert chain[-1] == "Scan"

    def test_chain_count_equals_leaf_count(self, repository):
        job_id = repository.jobs[0].job_id
        records = [r for r in repository.subexpressions
                   if r.job_id == job_id]
        leaves = sum(1 for r in records if r.operator == "Scan")
        assert len(operator_chains(records)) == leaves


class TestDiscovery:
    def test_recurring_shapes_dominate(self, repository):
        patterns = discover_patterns(repository)
        assert patterns
        top = patterns[0]
        # The hottest chain recurs across jobs and templates.
        assert top.occurrences >= 4
        assert top.distinct_templates >= 2
        # Frequency ordering.
        occurrences = [p.occurrences for p in patterns]
        assert occurrences == sorted(occurrences, reverse=True)

    def test_group_by_aggregation_shape_present(self, repository):
        patterns = discover_patterns(repository)
        assert any("GroupBy" in p.chain and p.chain[-1] == "Scan"
                   for p in patterns)

    def test_min_occurrences_filter(self, repository):
        loose = discover_patterns(repository, min_occurrences=1)
        strict = discover_patterns(repository, min_occurrences=10)
        assert len(strict) <= len(loose)
        assert all(p.occurrences >= 10 for p in strict)

    def test_max_patterns_cap(self, repository):
        assert len(discover_patterns(repository, max_patterns=3)) <= 3

    def test_empty_repository(self):
        assert discover_patterns(WorkloadRepository()) == []

    def test_render(self, repository, tmp_path, capsys):
        """Patterns reach an operator through ``repro analyze``."""
        path = tmp_path / "capture.jsonl"
        save_repository(repository, path)
        assert main(["analyze", str(path)]) == 0
        text = capsys.readouterr().out.split("query patterns")[1]
        assert "chain" in text
        assert ">" in text
