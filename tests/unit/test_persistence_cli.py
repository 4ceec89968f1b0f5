"""Unit tests for repository persistence and the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.workload import generate_workload
from repro.workload import (
    JobRecord,
    SubexpressionRecord,
    WorkloadRepository,
)
from repro.workload.persistence import (
    PersistenceError,
    load_repository,
    merge_captures,
    save_repository,
)
from repro.workload.profiling import compile_only_repository


@pytest.fixture(scope="module")
def repository():
    workload = generate_workload(seed=3, virtual_clusters=2,
                                 templates_per_vc=4)
    return compile_only_repository(workload, days=2)


class TestPersistence:
    def test_round_trip(self, repository, tmp_path):
        path = tmp_path / "capture.jsonl"
        save_repository(repository, path)
        loaded = load_repository(path)
        assert loaded.total_jobs() == repository.total_jobs()
        assert loaded.total_subexpressions() == \
            repository.total_subexpressions()
        assert loaded.repeated_fraction() == \
            pytest.approx(repository.repeated_fraction())
        assert loaded.average_repeat_frequency() == \
            pytest.approx(repository.average_repeat_frequency())

    def test_round_trip_preserves_record_fields(self, repository, tmp_path):
        path = tmp_path / "capture.jsonl"
        save_repository(repository, path)
        loaded = load_repository(path)
        original = repository.subexpressions[0]
        restored = loaded.subexpressions[0]
        assert restored == original

    def test_merge_captures(self, repository, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        save_repository(repository, a)
        other = compile_only_repository(
            generate_workload(seed=9, name="cluster9",
                              virtual_clusters=1, templates_per_vc=3),
            days=1)
        save_repository(other, b)
        merged = merge_captures([a, b])
        assert merged.total_jobs() == \
            repository.total_jobs() + other.total_jobs()

    def test_merged_captures_keep_each_jobs_own_records(self, tmp_path):
        # Two clusters' captures that both hold a ``job-1``: a window (and
        # a re-saved capture) hands each job its own records, not both.
        paths = []
        for cluster in ("a", "b"):
            one = WorkloadRepository()
            one.add_job(JobRecord("job-1", cluster, 0.0, "t", "p", "r1",
                                  ("S",), 1),
                        [SubexpressionRecord(
                            "job-1", cluster, 0.0, "t", "p", f"strict-{cluster}",
                            "rec", "tag", "Scan", 0, True, 1, 8, 1.0)])
            paths.append(tmp_path / f"{cluster}.jsonl")
            save_repository(one, paths[-1])
        merged = merge_captures(paths)
        resaved = tmp_path / "merged.jsonl"
        save_repository(merged, resaved)
        for repository in (merged.window(0, 2), load_repository(resaved)):
            assert repository.total_subexpressions() == 2
            assert [(job.virtual_cluster, [r.strict for r in
                                           repository.records_of(index)])
                    for index, job in enumerate(repository.jobs)] == [
                ("a", ["strict-a"]), ("b", ["strict-b"])]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_repository(tmp_path / "nope.jsonl")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(PersistenceError):
            load_repository(path)

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "format_version": 99}\n')
        with pytest.raises(PersistenceError):
            load_repository(path)

    def test_orphan_subexpression_raises(self, tmp_path):
        path = tmp_path / "orphan.jsonl"
        path.write_text(
            '{"kind": "header", "format_version": 1}\n'
            '{"kind": "subexpression", "job_id": "j"}\n')
        with pytest.raises(PersistenceError):
            load_repository(path)

    def test_invalid_json_line_raises(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text('{"kind": "header", "format_version": 1}\nnot json\n')
        with pytest.raises(PersistenceError):
            load_repository(path)


class TestCli:
    def test_capture_then_analyze(self, tmp_path, capsys):
        path = tmp_path / "cap.jsonl"
        assert main(["capture", str(path), "--days", "2",
                     "--templates-per-vc", "4",
                     "--virtual-clusters", "2"]) == 0
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repeated fraction" in out
        assert "reuse candidates" in out

    def test_explain(self, capsys):
        assert main(["explain",
                     "SELECT RegionId, COUNT(*) AS n FROM Events "
                     "WHERE Day = @runDate GROUP BY RegionId"]) == 0
        out = capsys.readouterr().out
        assert "GroupBy" in out and "Scan Events" in out

    @pytest.mark.parametrize("sql", [
        "SELECT",                                   # ParseError
        "SELECT NoSuchColumn FROM Events",          # BindError
    ])
    def test_bad_input_is_a_message_not_a_traceback(self, sql, capsys):
        assert main(["explain", sql]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_tpcds(self, capsys):
        assert main(["tpcds", "--scale-rows", "600"]) == 0
        out = capsys.readouterr().out
        assert "running-time reduction" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--days", "3",
                     "--templates-per-vc", "6",
                     "--virtual-clusters", "2"]) == 0
        out = capsys.readouterr().out
        assert "Latency Improvement" in out
        assert "Views Created" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
