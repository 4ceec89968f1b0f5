"""Integration tests for ``repro lint``: the CI entry point must report
zero error findings over the bundled workloads, in both output formats,
with the documented exit-code contract."""

import json

import pytest

from repro.cli import main


def test_lint_cooking_json_is_clean(capsys):
    exit_code = main(["lint", "--workload", "cooking", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert payload["ok"] is True
    assert payload["counts"]["error"] == 0
    assert payload["plans_analyzed"] > 0
    assert payload["rules_run"] >= 15
    assert payload["findings"] == []


def test_lint_tpcds_text_is_clean(capsys):
    exit_code = main(["lint", "--workload", "tpcds", "--scale-rows", "200"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert out.strip().endswith("rules)")
    assert out.startswith("ok:")


def test_lint_suppress_flag_reaches_analyzer(capsys):
    exit_code = main(["lint", "--workload", "cooking", "--format", "json",
                      "--suppress", "sig-determinism",
                      "--suppress", "sig-salt"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert payload["rules_run"] == 15  # 17 registered minus 2 suppressed


def test_lint_list_rules(capsys):
    exit_code = main(["lint", "--list-rules"])
    out = capsys.readouterr().out
    assert exit_code == 0
    for expected in ("plan-project-arity", "sig-determinism",
                     "reuse-view-liveness"):
        assert expected in out
    assert "concurrency-" not in out


def test_lint_json_is_stable(capsys):
    """Two runs over every bundled workload render byte-identical JSON."""
    main(["lint", "--workload", "all", "--format", "json"])
    first = capsys.readouterr().out
    main(["lint", "--workload", "all", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["counts"] == {"error": 0, "warn": 0, "info": 0}


def test_lint_source_workload_is_gone(capsys):
    """The static concurrency pass is retired (DESIGN §10): argparse
    rejects its workload and its two options."""
    for argv in (["--workload", "source"], ["--fail-on", "warn"],
                 ["--source-root", "src"]):
        with pytest.raises(SystemExit) as exited:
            main(["lint", *argv])
        assert exited.value.code == 2
    capsys.readouterr()
