"""``repro lint`` is retired (DESIGN §7): its rules were each caught by
another oracle, so argparse now rejects the verb and every option it had."""

import pytest

from repro.cli import main


def test_lint_source_workload_is_gone(capsys):
    for argv in ([], ["--workload", "source"], ["--workload", "tpcds"],
                 ["--format", "json"], ["--suppress", "sig-salt"],
                 ["--list-rules"], ["--fail-on", "warn"],
                 ["--source-root", "src"]):
        with pytest.raises(SystemExit) as exited:
            main(["lint", *argv])
        assert exited.value.code == 2
    capsys.readouterr()
