"""Every example script must run cleanly end to end."""

import pathlib
import re
import runpy
import sys

import pytest

EXAMPLES = sorted(
    pathlib.Path(__file__).resolve().parents[2].joinpath("examples")
    .glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} produced no output"


def test_examples_exist():
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names
    assert len(names) >= 3


def test_workload_insights_phase_three_reuses(capsys):
    """Enabling reuse after the notebook must actually reuse: the session
    onboards every virtual cluster (opt-out), so the published
    selections reach the jobs that follow."""
    script = next(p for p in EXAMPLES if p.stem == "workload_insights")
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    phase3 = out.split("== Phase 3")[1]
    reused = [int(n) for n in re.findall(r"reused=(\d+)", phase3)]
    assert len(reused) == 4 and sum(reused) >= 1
