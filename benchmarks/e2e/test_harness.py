"""Checks of the harness itself: ``python -m pytest benchmarks/e2e -q``.

Tiny streams and three timed days; nothing here measures anything.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import multiprocessing
import os
import re
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import trace as e2e_trace  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def tiny(name: str) -> workloads.WorkloadSpec:
    # The full template mix: three timed days of it are the fewest that
    # hold the 200 jobs a p95 needs.
    return dataclasses.replace(workloads.workload_named(name),
                               fact_rows_per_day=40, days=4)


@pytest.fixture()
def workdir():
    path = harness.make_workdir()
    yield path
    harness.remove_workdir(path)


def traced_repeat(name: str, workdir: str) -> harness.Repeat:
    return harness.run_repeat(tiny(name), seed=5, workdir=workdir,
                              spawned_at=time.time(), traced=True)


def all_targets():
    from repro.backends.memory import InMemoryBackend
    from repro.backends.sqlite.backend import SqliteBackend
    return (e2e_trace.SPAWN_TARGETS
            + e2e_trace.layer_targets(InMemoryBackend)
            + e2e_trace.layer_targets(SqliteBackend))


@pytest.fixture(scope="module")
def burst():
    """One traced repeat of the sharded workload and what every wrapped
    attribute held before it."""
    before = {(t.owner, t.attr): t.resolve().__dict__[t.attr]
              for t in all_targets()}
    path = harness.make_workdir()
    try:
        return before, traced_repeat("burst_sharded_durable", path)
    finally:
        harness.remove_workdir(path)


# --------------------------------------------------------------------- #
# names

def test_names_are_well_formed_and_match_benchmark_json(burst):
    benchmark = run.load_benchmark()
    declared = [w["name"] for w in benchmark["workloads"]]
    assert declared == [w.name for w in workloads.WORKLOADS]
    for workload in benchmark["workloads"]:
        assert workload["why"] == workloads.workload_named(
            workload["name"]).why
    _, repeat = burst
    assert set(repeat.end_to_end) == {
        m["name"] for m in benchmark["end_to_end"]}
    assert set(repeat.per_layer) == {
        m["name"] for m in benchmark["per_layer"]}
    names = declared + list(repeat.end_to_end) + list(repeat.per_layer)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    assert benchmark["paths"] == ["benchmarks/e2e"]


def test_layers_separate_by_workload(workdir):
    serial = traced_repeat("cooking_small", workdir).per_layer
    for name in ("shard.rpc_calls", "lifecycle.journal_appends",
                 "scheduler.waves"):
        assert serial[name] == 0
    assert serial["backends.execute_calls"] == serial["trace.jobs"] > 0
    assert 0.5 < serial["trace.coverage_share"] <= 1.0


# --------------------------------------------------------------------- #
# inputs

def first_events(name: str, seed: int, count: int = 400):
    # Full template mix (the wave structure depends on it), tiny streams.
    spec = dataclasses.replace(workloads.workload_named(name),
                               fact_rows_per_day=40)
    stream = workloads.event_stream(
        spec, workloads.build_workload(spec, seed), seed)
    return list(itertools.islice(stream, count))


@pytest.mark.parametrize("name", [w.name for w in workloads.WORKLOADS])
def test_same_seed_same_events_other_seed_other_events(name):
    assert first_events(name, 3) == first_events(name, 3)
    assert first_events(name, 3) != first_events(name, 4)


def test_the_stream_is_a_fixed_number_of_days():
    spec = tiny("cooking_small")
    events = list(workloads.event_stream(
        spec, workloads.build_workload(spec, 3), 3))
    assert {e.day for e in events} == set(range(spec.days))
    assert [e.kind for e in events].count("day_end") == spec.days
    assert events[-1].kind == "day_end"


def test_seconds_scale_the_timed_days():
    spec = workloads.workload_named("cooking_small")
    assert run.scaled(spec, 1.0) == spec
    assert run.scaled(spec, 0.5).days == 1 + (spec.days - 1) // 2
    assert run.scaled(spec, 0.0).days == 2  # never without a timed day


def test_burst_stream_has_waves_sweeps_and_a_daily_forget():
    events = first_events("burst_sharded_durable", 3)
    kinds = [e.kind for e in events if e.day == workloads.FORGET_FROM_DAY]
    assert kinds.count("forget") == 1 and kinds.count("gc") == 1
    assert kinds.index("forget") < kinds.index("wave") + \
        workloads.FORGET_BEFORE_WAVE + 1
    assert all(len(e.jobs) <= 8 for e in events if e.kind == "wave")
    assert not [e for e in events if e.kind == "forget" and e.day < 2]


def test_noreuse_shares_the_inputs_of_cooking_large():
    def jobs(name):
        return [e.jobs for e in first_events(name, 3)
                if e.kind == "job"][:300]
    assert jobs("cooking_large") == jobs("cooking_large_noreuse")
    assert "select" not in {
        e.kind for e in first_events("cooking_large_noreuse", 3)}


# --------------------------------------------------------------------- #
# tracing

def span(id, name, start, end, parent=None):
    return e2e_trace.Span(id, name, start, end, parent, thread=1)


def test_self_time_is_the_span_minus_what_children_cover():
    spans = [
        span(0, "job", 0.0, 10.0),
        span(1, "compile", 1.0, 4.0, parent=0),
        span(2, "parse", 1.5, 2.0, parent=1),
        span(3, "optimize", 2.0, 3.5, parent=1),
        span(4, "execute", 5.0, 9.0, parent=0),
        # Overlapping children (two threads under one wave) count once.
        span(5, "a", 5.0, 7.0, parent=4),
        span(6, "b", 6.0, 8.0, parent=4),
    ]
    own = e2e_trace.self_times(spans)
    assert own == pytest.approx(
        {0: 3.0, 1: 1.0, 2: 0.5, 3: 1.5, 4: 1.0, 5: 2.0, 6: 2.0})
    # Every second of the root is some span's own.
    assert sum(own[i] for i in (0, 1, 2, 3, 4)) + 3.0 == pytest.approx(10.0)


def test_tracer_nests_spans_and_resolves_the_trace_id():
    tracer = e2e_trace.Tracer()
    outer = tracer.begin("outer", trace="job-1")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    open_span = tracer.begin("never-ended")
    by_name = {s.name: s for s in tracer.spans()}
    assert set(by_name) == {"outer", "inner"}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].trace == "job-1"
    assert open_span[e2e_trace.END] == 0.0


def test_wrappers_are_restored_after_a_traced_run(burst):
    before, repeat = burst
    assert repeat.per_layer["shard.rpc_calls"] > 0
    assert repeat.per_layer["signatures.sign_calls"] > 0
    for target in all_targets():
        current = target.resolve().__dict__[target.attr]
        assert current is before[(target.owner, target.attr)]
        assert not hasattr(current, "__wrapped__")


def test_wrappers_are_restored_when_the_run_raises(workdir, monkeypatch):
    def boom(self, event, log):
        raise RuntimeError("boom")
    monkeypatch.setattr(harness.Driver, "step", boom)
    with pytest.raises(RuntimeError, match="boom"):
        traced_repeat("cooking_small", workdir)
    for target in all_targets():
        assert not hasattr(target.resolve().__dict__[target.attr],
                           "__wrapped__")


# --------------------------------------------------------------------- #
# statistics

def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 201))
    assert harness.percentile(samples, 0.95) == 190
    assert harness.percentile(samples, 0.5) == 100
    with pytest.raises(ValueError, match="beyond"):
        harness.percentile(samples[:199], 0.95)
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_a_window_too_short_for_p95_reports_nothing():
    def log_of(jobs):
        return harness.RunLog(attempted=jobs, wall_s=[0.01] * jobs,
                              window_s=2.0, scaled_s=2.0)
    with pytest.raises(ValueError, match="beyond"):
        harness.end_to_end_metrics(log_of(199), peak_rss_kb=1024,
                                   setup_s=1.0)
    assert harness.end_to_end_metrics(
        log_of(200), 1024, 1.0)["jobs_per_s"] == 100.0


def test_compare_verdicts():
    def side(median, low, high):
        return {"median": median, "min": low, "max": high}
    steady = side(100.0, 99.0, 101.0)
    assert compare.verdict(steady, side(95.0, 94.0, 96.0),
                           "higher", 0.10)[1] == "ok"
    assert compare.verdict(steady, side(85.0, 84.0, 86.0),
                           "higher", 0.10)[1] == "regressed"
    assert compare.verdict(steady, side(115.0, 114.0, 116.0),
                           "lower", 0.10)[1] == "regressed"
    assert compare.verdict(steady, side(115.0, 114.0, 116.0),
                           "higher", 0.10)[1] == "ok"
    # Wider than the bound and overlapping: the runs cannot tell.
    assert compare.verdict(side(100.0, 90.0, 110.0), side(95.0, 85.0, 105.0),
                           "higher", 0.10)[1] == "unresolved"
    # Wide but disjoint: every run of one side beats every run of the other.
    assert compare.verdict(side(100.0, 90.0, 110.0), side(70.0, 60.0, 80.0),
                           "higher", 0.10)[1] == "regressed"


# --------------------------------------------------------------------- #
# clean-up

def test_nothing_is_left_behind_when_a_repeat_raises(monkeypatch, capsys):
    real_step = harness.Driver.step
    steps = itertools.count()

    def step_then_boom(self, event, log):
        if next(steps) >= 3:  # shards are up, the journal is open
            raise RuntimeError("boom")
        real_step(self, event, log)

    monkeypatch.setattr(harness.Driver, "step", step_then_boom)
    seen = []
    real_workdir = harness.make_workdir
    monkeypatch.setattr(harness, "make_workdir",
                        lambda: seen.append(real_workdir()) or seen[-1])
    args = argparse.Namespace(
        workload="burst_sharded_durable", seed=5, days=4,
        spawned_at=time.time(), child="full", trace_out=None)
    with pytest.raises(RuntimeError, match="boom"):
        run.child_main(args)
    assert len(seen) == 1 and not os.path.exists(seen[0])
    assert multiprocessing.active_children() == []
    assert capsys.readouterr().out == ""


def test_a_full_repeat_verifies_and_cleans_up(monkeypatch, capsys):
    monkeypatch.setattr(run, "workload_named", tiny)
    args = argparse.Namespace(
        workload="burst_sharded_durable", seed=5, days=4,
        spawned_at=time.time(), child="full", trace_out=None)
    assert run.child_main(args) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert out["details"]["verified_jobs"] > 0
    assert multiprocessing.active_children() == []
    assert not os.path.exists(harness.WORK_ROOT)
