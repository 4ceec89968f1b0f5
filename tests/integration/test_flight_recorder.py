"""Acceptance tests for the flight recorder riding a full co-simulation.

The ISSUE's bar: a two-day :class:`WorkloadSimulation` with the recorder
attached must produce (a) a metrics dump with insights-latency histograms
and view lifecycle counters, (b) a per-job trace for a reusing job that
nests compile -> insights fetch -> view match, and (c) a structured event
log that replays to the same counter totals — while a recorder-disabled
run stays behaviourally identical to an uninstrumented one.
"""

import dataclasses

import pytest

from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.obs import EventLog, FlightRecorder, load_capture, replay_counters
from repro.workload import generate_workload


def small_workload(seed=7):
    return generate_workload(seed=seed, virtual_clusters=2,
                             templates_per_vc=10, adhoc_per_day=2)


@pytest.fixture(scope="module")
def recorded():
    recorder = FlightRecorder()
    config = SimulationConfig(days=2, cloudviews_enabled=True)
    report = WorkloadSimulation(small_workload(), config,
                                recorder=recorder).run()
    return recorder, report


class TestMetricsDump:
    def test_insights_latency_histogram_present(self, recorded, tmp_path):
        recorder, _ = recorded
        recorder.dump(str(tmp_path))
        capture = load_capture(str(tmp_path))
        latency = capture["metrics"]["histograms"]["insights.fetch.latency"]
        assert latency["count"] > 0
        assert latency["p50"] > 0.0
        assert latency["p99"] >= latency["p50"]

    def test_view_lifecycle_counters(self, recorded):
        recorder, report = recorded
        counters = recorder.metrics.counters
        assert counters["views.match.hits"] == report.views_reused
        assert counters["events.view.created"] == report.views_created
        assert counters["events.view.sealed"] == report.views_created
        assert counters["engine.jobs.compiled"] == len(report.telemetry)

    def test_plan_cache_counters_events_and_report_line(self, recorded):
        """Every compile is a hit or a miss, said three ways that agree:
        the mirrored counters, the ``job.compiled`` events, the report."""
        recorder, report = recorded
        counters = recorder.metrics.counters
        hits = counters["engine.plan_cache.hits"]
        misses = counters["engine.plan_cache.misses"]
        assert hits + misses == counters["engine.jobs.compiled"]
        compiled = [e.attrs["plan_cache"] for e in recorder.events.events()
                    if e.kind == "job.compiled"]
        assert compiled.count("hit") == hits
        assert compiled.count("miss") == misses
        # A job re-binds a skeleton exactly when its SQL text ran before:
        # day 1's instance of every recurring template does; first
        # instances and the ad-hoc jobs compile from scratch.
        seen, repeats = set(), 0
        for day in range(2):
            for job in small_workload().jobs_for_day(day):
                repeats += job.template.sql in seen
                seen.add(job.template.sql)
        assert hits == repeats > 0
        assert "engine.plan_cache.unstable" not in counters
        line = next(line for line in recorder.metrics.render().splitlines()
                    if line.startswith("plan-template cache:"))
        assert f"{hits:,.0f} of {hits + misses:,.0f} compiles" in line

    def test_cluster_metrics_follow_telemetry(self, recorded):
        recorder, report = recorded
        assert (recorder.metrics.counter("cluster.jobs.completed")
                == len(report.telemetry))
        histogram = recorder.metrics.histogram("cluster.job.latency")
        assert histogram.count == len(report.telemetry)


class TestJobTrace:
    def test_reusing_job_trace_nests_compile_fetch_match(self, recorded):
        recorder, report = recorded
        reuser = next(t for t in report.telemetry if t.views_reused > 0)
        spans = recorder.tracer.trace(reuser.job_id)
        by_name = {s.name: s for s in spans}
        compile_span = by_name["job.compile"]
        fetch = by_name["insights.fetch"]
        match = by_name["view.match"]
        assert fetch.parent_id == compile_span.span_id
        assert match.parent_id == compile_span.span_id
        assert compile_span.attrs["views_reused"] == reuser.views_reused
        assert match.attrs["matches"] == reuser.views_reused
        # Spans carry simulated time: the fetch happens inside the compile.
        assert compile_span.start <= fetch.start <= compile_span.end

    def test_flamegraph_renders_the_nesting(self, recorded):
        recorder, report = recorded
        reuser = next(t for t in report.telemetry if t.views_reused > 0)
        text = recorder.tracer.render_flamegraph(reuser.job_id)
        lines = text.splitlines()
        compile_at = next(i for i, l in enumerate(lines)
                          if l.startswith("job.compile"))
        assert any(l.startswith("  insights.fetch")
                   for l in lines[compile_at + 1:])

    def test_selection_epochs_are_traced(self, recorded):
        recorder, report = recorded
        epochs = recorder.tracer.trace("epoch-1")
        assert [s.name for s in epochs] == ["selection.epoch"]
        assert len(report.selections) >= 1


class TestEventReplay:
    def test_jsonl_replays_to_recorded_totals(self, recorded, tmp_path):
        recorder, _ = recorded
        path = str(tmp_path / "events.jsonl")
        recorder.events.dump_jsonl(path)
        loaded = EventLog.load_jsonl(path)
        assert replay_counters(loaded) == {
            name: value for name, value in recorder.metrics.counters.items()
            if name.startswith("events.")}

    def test_event_log_covers_the_feedback_loop(self, recorded):
        recorder, _ = recorded
        counts = recorder.events.counts()
        for kind in ("job.compiled", "job.finished", "view.created",
                     "view.sealed", "view.reused", "lock.acquired",
                     "selection.epoch"):
            assert counts.get(kind, 0) > 0, kind


class TestDisabledRecorderIsInvisible:
    def test_no_recorder_matches_plain_run(self):
        config = SimulationConfig(days=2, cloudviews_enabled=True)
        plain = WorkloadSimulation(small_workload(), config).run()
        recorded = WorkloadSimulation(small_workload(), config,
                                      recorder=FlightRecorder()).run()
        assert plain.views_created == recorded.views_created
        assert plain.views_reused == recorded.views_reused
        assert len(plain.telemetry) == len(recorded.telemetry)
        for a, b in zip(plain.telemetry, recorded.telemetry):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
