"""Unit tests for the tracing and event-log pillars plus the recorder."""

import pytest

from repro.common.clock import SECONDS_PER_DAY
from repro.obs import (
    Event,
    EventLog,
    FlightRecorder,
    NullRecorder,
    Span,
    Tracer,
    load_capture,
    render_flamegraph,
    replay_counters,
)


def trace_of(tracer, trace_id, directory):
    """One trace's spans as ``repro obs trace`` reads them: dumped,
    loaded back and picked by trace id."""
    path = directory / "spans.jsonl"
    tracer.dump_jsonl(str(path))
    return [span for span in Tracer.load_jsonl(str(path))
            if span.trace_id == trace_id]


class TestTracer:
    def test_span_nesting_and_durations(self, tmp_path):
        tracer = Tracer()
        parent = tracer.start_span("job.compile", trace_id="job-1", at=10.0)
        child = tracer.start_span("insights.fetch", trace_id="job-1",
                                  at=10.0, parent=parent)
        child.finish(at=10.015)
        parent.finish(at=10.015)
        spans = trace_of(tracer, "job-1", tmp_path)
        assert [s.name for s in spans] == ["job.compile", "insights.fetch"]
        assert spans[1].parent_id == spans[0].span_id
        assert spans[1].duration == pytest.approx(0.015)

    def test_flamegraph_renders_nesting(self, tmp_path):
        tracer = Tracer()
        parent = tracer.start_span("job.compile", trace_id="j", at=0.0)
        tracer.start_span("view.match", trace_id="j", at=0.0,
                          parent=parent).annotate("matches", 2).finish(at=0.0)
        parent.finish(at=0.1)
        text = render_flamegraph(trace_of(tracer, "j", tmp_path), "j")
        lines = text.splitlines()
        assert "job.compile" in lines[1]
        assert lines[2].startswith("  view.match")
        assert "matches=2" in lines[2]

    def test_flamegraph_empty_trace(self):
        assert "no spans" in render_flamegraph([], "missing")

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        span = tracer.start_span("cluster.schedule", trace_id="job-9",
                                 at=5.0, virtual_cluster="vc0")
        span.finish(at=9.0)
        path = tmp_path / "spans.jsonl"
        assert tracer.dump_jsonl(str(path)) == 1
        loaded = Tracer.load_jsonl(str(path))
        assert len(loaded) == 1
        assert loaded[0].name == "cluster.schedule"
        assert loaded[0].trace_id == "job-9"
        assert loaded[0].duration == pytest.approx(4.0)
        assert loaded[0].attrs == {"virtual_cluster": "vc0"}


class TestEventLog:
    def test_emit_filter_and_counts(self):
        log = EventLog()
        log.emit("view.sealed", at=10.0, job_id="job-1", rows=5)
        log.emit("view.sealed", at=90000.0, job_id="job-2", rows=7)
        log.emit("lock.denied", at=90001.0, job_id="job-3")
        assert len(log) == 3
        assert len(log.events(kind="view.sealed")) == 2
        assert [e.job_id for e in log.events(since=SECONDS_PER_DAY)] == ["job-2", "job-3"]
        assert log.counts() == {"view.sealed": 2, "lock.denied": 1}

    def test_jsonl_round_trip_and_replay(self, tmp_path):
        log = EventLog()
        log.emit("view.created", at=1.0, job_id="job-1", signature="abc")
        log.emit("view.sealed", at=2.0, job_id="job-1", signature="abc")
        log.emit("view.sealed", at=3.0, job_id="job-2", signature="def")
        path = tmp_path / "events.jsonl"
        assert log.dump_jsonl(str(path)) == 3
        loaded = EventLog.load_jsonl(str(path))
        assert [e.kind for e in loaded] == \
            [e.kind for e in log.events()]
        assert loaded[0].attrs["signature"] == "abc"
        assert replay_counters(loaded) == {
            "events.view.created": 1.0,
            "events.view.sealed": 2.0,
        }


class TestFlightRecorder:
    def test_event_mirrors_counter(self):
        recorder = FlightRecorder()
        recorder.event("view.sealed", at=4.0, job_id="j")
        recorder.event("view.sealed", at=5.0, job_id="k")
        assert recorder.metrics.counters["events.view.sealed"] == 2
        assert len(recorder.events) == 2

    def test_clock_is_monotonic_and_stamps_events(self):
        recorder = FlightRecorder()
        recorder.advance_to(100.0)
        event = recorder.event("lock.denied")  # no explicit at
        assert event.at == 100.0
        recorder.advance_to(50.0)  # cannot go backwards
        assert recorder.now == 100.0

    def test_dump_and_load_capture(self, tmp_path):
        recorder = FlightRecorder()
        recorder.inc("jobs", 2)
        recorder.start_span("job.compile", trace_id="job-1",
                            at=0.0).finish(at=0.1)
        recorder.event("view.sealed", at=1.0, job_id="job-1")
        directory = str(tmp_path / "capture")
        recorder.dump(directory)
        capture = load_capture(directory)
        assert capture["metrics"]["counters"]["jobs"] == 2
        assert len(capture["spans"]) == 1
        assert len(capture["events"]) == 1
        assert isinstance(capture["spans"][0], Span)
        assert isinstance(capture["events"][0], Event)

    def test_render_summary_mentions_latency(self):
        recorder = FlightRecorder()
        recorder.observe("insights.fetch.latency", 0.015)
        recorder.event("view.sealed", at=0.0)
        summary = recorder.render_summary()
        assert "insights.fetch.latency" in summary
        assert "view.sealed=1" in summary


class TestNullRecorder:
    def test_everything_is_a_no_op(self):
        recorder = NullRecorder()
        recorder.inc("x")
        recorder.observe("y", 1.0)
        recorder.set_gauge("z", 2.0)
        span = recorder.start_span("job.compile", trace_id="j", at=0.0)
        span.annotate("k", "v").finish(at=1.0)
        assert recorder.event("view.sealed", at=1.0) is None
        assert recorder.metrics.counters == {}
        assert len(recorder.tracer) == 0
        assert len(recorder.events) == 0
        assert not recorder.enabled
        assert recorder.dump("/nonexistent/never/created") == {}
