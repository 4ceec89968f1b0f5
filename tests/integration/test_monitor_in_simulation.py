"""Integration test: the event stream is the query-monitoring tool.

Figure 5 surfaces each job's reuse story to its user; here that is the
flight recorder's ``job.compiled`` events (what ``repro obs events --kind
job.compiled`` lists), over a full simulation on either schedule.
"""

from repro.obs import FlightRecorder
from repro.obs import events as obs_events
from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.workload import generate_workload


def make_workload():
    return generate_workload(seed=7, virtual_clusters=2,
                             templates_per_vc=10, adhoc_per_day=0)


def check_monitor(recorder, jobs):
    """``jobs``: the report's per-job rows (telemetry or results)."""
    compiled = recorder.events.events(kind=obs_events.JOB_COMPILED)
    assert {e.job_id for e in compiled} == {j.job_id for j in jobs}
    # Every reuse the report saw is visible in the stream.  (A job that
    # lost a claimed view recompiles reuse-free under the same id; the
    # last compile of a job is the one that ran.)
    last = {e.job_id: e for e in compiled}
    assert sum(e.attrs["views_reused"] for e in last.values()) \
        == sum(j.views_reused for j in jobs)
    # The drill-down renders CloudView markers for a reusing job, and its
    # estimated cost is below the plan's cost without reuse.
    reuser = next(e for e in last.values() if e.attrs["views_reused"] > 0)
    assert "reused CloudView" in reuser.attrs["plan_text"]
    assert reuser.attrs["estimated_cost"] \
        < reuser.attrs["estimated_cost_without_reuse"]
    builder = next(e for e in last.values() if e.attrs["views_built"] > 0)
    assert "materializes CloudView" in builder.attrs["plan_text"]


def test_monitor_surfaces_reuse_in_simulation():
    recorder = FlightRecorder()
    config = SimulationConfig(days=4, cloudviews_enabled=True)
    report = WorkloadSimulation(make_workload(), config,
                                recorder=recorder).run()
    check_monitor(recorder, report.telemetry)


def test_event_driven_monitor_surfaces_reuse_in_wave_schedule():
    recorder = FlightRecorder()
    config = SimulationConfig(days=4, cloudviews_enabled=True, workers=2)
    report = WorkloadSimulation(make_workload(), config,
                                recorder=recorder).run()
    check_monitor(recorder, report.results)
