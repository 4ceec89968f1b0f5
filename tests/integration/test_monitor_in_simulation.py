"""Integration test: the query monitor attached to a full simulation."""

from repro.engine import QueryMonitor
from repro.obs import FlightRecorder
from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.workload import generate_workload


def make_workload():
    return generate_workload(seed=7, virtual_clusters=2,
                             templates_per_vc=10, adhoc_per_day=0)


def check_monitor(monitor, jobs):
    """``jobs``: the report's per-job rows (telemetry or results)."""
    assert len(monitor.jobs()) == len(jobs)
    touched = monitor.touched_jobs()
    assert touched  # some jobs built or reused views
    # Every reuse the telemetry saw is visible in the monitor.
    telemetry_reuses = sum(t.views_reused for t in jobs)
    monitor_reuses = sum(j.views_reused for j in monitor.jobs())
    assert monitor_reuses == telemetry_reuses
    # The drill-down renders CloudView markers for a reusing job.
    reuser = next(j for j in touched if j.views_reused > 0)
    drilldown = monitor.render_job(reuser.job_id)
    assert "reused CloudView" in drilldown
    summary = monitor.render_summary()
    assert reuser.job_id in summary


def test_monitor_surfaces_reuse_in_simulation():
    monitor = QueryMonitor()
    config = SimulationConfig(days=4, cloudviews_enabled=True)
    report = WorkloadSimulation(make_workload(), config,
                                monitor=monitor).run()
    check_monitor(monitor, report.telemetry)


def test_event_driven_monitor_surfaces_reuse_in_wave_schedule():
    recorder = FlightRecorder()
    monitor = QueryMonitor(recorder.events)
    config = SimulationConfig(days=4, cloudviews_enabled=True, workers=2)
    report = WorkloadSimulation(make_workload(), config,
                                recorder=recorder).run()
    check_monitor(monitor, report.results)
