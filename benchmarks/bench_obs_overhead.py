"""Flight-recorder overhead: instrumented vs no-op recorder runs.

The recorder rides every hot path (compile, insights fetch, matching,
buildout, scheduling), so its cost has to stay negligible relative to the
simulation itself — otherwise nobody leaves it on in the A/B harness.
This benchmark times a short deployment window twice, once with a real
:class:`FlightRecorder` and once with the default no-op recorder, and
reports the overhead ratio alongside the volume of signals captured.
"""

import time

from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.obs import FlightRecorder
from repro.workload import generate_workload

DAYS = 3


def run_once(recorder=None):
    workload = generate_workload(seed=7, virtual_clusters=2,
                                 templates_per_vc=10)
    config = SimulationConfig(days=DAYS, cloudviews_enabled=True)
    started = time.perf_counter()
    report = WorkloadSimulation(workload, config, recorder=recorder).run()
    return time.perf_counter() - started, report


def run_pair():
    noop_seconds, noop_report = run_once(recorder=None)
    recorder = FlightRecorder()
    recorded_seconds, recorded_report = run_once(recorder=recorder)
    assert len(recorded_report.telemetry) == len(noop_report.telemetry)
    return {
        "noop_seconds": noop_seconds,
        "recorded_seconds": recorded_seconds,
        "spans": len(recorder.tracer),
        "events": len(recorder.events),
        "counters": len(recorder.metrics.counters),
    }


def test_obs_overhead(benchmark):
    result = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    ratio = result["recorded_seconds"] / max(result["noop_seconds"], 1e-9)
    print(f"\nFlight-recorder overhead ({DAYS}-day window)")
    print(f"{'no-op recorder':<24}{result['noop_seconds']:>10.3f}s")
    print(f"{'flight recorder':<24}{result['recorded_seconds']:>10.3f}s")
    print(f"{'overhead ratio':<24}{ratio:>10.2f}x")
    print(f"{'spans captured':<24}{result['spans']:>10,}")
    print(f"{'events captured':<24}{result['events']:>10,}")
    print(f"{'counter series':<24}{result['counters']:>10,}")

    # Generous bound: instrumentation must not dominate the simulation.
    assert ratio < 3.0
