"""Fault-seam overhead: injection disabled must cost nothing measurable.

The fault seams ride the hottest paths in the system — every backend
execute, every view scan and materialization, every WAL append, every
insights round trip.  Production (and the fault-free CI lanes) run with
the inert :class:`NullFaultRuntime`, whose ``fire``/``check`` are a
single attribute lookup plus an immediate return.  This benchmark times
the cooking workload three ways:

* ``baseline`` — no fault plumbing touched (the inert default);
* ``null`` — an explicitly installed ``NullFaultRuntime`` (same code
  path, proves installation itself is free);
* ``armed_idle`` — a real :class:`FaultRuntime` whose one spec sits so
  far in the future (``after=10**9`` arrivals) that it never fires, so
  every arrival on the busiest seam pays the full bookkeeping (mutex,
  arrival counter, spec liveness check) without a single injection.

The disabled paths must be statistically indistinguishable from the
baseline; even the armed-idle runtime must stay within a small constant
factor.
"""

import time

from repro.faults import FaultPlan, FaultRuntime, FaultSpec, NULL_FAULTS
from repro.faults.chaos import run_workload

DAYS = 2


def run_once(faults):
    started = time.perf_counter()
    outcome = run_workload("memory", days=DAYS, faults=faults)
    assert not outcome.failures
    return time.perf_counter() - started, outcome


def run_trio():
    baseline_seconds, baseline = run_once(None)
    null_seconds, null_outcome = run_once(NULL_FAULTS)
    armed = FaultRuntime(FaultPlan(
        specs=(FaultSpec("backend.execute", "transient", after=10**9),),
        seed=0, name="armed-idle"))
    armed_seconds, armed_outcome = run_once(armed)
    # Same work in all three configurations, or the timing is meaningless.
    assert null_outcome.rows == baseline.rows
    assert armed_outcome.rows == baseline.rows
    assert armed.fired_total == 0
    return {
        "baseline_seconds": baseline_seconds,
        "null_seconds": null_seconds,
        "armed_seconds": armed_seconds,
        "jobs": len(baseline.results),
        "armed_arrivals": sum(armed.stats()["arrivals"].values()),
    }


def test_fault_overhead(benchmark):
    result = benchmark.pedantic(run_trio, rounds=1, iterations=1)

    null_ratio = (result["null_seconds"]
                  / max(result["baseline_seconds"], 1e-9))
    armed_ratio = (result["armed_seconds"]
                   / max(result["baseline_seconds"], 1e-9))
    print(f"\nFault-seam overhead ({DAYS}-day cooking window, "
          f"{result['jobs']} jobs)")
    print(f"{'no fault plumbing':<24}{result['baseline_seconds']:>10.3f}s")
    print(f"{'null runtime':<24}{result['null_seconds']:>10.3f}s"
          f"  ({null_ratio:.2f}x)")
    print(f"{'armed, never fires':<24}{result['armed_seconds']:>10.3f}s"
          f"  ({armed_ratio:.2f}x)")
    print(f"{'armed arrivals':<24}{result['armed_arrivals']:>10,}")

    # Disabled injection must be free; a short noisy window still gets a
    # generous ceiling rather than a flaky equality.
    assert null_ratio < 1.5
    # Arrival bookkeeping (one mutex hop per seam) must stay small.
    assert armed_ratio < 2.0
