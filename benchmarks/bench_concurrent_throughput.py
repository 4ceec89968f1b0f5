"""Concurrent-frontend throughput smoke: jobs/sec across worker counts.

First datapoint of the scaling trajectory ("heavy traffic" north star):
the same cooking-workload window pushed through the wave-parallel
scheduler at increasing worker counts.  Emits a JSON line per worker
count so CI can archive the series, and asserts the worker-count
invariance bar (identical catalog digest and reuse counts at every N).
"""

from __future__ import annotations

import json

from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.workload.generator import generate_workload

DAYS = 2
SEED = 7
WORKER_COUNTS = (1, 2, 8)


def run_with_workers(workers: int):
    workload = generate_workload(seed=SEED)
    simulation = WorkloadSimulation(
        workload, SimulationConfig(days=DAYS, workers=workers))
    return simulation.run()


def test_concurrent_throughput_smoke(benchmark):
    reports = {}
    for workers in WORKER_COUNTS[:-1]:
        reports[workers] = run_with_workers(workers)
    # The highest worker count goes through the benchmark timer.
    reports[WORKER_COUNTS[-1]] = benchmark.pedantic(
        lambda: run_with_workers(WORKER_COUNTS[-1]),
        rounds=1, iterations=1)

    print("\nconcurrent throughput (cooking workload, "
          f"{DAYS} days, seed {SEED})")
    for workers in WORKER_COUNTS:
        print(json.dumps(reports[workers].summary()))

    digests = {r.catalog_digest for r in reports.values()}
    reuse = {(r.views_created, r.views_reused) for r in reports.values()}
    assert len(digests) == 1, "catalog must not depend on worker count"
    assert len(reuse) == 1, "reuse counts must not depend on worker count"
    assert all(r.failures == 0 for r in reports.values())
    assert all(r.jobs_per_second > 0 for r in reports.values())
