"""Ablation: schedule-aware view selection (Section 4).

"Jobs that get scheduled (and thus compiled) at the same time cannot
benefit from such reuse ... we modified our view selection algorithms to
only consider subexpressions that could finish materializing before the
start of other consuming jobs."  Without the lag filter, selection wastes
materializations on burst-only candidates that nobody can ever reuse.
"""

from collections import Counter

from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.selection import SelectionPolicy
from repro.workload import generate_workload

DAYS = 4


def run_pair():
    results = {}
    for label, lag in (("naive", 0.0), ("schedule-aware", 150.0)):
        workload = generate_workload(seed=7, virtual_clusters=3,
                                     templates_per_vc=12,
                                     burst_fraction=0.5)
        config = SimulationConfig(
            days=DAYS, cloudviews_enabled=True,
            policy=SelectionPolicy(storage_budget_bytes=50_000_000,
                                   materialization_lag_seconds=lag,
                                   min_reuses_per_epoch=1.0))
        simulation = WorkloadSimulation(workload, config)
        report = simulation.run()
        unused = sum(1 for v in simulation.session.engine.view_store.views()
                     if v.sealed and v.reuse_count == 0)
        results[label] = (report, unused)
    return results


def test_ablation_schedule_awareness(benchmark):
    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    print("\nAblation: schedule-aware selection (burst-heavy workload)")
    print(f"{'policy':<16} {'built':>6} {'reused':>7} {'ratio':>6} "
          f"{'unused views':>13} {'schedule-rejected':>18}")
    for label, (report, unused) in results.items():
        ratio = report.views_reused / max(1, report.views_created)
        rejected = sum(s.rejected_by_schedule for s in report.selections)
        print(f"{label:<16} {report.views_created:>6} "
              f"{report.views_reused:>7} {ratio:>6.2f} {unused:>13} "
              f"{rejected:>18}")

    naive_report, naive_unused = results["naive"]
    aware_report, aware_unused = results["schedule-aware"]
    naive_ratio = naive_report.views_reused / max(1, naive_report.views_created)
    aware_ratio = aware_report.views_reused / max(1, aware_report.views_created)
    # The lag filter actually rejected candidates...
    assert sum(s.rejected_by_schedule for s in aware_report.selections) > 0
    # ...and never makes the reuse-per-build ratio worse.
    assert aware_ratio >= naive_ratio
    # Wasted materializations (never-reused views) do not increase.
    assert aware_unused <= naive_unused
