"""A scaled-down replay of the paper's production deployment (Table 1).

Simulates an enterprise data-cooking workload over a multi-day window on
a cluster of containers with virtual-cluster quotas, job queues, and
opportunistic (bonus) allocation -- once with CloudViews enabled and once
without -- then prints the Table-1 impact summary.

Run:  python examples/production_simulation.py
"""

from repro import generate_workload
from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.telemetry import compare_telemetry
from repro.workload import pipeline_summary

DAYS = 6


def run(enabled: bool):
    workload = generate_workload(seed=7, virtual_clusters=3,
                                 templates_per_vc=16)
    config = SimulationConfig(days=DAYS, cloudviews_enabled=enabled)
    label = "CloudViews" if enabled else "baseline"
    print(f"simulating {DAYS} days ({label}) ...")
    return WorkloadSimulation(workload, config).run()


def main() -> None:
    enabled = run(True)
    baseline = run(False)
    report = compare_telemetry(baseline.telemetry, enabled.telemetry)
    summary = pipeline_summary(enabled.repository)

    print("\nProduction Impact Summary (cf. paper Table 1)")
    print("-" * 56)
    print(f"{'Jobs':<40}{summary['jobs']:>14,}")
    pipelines = len({j.pipeline_id for j in enabled.repository.jobs
                     if j.pipeline_id})
    print(f"{'Pipelines':<40}{pipelines:>14,}")
    print(f"{'Virtual Clusters':<40}{summary['virtual_clusters']:>14,}")
    print(f"{'Views Created':<40}{enabled.views_created:>14,}")
    print(f"{'Views Used':<40}{enabled.views_reused:>14,}")
    ratio = enabled.views_reused / max(1, enabled.views_created)
    print(f"{'Reuses per view':<40}{ratio:>14.2f}")
    print("-" * 56)
    for label, value in report.rows():
        print(f"{label:<40}{value:>13.2f}%")
    print(f"{'Median per-job latency improvement':<40}"
          f"{report.median_latency_improvement * 100:>13.2f}%")

    print("\nWorkload shape (cf. paper Figure 3)")
    print(f"repeated subexpressions: "
          f"{enabled.repository.repeated_fraction():.1%} (paper: >75%)")
    print(f"average repeat frequency: "
          f"{enabled.repository.average_repeat_frequency():.2f} (paper: ~5)")

    print("\nDaily cumulative processing time (cf. paper Figure 6c)")
    base_daily = dict(baseline.cumulative_daily("processing_time"))
    cv_daily = dict(enabled.cumulative_daily("processing_time"))
    print(f"{'day':>4} {'baseline':>14} {'cloudviews':>14}")
    for day in sorted(base_daily):
        print(f"{day:>4} {base_daily[day]:>14,.0f} "
              f"{cv_daily.get(day, 0):>14,.0f}")


if __name__ == "__main__":
    main()
