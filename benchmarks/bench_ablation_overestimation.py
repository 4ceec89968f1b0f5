"""Ablation: cardinality over-estimation and container inflation (§3.5).

"SCOPE query engine often ends up overestimating cardinalities and thus
over-partitioning the intermediate outputs, leading to many more
containers getting instantiated ... computation reuse automatically
circumvents this issue" because a ViewScan carries its *actual* row count.

We sweep the over-estimation factor on the baseline (no reuse): containers
inflate with the bias.  Then we show reuse claws the inflation back.
"""

from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.workload import generate_workload

DAYS = 3
FACTORS = (1.0, 2.0, 4.0)


def run_sweep():
    containers = {}
    for factor in FACTORS:
        for label, enabled in (("baseline", False), ("cloudviews", True)):
            workload = generate_workload(seed=7, virtual_clusters=2,
                                         templates_per_vc=10)
            # Generous partition headroom so the bias is not clipped by
            # the per-stage cap (the paper's clusters have thousands of
            # containers to over-allocate from).
            config = SimulationConfig(days=DAYS, cloudviews_enabled=enabled,
                                      rows_per_partition=40.0,
                                      max_partitions=512,
                                      total_containers=200, vc_quota=40)
            simulation = WorkloadSimulation(workload, config)
            # The stage builder reads the engine's overestimate factor.
            simulation.session.engine.config.overestimate = factor
            report = simulation.run()
            containers[(label, factor)] = report.total("containers")
    return containers


def test_ablation_overestimation(benchmark):
    containers = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    print("\nAblation: cardinality over-estimation factor vs containers")
    print(f"{'factor':>7} {'baseline':>10} {'cloudviews':>11} {'saved':>7}")
    for factor in FACTORS:
        base = containers[("baseline", factor)]
        with_cv = containers[("cloudviews", factor)]
        saved = (base - with_cv) / base * 100 if base else 0.0
        print(f"{factor:>7.1f} {base:>10,.0f} {with_cv:>11,.0f} "
              f"{saved:>6.1f}%")

    # Over-estimation inflates baseline container usage monotonically.
    baseline_series = [containers[("baseline", f)] for f in FACTORS]
    assert baseline_series[0] < baseline_series[-1]
    # Reuse claws back a solid share of containers at every bias level
    # (view scans carry accurate row counts regardless of the bias).
    for factor in FACTORS:
        base = containers[("baseline", factor)]
        with_cv = containers[("cloudviews", factor)]
        assert with_cv < base
        assert (base - with_cv) / base > 0.05
