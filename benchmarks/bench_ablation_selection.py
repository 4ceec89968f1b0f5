"""Ablation: view-selection algorithms (greedy vs per-VC vs BigSubs).

DESIGN.md calls out "scalable view selection" as a key design decision:
CloudViews runs a BigSubs-style label propagation rather than plain greedy
packing because greedy ignores *nesting* -- it happily selects a candidate
and its own ancestor, wasting builds on views whose consumers read the
bigger view instead.
"""

from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.selection import SelectionPolicy
from repro.workload import generate_workload

DAYS = 4
ALGORITHMS = ("greedy", "per_vc", "bigsubs")


def run_all():
    results = {}
    for algorithm in ALGORITHMS:
        workload = generate_workload(seed=7, virtual_clusters=3,
                                     templates_per_vc=12)
        config = SimulationConfig(
            days=DAYS, cloudviews_enabled=True,
            selection_algorithm=algorithm,
            policy=SelectionPolicy(storage_budget_bytes=50_000_000,
                                   materialization_lag_seconds=150.0,
                                   min_reuses_per_epoch=2.0))
        results[algorithm] = WorkloadSimulation(workload, config).run()
    baseline_config = SimulationConfig(days=DAYS, cloudviews_enabled=False)
    results["baseline"] = WorkloadSimulation(
        generate_workload(seed=7, virtual_clusters=3, templates_per_vc=12),
        baseline_config).run()
    return results


def test_ablation_selection_algorithms(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    baseline_processing = results["baseline"].total("processing_time")

    print("\nAblation: selection algorithm")
    print(f"{'algorithm':<10} {'built':>6} {'reused':>7} {'ratio':>6} "
          f"{'processing gain':>16}")
    stats = {}
    for algorithm in ALGORITHMS:
        report = results[algorithm]
        ratio = report.views_reused / max(1, report.views_created)
        gain = (baseline_processing - report.total("processing_time")) \
            / baseline_processing * 100
        stats[algorithm] = (ratio, gain, report.views_created)
        print(f"{algorithm:<10} {report.views_created:>6} "
              f"{report.views_reused:>7} {ratio:>6.2f} {gain:>15.1f}%")

    # Every algorithm produces reuse and a real processing gain.
    for algorithm, (ratio, gain, created) in stats.items():
        assert created > 0, algorithm
        assert gain > 5.0, algorithm
    # BigSubs' interaction-awareness yields at least as good a
    # reuse-per-build ratio as plain greedy.
    assert stats["bigsubs"][0] >= stats["greedy"][0] - 0.25
