"""Section 5.5: SparkCruise on TPC-DS.

Paper: "On TPC-DS benchmarks, SparkCruise can reduce the running time by
approximately 30%."  We replay the SparkCruise flow -- the session
records the workload, the user schedules analysis, reuse kicks in --
over a miniature TPC-DS suite and compare total observed work.
"""

from repro.extensions import sparkcruise_tpcds
from repro.workload.tpcds import TPCDS_QUERIES


def run_flow():
    return tuple(sparkcruise_tpcds(reuse=reuse) for reuse in (False, True))


def test_sparkcruise_tpcds(benchmark):
    baseline, enabled = benchmark.pedantic(run_flow, rounds=1, iterations=1)

    reduction = (baseline.work - enabled.work) / baseline.work * 100
    print("\nSparkCruise on mini TPC-DS")
    print(f"queries:                 {len(TPCDS_QUERIES)}")
    print(f"baseline work:           {baseline.work:,.0f} units")
    print(f"with computation reuse:  {enabled.work:,.0f} units")
    print(f"running-time reduction:  {reduction:.1f}% (paper: ~30%)")
    print(f"views built={enabled.built} reused={enabled.reused}")

    # Shape: a substantial reduction in the paper's ~30% ballpark.
    assert 15.0 < reduction < 60.0
    assert enabled.reused >= 4  # the shared date-window cores

    # Correctness: every query's answer is unchanged under reuse.
    for name, result in enabled.results.items():
        assert sorted(map(repr, result.rows)) == \
            sorted(map(repr, baseline.results[name].rows)), name
