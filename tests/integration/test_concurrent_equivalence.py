"""Worker- and shard-count invariance of the simulation's wave schedule.

The acceptance bar of the concurrent frontend: running the cooking
workload with 8 scheduler threads must leave the system in a
byte-identical state to running it with 1 -- same view catalog digest,
same reuse counts, same per-job outcomes, same workload repository.
Only wall-clock time may differ.

The sharded insights deployment extends the same bar across process
counts: the multi-process service behind the router must be
indistinguishable from the in-process one for any ``shards`` value,
because routing partitions by signature hash and the router
re-accumulates per-tag serving charges in the caller's tag order.
"""

import pytest

from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.workload.generator import generate_workload

BASELINE = (1, 0)
#: (workers, shards) deployments that must all converge on the baseline.
VARIANTS = ((8, 0), (2, 1), (2, 2), (4, 4))


def run_simulation(workers, shards=0, days=3, seed=7):
    workload = generate_workload(seed=seed)
    simulation = WorkloadSimulation(
        workload,
        SimulationConfig(days=days, workers=workers, shards=shards))
    return simulation.run()


@pytest.fixture(scope="module")
def reports():
    return {(workers, shards): run_simulation(workers, shards)
            for workers, shards in (BASELINE,) + VARIANTS}


def job_outcome(result):
    """The schedule-invariant slice of one job's result.

    ``compile_latency`` is excluded: which concurrent job pays a serving
    cache miss depends on arrival order inside a wave, and the invariance
    guarantee covers reuse decisions and results, not latency accounting.
    """
    return (result.job_id, result.ok, result.degraded,
            result.virtual_cluster, result.views_built,
            result.views_reused, sorted(map(repr, result.rows)))


class TestDeploymentInvariance:
    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: f"w{v[0]}s{v[1]}")
    def test_catalog_digest_identical(self, reports, variant):
        assert (reports[variant].catalog_digest
                == reports[BASELINE].catalog_digest)

    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: f"w{v[0]}s{v[1]}")
    def test_reuse_counts_identical(self, reports, variant):
        assert (reports[variant].views_created
                == reports[BASELINE].views_created)
        assert (reports[variant].views_reused
                == reports[BASELINE].views_reused)
        assert reports[BASELINE].views_created > 0
        assert reports[BASELINE].views_reused > 0

    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: f"w{v[0]}s{v[1]}")
    def test_every_job_outcome_identical(self, reports, variant):
        base = [job_outcome(r) for r in reports[BASELINE].results]
        other = [job_outcome(r) for r in reports[variant].results]
        assert base == other
        assert len(base) > 50

    def test_no_failures_in_any_run(self, reports):
        for report in reports.values():
            assert report.failures == 0

    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: f"w{v[0]}s{v[1]}")
    def test_workload_repository_identical(self, reports, variant):
        def rows(report):
            return [(j.job_id, j.template_id, j.submit_time,
                     j.subexpression_count)
                    for j in report.repository.jobs]
        assert rows(reports[BASELINE]) == rows(reports[variant])

    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: f"w{v[0]}s{v[1]}")
    def test_selection_epochs_identical(self, reports, variant):
        def epochs(report):
            return [sorted(c.recurring for c in s.selected)
                    for s in report.selections]
        assert epochs(reports[BASELINE]) == epochs(reports[variant])

    def test_sharded_runs_report_per_shard_stats(self, reports):
        for (_, shards), report in reports.items():
            if shards == 0:
                assert report.shard_stats is None
                continue
            assert len(report.shard_stats) == shards
            assert sum(report.shard_busy_seconds) > 0.0
            assert sum(s["fetch_requests"]
                       for s in report.shard_stats) > 0
