"""Worker- and shard-count invariance of the simulation's wave schedule.

The acceptance bar of the wave schedule: running the cooking workload
with ``workers=8`` must leave the system in a byte-identical state to
running it with 1 -- same view catalog digest, same reuse counts, same
per-job outcomes, same workload repository.  Only wall-clock time may
differ.

The sharded insights deployment extends the same bar across process
counts: the multi-process service behind the router must be
indistinguishable from the in-process one for any ``shards`` value,
because routing partitions by signature hash and the router
re-accumulates per-tag serving charges in the caller's tag order.

The fetch and lock accounting is part of the bar: a wave's fetches are
answered on the draining thread in submission order (``InsightsClient.
fetch_wave``) and its jobs compile there one after another, so each
job's charged latency, every client and serving counter and every lock
grant and denial are the same for any deployment.
"""

import dataclasses

import pytest

from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.workload.generator import CookingWorkload, generate_workload

BASELINE = (1, 0)
#: (workers, shards) deployments that must all converge on the baseline.
VARIANTS = ((8, 0), (2, 1), (2, 2), (4, 4))
#: The same bar for multi-job waves; the last entry is the baseline's
#: spec run a second time (a third element only keys the report).
BURST_VARIANTS = ((2, 0), (8, 0), (1, 2), (2, 2), (8, 2), (1, 0, "again"))
BURST_JOBS = 8


class BurstWorkload(CookingWorkload):
    """The cooking workload arriving in bursts: each run of
    :data:`BURST_JOBS` consecutive submissions shares the first one's
    arrival time, which the wave schedule turns into one 8-job wave."""

    def jobs_for_day(self, day):
        jobs = super().jobs_for_day(day)
        return [dataclasses.replace(
                    job,
                    submit_time=jobs[index - index % BURST_JOBS].submit_time)
                for index, job in enumerate(jobs)]


def run_simulation(workers, shards=0, days=3, seed=7, bursts=False):
    """The run's report, and its insights client's counters at the end:
    client hits, misses and retries, then the serving layer's fetches,
    hits, misses, annotations served, locks acquired and locks denied."""
    workload = generate_workload(seed=seed)
    if bursts:
        workload = BurstWorkload(**{
            f.name: getattr(workload, f.name)
            for f in dataclasses.fields(workload)})
    config = SimulationConfig(days=days, workers=workers, shards=shards)
    with config.open_session() as session:
        report = WorkloadSimulation(workload, config, session=session).run()
        client = session.insights
        usage = client.metrics.snapshot()
        counters = (client.cache_hits, client.cache_misses, client.retries,
                    *(usage[name] for name in (
                        "fetches", "cache_hits", "cache_misses",
                        "annotations_served", "locks_acquired",
                        "locks_denied")))
    return report, counters


@pytest.fixture(scope="module")
def reports():
    return {(workers, shards): run_simulation(workers, shards)[0]
            for workers, shards in (BASELINE,) + VARIANTS}


@pytest.fixture(scope="module")
def burst_runs():
    return {variant: run_simulation(*variant[:2], bursts=True)
            for variant in (BASELINE,) + BURST_VARIANTS}


@pytest.fixture(scope="module")
def burst_reports(burst_runs):
    return {variant: report for variant, (report, _) in burst_runs.items()}


def job_outcome(result):
    """The schedule-invariant slice of one job's result, the latency its
    fetch was charged included."""
    return (result.job_id, result.ok, result.degraded,
            result.virtual_cluster, result.views_built,
            result.views_reused, result.compile_latency,
            sorted(map(repr, result.rows)))


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

    @pytest.mark.parametrize("variant", BURST_VARIANTS, ids=str)
    def test_eight_job_waves_are_deployment_invariant(self, burst_reports,
                                                      variant):
        """Every outcome is a function of (workload, seed) even when eight
        jobs share a wave: no thread count, shard count or re-run moves
        the digest, one job's reuse or build count, or the repository."""
        def state(report):
            return (report.catalog_digest, report.views_created,
                    [job_outcome(r) for r in report.results],
                    [(j.job_id, j.template_id, j.submit_time,
                      j.subexpression_count)
                     for j in report.repository.jobs])
        base = burst_reports[BASELINE]
        assert state(burst_reports[variant]) == state(base)
        assert base.views_created > 0 and base.views_reused > 0
        assert base.failures == 0
        # The bursts really are multi-job waves.
        waves = {}
        for result in base.results:
            waves.setdefault(result.submitted_at, []).append(result)
        assert max(map(len, waves.values())) == BURST_JOBS

    @pytest.mark.parametrize("variant", BURST_VARIANTS, ids=str)
    def test_fetch_counters_are_deployment_invariant(self, burst_runs,
                                                     variant):
        """Client hits, misses and retries and the serving layer's hit,
        miss and lock counts of eight-job waves equal the baseline's: no
        thread decides which job pays a miss or is denied a lock."""
        base = burst_runs[BASELINE][1]
        assert burst_runs[variant][1] == base
        assert all(count > 0 for count in base[:-1])
        # Nothing is denied: a job compiles only once every earlier job
        # of its wave has executed, so it finds a sibling's build open
        # before it would ask for that view's lock.
        assert base[-1] == 0

    def test_sharded_runs_report_per_shard_stats(self, reports):
        for (_, shards), report in reports.items():
            if shards == 0:
                assert report.shard_stats is None
                continue
            assert len(report.shard_stats) == shards
            assert sum(report.shard_busy_seconds) > 0.0
            assert sum(s["fetch_requests"]
                       for s in report.shard_stats) > 0
