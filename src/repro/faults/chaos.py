"""Chaos campaigns: run a workload under seeded fault plans, assert safety.

The paper's operating bar for computation reuse is blunt: the feature
must never fail a customer job or corrupt state -- every fault in the
reuse path has to degrade to plain recomputation.  This module turns
that bar into an executable check (``repro chaos`` on the CLI):

1. run the cooking workload once fault-free and record every job's
   canonical result rows (the *reference*);
2. for each campaign seed, build a deterministic :class:`FaultPlan`
   (:func:`campaign_plan`) spanning backend execution, materialization,
   view scans, scheduler workers, the insights RPC, the WAL, and GC,
   and run the same workload under it;
3. after each faulted run assert the three invariants:

   * **completion** -- every job comes back ``ok`` (retries, reuse-free
     fallback, and worker respawns absorbed every injected fault);
   * **correctness** -- each job's canonical rows are byte-identical to
     the fault-free reference (only build/reuse *decisions* may differ);
   * **durability** -- replaying the journal into a fresh store
     reproduces the catalog digest observed live before shutdown.

Campaign plans are pure functions of the seed, so a red run reproduces
with ``repro chaos --seed N``: every fault draw falls in submission order
on the caller's thread, so a seed prints the same report on every run.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.backends.differential import oracle_config, oracle_workload
from repro.common.clock import SECONDS_PER_DAY
from repro.faults import points
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.runtime import FaultRuntime
from repro.history import Outcome, day_jobs, recover, replay
from repro.lifecycle.manager import LifecycleConfig
from repro.workload.generator import CookingWorkload

#: Faults that land inside one engine-execute call.  A campaign picks at
#: most :data:`EXEC_PICKS` of these, each firing once, so the worst case
#: (every fire hitting the same job) stays within the engine's retry
#: budget (``repro.engine.engine.EXECUTE_RETRIES`` = 2 -> 3 attempts) and
#: the job still completes.
EXEC_MENU = (
    FaultSpec(points.BACKEND_EXECUTE, "transient", max_fires=1),
    FaultSpec(points.BACKEND_EXECUTE, "crash", max_fires=1),
    FaultSpec(points.BACKEND_MATERIALIZE, "transient", max_fires=1),
    FaultSpec(points.BACKEND_MATERIALIZE_MID, "crash", max_fires=1),
    FaultSpec(points.BACKEND_SCAN_VIEW, "storage", max_fires=1),
    FaultSpec(points.SCHEDULER_WORKER, "crash", max_fires=2),
)
EXEC_PICKS = 2
#: Jobs per scheduler wave.  A wave is a barrier -- no job reuses a view
#: a sibling of its wave built -- so a day submitted as one wave would
#: never reach the view-scan seam; 4 still has siblings proposing the
#: same views.
WAVE_JOBS = 4
#: Seed of the cooking workload every campaign pass replays.
WORKLOAD_SEED = 11

#: Faults outside the execute path: each layer absorbs its own (client
#: degradation, journal error counters, sweep aborts), so these can fire
#: more freely without threatening job completion.
AMBIENT_MENU = (
    FaultSpec(points.INSIGHTS_RPC, "drop", probability=0.25, max_fires=4),
    FaultSpec(points.INSIGHTS_RPC, "error", probability=0.25, max_fires=3),
    FaultSpec(points.INSIGHTS_RPC, "delay", probability=0.5,
              delay_seconds=0.02, max_fires=6),
    FaultSpec(points.JOURNAL_APPEND, "torn", probability=0.2, max_fires=2),
    FaultSpec(points.JOURNAL_APPEND, "storage", probability=0.2, max_fires=1),
    FaultSpec(points.JOURNAL_SNAPSHOT, "storage", max_fires=1),
    FaultSpec(points.GC_SWEEP, "storage", max_fires=1),
    FaultSpec(points.BACKEND_DROP_VIEW, "storage", max_fires=1),
)
AMBIENT_PICKS = 3

#: Faults specific to the sharded deployment (``--shards N``): RPC
#: failures on the router's fetch fan-out and real worker-process
#: SIGKILLs.  Only sampled when the campaign itself runs sharded; the
#: router's retry + restart path and the client's degradation ladder
#: must absorb all of them.
SHARD_MENU = (
    FaultSpec(points.SHARD_RPC, "drop", probability=0.25, max_fires=3),
    FaultSpec(points.SHARD_RPC, "error", probability=0.25, max_fires=2),
    FaultSpec(points.SHARD_RPC, "delay", probability=0.5,
              delay_seconds=0.01, max_fires=6),
    FaultSpec(points.SHARD_DEATH, "crash", probability=0.2, max_fires=1),
)
SHARD_PICKS = 2


def campaign_plan(seed: int, shards: int = 0) -> FaultPlan:
    """The deterministic fault plan for one campaign seed.

    Draws :data:`EXEC_PICKS` execute-path faults and
    :data:`AMBIENT_PICKS` ambient faults from the menus with a seeded
    RNG; the same seed always yields the same plan (and the plan itself
    carries ``seed`` for the runtime's probability draws).  A sharded
    campaign (``shards > 0``) additionally draws :data:`SHARD_PICKS`
    shard faults; the draws happen after the classic ones, so the
    ``shards=0`` plan for any seed is unchanged.
    """
    rng = random.Random(f"repro-chaos-{seed}")
    specs = list(rng.sample(EXEC_MENU, EXEC_PICKS))
    specs += list(rng.sample(AMBIENT_MENU, AMBIENT_PICKS))
    if shards > 0:
        specs += list(rng.sample(SHARD_MENU, SHARD_PICKS))
    return FaultPlan(specs=tuple(specs), seed=seed,
                     name=f"campaign-{seed}")


# ---------------------------------------------------------------------- #
# one workload pass


def chaos_history(workload: CookingWorkload, days: int,
                  restarts: int = 0) -> list:
    """Each day as :data:`WAVE_JOBS`-job waves at the day's start (the
    scheduler path, so worker faults are exercised), then selection
    feedback and a GC sweep at midday.

    With ``restarts = N > 0`` shard ``day % N`` is SIGKILLed and
    restarted at every day boundary -- a real mid-campaign process death
    on top of whatever the fault plan injects.
    """
    history = [("install", workload.install)]
    for day in range(days):
        now = day * SECONDS_PER_DAY
        if day > 0:
            history += [("cook", workload, day), ("evict", now)]
            if restarts:
                history.append(("restart", day % restarts))
        jobs = [(key, request) for _, key, request in day_jobs(workload, day)]
        history += [("wave", now, jobs[start:start + WAVE_JOBS])
                    for start in range(0, len(jobs), WAVE_JOBS)]
        history += [("publish",), ("sweep", now + SECONDS_PER_DAY / 2)]
    return history


def run_workload(backend: str, *, days: int, faults=None,
                 shards: int = 0) -> Outcome:
    """One full pass of the cooking workload: :func:`chaos_history`
    replayed on a journaled session.

    The journal lives in a temp dir that is recovered into a *fresh*
    store after close to produce ``recovered_digest``.  With ``shards >
    0`` the session runs the multi-process insights deployment, and a
    *faulted* sharded pass also restarts a shard at each day boundary.
    """
    history = chaos_history(oracle_workload("chaos", WORKLOAD_SEED), days,
                            shards if faults is not None else 0)
    config = oracle_config(backend, shards=shards, workers=2)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-journal-",
                                     ignore_cleanup_errors=True) as journal:
        with config.open_session(
                lifecycle=LifecycleConfig(journal_dir=journal,
                                          snapshot_every_ops=32),
                faults=faults) as session:
            outcome = replay(history, session)
        # Durability: a fresh store rebuilt from the journal must land on
        # the exact digest the live catalog had before shutdown.
        outcome.recovered_digest = recover(journal)
    return outcome


# ---------------------------------------------------------------------- #
# the campaign


@dataclass
class SeedReport:
    """Invariant verdicts for one campaign seed."""

    seed: int
    plan: str
    #: Invariant violations, human-readable; empty means the seed passed.
    violations: List[str] = field(default_factory=list)
    fired: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CampaignReport:
    """Aggregate result of ``run_campaign``."""

    backend: str
    days: int
    reference_jobs: int = 0
    seeds: List[SeedReport] = field(default_factory=list)
    #: Insights-service shard processes per run (0 = in-process).
    shards: int = 0

    @property
    def ok(self) -> bool:
        return all(seed.ok for seed in self.seeds)

    def summary(self) -> str:
        lines = [f"chaos campaign: backend={self.backend} days={self.days} "
                 f"shards={self.shards} jobs/run={self.reference_jobs} "
                 f"seeds={len(self.seeds)}"]
        for report in self.seeds:
            status = "ok" if report.ok else "FAIL"
            fires = report.fired.get("fired_total", 0)
            lines.append(f"  seed {report.seed}: {status}  "
                         f"plan=[{report.plan}]  fires={fires}")
            for violation in report.violations:
                lines.append(f"    ! {violation}")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"chaos campaign {verdict}")
        return "\n".join(lines)


def _check(reference: Outcome, faulted: Outcome,
           report: SeedReport) -> None:
    """Apply the three invariants to one faulted run."""
    for key, error in sorted(faulted.failures.items()):
        report.violations.append(f"job {key} failed: {error}")
    if len(faulted.results) != len(reference.results):
        report.violations.append(f"job count {len(faulted.results)} != "
                                 f"reference {len(reference.results)}")
    rows = faulted.rows
    mismatched = [key for key, expected in sorted(reference.rows.items())
                  if key in rows and rows[key] != expected]
    for key in mismatched[:5]:
        report.violations.append(f"job {key} rows differ from reference")
    if len(mismatched) > 5:
        report.violations.append(
            f"... and {len(mismatched) - 5} more row mismatches")
    if faulted.recovered_digest != faulted.live_digest:
        report.violations.append(
            f"catalog digest diverged after recovery: live "
            f"{faulted.live_digest[:12]} != recovered "
            f"{faulted.recovered_digest[:12]}")


def run_campaign(seeds: Sequence[int], backend: str = "memory",
                 days: int = 2, shards: int = 0) -> CampaignReport:
    """Run the chaos campaign for ``seeds`` against one backend.

    ``shards > 0`` runs every pass -- reference and faulted -- against
    the multi-process insights deployment, with the shard fault menu in
    play and a real SIGKILL+restart at each faulted day boundary.
    """
    campaign = CampaignReport(backend=backend, days=days, shards=shards)
    reference = run_workload(backend, days=days, shards=shards)
    campaign.reference_jobs = len(reference.results)
    if reference.failures:
        # The fault-free pass must itself be clean, or the reference
        # rows mean nothing.
        failed = ", ".join(sorted(reference.failures))
        raise AssertionError(
            f"fault-free reference run failed jobs: {failed}")
    if reference.views_reused == 0:
        # Nothing would ever reach the view-scan seam or the reuse
        # fallback; day 0 only observes, so this needs ``days >= 2``.
        raise AssertionError(
            f"fault-free reference run reused no view in {days} day(s)")
    for seed in seeds:
        plan = campaign_plan(seed, shards=shards)
        faulted = run_workload(backend, days=days,
                               faults=FaultRuntime(plan), shards=shards)
        report = SeedReport(
            seed=seed,
            plan="; ".join(f"{s.point}:{s.kind}" for s in plan.specs),
            fired=faulted.fired)
        _check(reference, faulted, report)
        campaign.seeds.append(report)
    return campaign


# ---------------------------------------------------------------------- #
# kill-mid-CTAS recovery probe (sqlite only)


def check_ctas_crash_recovery(sqlite_path: Optional[str] = None) -> str:
    """Crash a file-backed SQLite backend mid-CTAS; verify the restart.

    Returns a short human-readable verdict line; raises
    ``AssertionError`` if the restarted backend shows a partially
    visible view (the exact corruption the transactional manifest
    exists to prevent).
    """
    from repro.backends.base import create_backend
    from repro.catalog.schema import ColumnDef, TableSchema
    from repro.common.errors import StorageError, TransientBackendError
    from repro.plan.logical import Scan

    own_dir = None
    if sqlite_path is None:
        own_dir = tempfile.mkdtemp(prefix="repro-chaos-ctas-")
        sqlite_path = os.path.join(own_dir, "chaos.db")
    try:
        schema = TableSchema("events", (ColumnDef("region"),
                                        ColumnDef("clicks", "int")))
        rows = [{"region": f"r{i % 3}", "clicks": i} for i in range(12)]
        plan = Scan("events", ("region", "clicks"),
                    stream_guid="g-events")

        backend = create_backend("sqlite", sqlite_path=sqlite_path)
        backend.load_table(schema, "g-events", rows)
        backend.materialize_view(plan, "views/survivor")
        backend.faults = FaultRuntime(FaultPlan(
            specs=(FaultSpec(points.BACKEND_MATERIALIZE_MID, "crash",
                             max_fires=1),),
            seed=0, name="ctas-crash"))
        crashed = False
        try:
            backend.materialize_view(plan, "views/doomed")
        except TransientBackendError:
            crashed = True
        if not crashed:
            raise AssertionError("mid-CTAS crash did not fire")
        # Abandon the connection without cleanup, as a killed process
        # would, then restart on the same file.
        backend.close()
        restarted = create_backend("sqlite", sqlite_path=sqlite_path)
        try:
            if not restarted.has_view("views/survivor"):
                raise AssertionError(
                    "restart lost the committed view 'views/survivor'")
            if restarted.has_view("views/doomed"):
                raise AssertionError(
                    "restart exposed the partially built view "
                    "'views/doomed'")
            try:
                restarted.scan_view("views/doomed")
            except StorageError:
                pass
            else:
                raise AssertionError(
                    "scan of the crashed view unexpectedly succeeded")
            restored = restarted.scan_view("views/survivor")
            if len(restored) != len(rows):
                raise AssertionError(
                    f"committed view lost rows: {len(restored)} "
                    f"!= {len(rows)}")
        finally:
            restarted.close()
        return ("kill-mid-CTAS: committed view intact, "
                "no partially visible view after restart")
    finally:
        if own_dir is not None:
            shutil.rmtree(own_dir, ignore_errors=True)
