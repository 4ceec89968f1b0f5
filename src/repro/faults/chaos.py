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
with ``repro chaos --seed N``.  Fault *placement* across concurrent
workers is scheduling-dependent; the invariants are written to hold
under any interleaving, which is exactly the property being tested.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.clock import SECONDS_PER_DAY
from repro.faults import points
from repro.faults.plan import FaultPlan, FaultSpec

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
#: never reach the view-scan seam; 4 still keeps the session's two
#: workers contending for view locks.
WAVE_JOBS = 4

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


@dataclass
class RunOutcome:
    """Everything one workload pass produced that the invariants need."""

    jobs: int = 0
    #: ``key -> error string`` for jobs that did not complete.
    failures: Dict[str, str] = field(default_factory=dict)
    #: ``key -> canonical rows`` for jobs that did complete.
    rows: Dict[str, List[str]] = field(default_factory=dict)
    views_created: int = 0
    views_reused: int = 0
    live_digest: str = ""
    recovered_digest: str = ""
    #: ``FaultRuntime.stats()`` of the run (empty when fault-free).
    fired: Dict[str, object] = field(default_factory=dict)


def _run_workload(backend: str, *, days: int, faults=None,
                  workload_seed: int = 11, shards: int = 0) -> RunOutcome:
    """One full pass of the cooking workload through a :class:`Session`.

    Jobs go through :meth:`Session.run_batch` in waves of
    :data:`WAVE_JOBS` (the scheduler path, so worker faults are
    exercised); each day ends with selection feedback and a GC sweep.
    The journal lives in a temp dir that is recovered into a *fresh*
    store after close to produce ``recovered_digest``.

    With ``shards > 0`` the session runs the multi-process insights
    deployment; a *faulted* sharded pass additionally SIGKILLs and
    restarts one live shard at every day boundary (shard ``day %
    shards``, when the scheduler is drained and no view locks are held),
    on top of whatever the fault plan injects.
    """
    # Imported here: repro.faults must stay importable without dragging
    # in the whole engine stack (api -> config -> faults.plan).
    from repro.api import Session
    from repro.backends.differential import canonical_rows
    from repro.config import SessionConfig
    from repro.core.controls import MultiLevelControls
    from repro.lifecycle.lineage import LineageRegistry
    from repro.lifecycle.manager import LifecycleConfig
    from repro.scheduler.scheduler import JobRequest, SchedulerConfig
    from repro.selection.policies import SelectionPolicy
    from repro.shard.journal import merged_offline_recovery
    from repro.storage.views import ViewStore
    from repro.workload.generator import generate_workload

    base = generate_workload(
        name="chaos", seed=workload_seed, virtual_clusters=2,
        templates_per_vc=4, fact_rows_per_day=240, adhoc_per_day=2)
    controls = MultiLevelControls()
    for vc in base.virtual_clusters:
        controls.enable_vc(vc)
    outcome = RunOutcome()
    journal_dir = tempfile.mkdtemp(prefix="repro-chaos-journal-")
    try:
        session = Session(
            config=SessionConfig(shards=shards),
            backend=backend,
            controls=controls,
            selection_algorithm="bigsubs",
            policy=SelectionPolicy(storage_budget_bytes=50_000_000,
                                   min_reuses_per_epoch=0.0),
            scheduler_config=SchedulerConfig(workers=2),
            lifecycle=LifecycleConfig(journal_dir=journal_dir,
                                      snapshot_every_ops=32),
            faults=faults,
        )
        base.install(session.engine, at=0.0)
        for day in range(days):
            now = day * SECONDS_PER_DAY
            if day > 0:
                base.cook(session.engine, day)
                session.evict_expired(now=now)
                if shards > 0 and faults is not None:
                    # Real mid-campaign process death: SIGKILL one shard
                    # at the day boundary (scheduler drained, no view
                    # locks held) and bring it back before the next
                    # wave.  The restarted worker reloads its persisted
                    # annotations, so serving state survives the kill.
                    victim = day % shards
                    session.supervisor.kill(victim)
                    session.supervisor.restart(victim)
            jobs = base.jobs_for_day(day)
            requests = [
                JobRequest(sql=job.template.sql, params=dict(job.params),
                           virtual_cluster=job.virtual_cluster,
                           template_id=job.template.template_id,
                           pipeline_id=job.template.pipeline_id)
                for job in jobs
            ]
            results = []
            for start in range(0, len(requests), WAVE_JOBS):
                results += session.run_batch(
                    requests[start:start + WAVE_JOBS], now=now)
            for index, (job, result) in enumerate(zip(jobs, results)):
                key = f"d{day}:{index}:{job.template.template_id}"
                outcome.jobs += 1
                if result.ok:
                    outcome.rows[key] = canonical_rows(result.rows)
                else:
                    outcome.failures[key] = str(result.error)
            session.analyze_and_publish()
            session.gc_sweep(now=now + SECONDS_PER_DAY / 2)
        outcome.views_created = session.views_created
        outcome.views_reused = session.views_reused
        outcome.live_digest = session.catalog_digest()
        if session.faults.enabled:
            outcome.fired = session.faults.stats()
        session.close()
        # Durability: a fresh store rebuilt from the journal must land on
        # the exact digest the live catalog had before shutdown.  The
        # merged recovery reads per-shard WALs when present and falls
        # back to the classic single-journal layout otherwise, so this
        # one call covers both deployments.
        store = ViewStore()
        merged_offline_recovery(journal_dir, store, LineageRegistry())
        outcome.recovered_digest = store.catalog_digest()
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)
    return outcome


# ---------------------------------------------------------------------- #
# the campaign


@dataclass
class SeedReport:
    """Invariant verdicts for one campaign seed."""

    seed: int
    plan: str
    jobs: int = 0
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


def _check(reference: RunOutcome, faulted: RunOutcome,
           report: SeedReport) -> None:
    """Apply the three invariants to one faulted run."""
    report.jobs = faulted.jobs
    for key, error in sorted(faulted.failures.items()):
        report.violations.append(f"job {key} failed: {error}")
    if faulted.jobs != reference.jobs:
        report.violations.append(
            f"job count {faulted.jobs} != reference {reference.jobs}")
    mismatched = [key for key, rows in sorted(reference.rows.items())
                  if key in faulted.rows and faulted.rows[key] != rows]
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
    from repro.faults.runtime import FaultRuntime

    campaign = CampaignReport(backend=backend, days=days, shards=shards)
    reference = _run_workload(backend, days=days, faults=None,
                              shards=shards)
    campaign.reference_jobs = reference.jobs
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
        faulted = _run_workload(backend, days=days,
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
    from repro.faults.runtime import FaultRuntime
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
