"""The workload simulation: one driver, two schedules, over one Session.

This is the experiment harness behind the paper's production numbers
(Table 1, Figures 6-7) and behind the shard-count invariance runs.  One
:class:`WorkloadSimulation` drives a
:class:`~repro.workload.generator.CookingWorkload` over N simulated days
through a :class:`~repro.api.Session`, which owns the deployment wiring
and the feedback loop.  The driver owns the day boundary, written once
as history steps (:mod:`repro.history`) that both schedules apply:

* the cooking pipelines regenerate the shared fact streams (bulk updates
  -> new GUIDs -> old views go stale) and expired views are evicted;
* the ``on_day_boundary`` hook runs, if there is one;
* the session runs one selection epoch over the trailing window (day 0,
  before the first boundary, is the warm-up that is only observed).

What differs between runs is only the *schedule* of a day's jobs:

* **cluster** (``workers is None``): every job compiles against the
  engine *at its simulated arrival time* (so view visibility is
  temporally honest), row-executes to obtain observed statistics, and is
  then scheduled on the cluster simulator; spool-writer stages early-seal
  their views at the simulated moment they complete.  Those mid-day
  seals are events of the simulator's own loop, which a flat history
  cannot express; its midnights apply the boundary steps.  Produces
  per-job :class:`~repro.cluster.simulator.JobTelemetry`.  Run it once
  with CloudViews enabled and once disabled to reproduce the paper's
  baseline-vs-CloudViews comparisons.
* **waves** (``workers=N``): a history replayed by
  :func:`~repro.history.replay`, in which all jobs sharing a simulated
  arrival time form one wave on the session's scheduler.  The wave runs
  on the replaying thread, in submission order, and is a barrier:
  nothing is sealed, recorded or ingested until every job of it has
  executed -- so no job reuses a view a sibling of its wave built -- and
  its jobs compile one after another, so a view is built by its earliest
  proposer.  The simulated outcome (view catalog, per-job build and
  reuse counts, workload repository) is therefore independent of the
  shard count; ``N`` selects this schedule and sizes nothing.  Produces
  per-job :class:`~repro.scheduler.results.JobResult`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import Session
from repro.cluster.simulator import (
    ClusterSimulator,
    JobTelemetry,
    SimulatedJob,
)
from repro.cluster.stages import build_stage_graph
from repro.common.clock import SECONDS_PER_DAY
from repro.config import SessionConfig
from repro.core.controls import DeploymentMode, MultiLevelControls
from repro.engine.engine import EngineConfig
from repro.history import apply, day_jobs, replay
from repro.optimizer.stats import CardinalityEstimator
from repro.scheduler.results import JobResult
from repro.scheduler.scheduler import SchedulerConfig
from repro.selection.policies import SelectionPolicy, SelectionResult
from repro.shard.supervisor import ShardConfig
from repro.workload.generator import CookingWorkload, JobInstance
from repro.workload.repository import WorkloadRepository


#: Trailing days of the repository one selection epoch analyses.  The rest
#: of the feedback-loop schedule is structural: an epoch at every day
#: boundary, the first after day 0 (a one-day warm-up).
SELECTION_WINDOW_DAYS = 3


@dataclass(kw_only=True)
class SimulationConfig:
    """Knobs for one simulated deployment window."""

    days: int = 7
    cloudviews_enabled: bool = True
    #: Any number selects the wave schedule (``repro simulate
    #: --workers``) and sizes nothing; ``None`` runs the cluster
    #: co-simulation instead.
    workers: Optional[int] = None
    #: Insights-service shard processes (``repro simulate --shards``);
    #: 0 keeps the in-process service.  Reuse decisions and the catalog
    #: digest are shard-count-invariant by construction.
    shards: int = 0
    #: Execution backend name (``repro simulate --backend``).
    backend: str = "memory"
    #: View TTL in simulated seconds (``repro simulate --view-ttl``);
    #: ``None`` keeps the engine default (one week, §3.1).
    view_ttl_seconds: Optional[float] = None
    selection_algorithm: str = "bigsubs"
    policy: SelectionPolicy = field(default_factory=lambda: SelectionPolicy(
        storage_budget_bytes=50_000_000,
        materialization_lag_seconds=150.0,
        min_reuses_per_epoch=2.0,
    ))
    # The cluster model; read by the cluster schedule only.
    total_containers: int = 60
    vc_quota: int = 10
    rows_per_partition: float = 15.0
    max_partitions: int = 96

    def open_session(self, **session_kwargs) -> Session:
        """The deployment this config describes, wired through ``Session``.

        ``session_kwargs`` go to :class:`~repro.api.Session` on top
        (``controls=``, ``client_config=``, ``faults=``, ``recorder=``).
        Without ``controls`` every virtual cluster is onboarded, so
        :attr:`cloudviews_enabled` alone decides reuse.
        """
        engine = EngineConfig()
        if self.view_ttl_seconds is not None:
            engine.view_ttl_seconds = self.view_ttl_seconds
        session_kwargs.setdefault(
            "controls", MultiLevelControls(mode=DeploymentMode.OPT_OUT))
        return Session(
            config=SessionConfig(shard=ShardConfig(shards=self.shards)),
            backend=self.backend, engine_config=engine,
            scheduler_config=(None if self.workers is None
                              else SchedulerConfig(workers=self.workers)),
            selection_algorithm=self.selection_algorithm,
            policy=self.policy, **session_kwargs)


@dataclass(kw_only=True)
class SimulationReport:
    """What either schedule leaves behind."""

    config: SimulationConfig
    repository: WorkloadRepository
    views_created: int
    views_reused: int
    catalog_digest: str
    wall_seconds: float
    selections: List[SelectionResult] = field(default_factory=list)
    #: Per-shard worker stats (``None`` for the in-process service).
    shard_stats: Optional[List[Dict[str, object]]] = None

    @property
    def shard_busy_seconds(self) -> List[float]:
        """Simulated serving busy-time accumulated by each shard."""
        return [float(s["busy_seconds"]) for s in self.shard_stats or ()]


@dataclass(kw_only=True)
class ClusterReport(SimulationReport):
    """The cluster schedule's report: telemetry the benchmarks read."""

    telemetry: List[JobTelemetry]

    # ---- cumulative totals (Table 1 numerators) ----

    def total(self, metric: str) -> float:
        return sum(getattr(t, metric) for t in self.telemetry)

    def daily(self, metric: str) -> Dict[int, float]:
        """Metric summed per submission day (Figures 6-7 series)."""
        out: Dict[int, float] = {}
        for t in self.telemetry:
            day = int(t.submit_time // SECONDS_PER_DAY)
            out[day] = out.get(day, 0.0) + getattr(t, metric)
        return out

    def cumulative_daily(self, metric: str) -> List[Tuple[int, float]]:
        daily = sorted(self.daily(metric).items())
        totals = itertools.accumulate(value for _, value in daily)
        return [(day, total) for (day, _), total in zip(daily, totals)]


@dataclass(kw_only=True)
class WaveReport(SimulationReport):
    """The wave schedule's report: what the CLI and the throughput
    benchmark read."""

    results: List[JobResult]

    @property
    def jobs(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def degraded_jobs(self) -> int:
        return sum(1 for r in self.results if r.degraded)

    @property
    def jobs_per_second(self) -> float:
        return self.jobs / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> Dict[str, object]:
        return {
            "workers": self.config.workers,
            "shards": self.config.shards,
            "days": self.config.days,
            "jobs": self.jobs,
            "failures": self.failures,
            "degraded_jobs": self.degraded_jobs,
            "views_created": self.views_created,
            "views_reused": self.views_reused,
            "catalog_digest": self.catalog_digest,
            "wall_seconds": round(self.wall_seconds, 3),
            "jobs_per_second": round(self.jobs_per_second, 1),
        }


#: The cluster model of :meth:`WorkloadSimulation._run_cluster` that no
#: deployment varies (``ClusterSimulator``'s own defaults differ).
WORK_RATE = 30.0
CONTAINER_STARTUP = 2.0
VC_JOB_SLOTS = 3
JOB_OVERHEAD_SECONDS = 45.0


class WorkloadSimulation:
    """Drives one workload through one configuration."""

    def __init__(self, workload: CookingWorkload, config: SimulationConfig,
                 session: Optional[Session] = None,
                 on_day_boundary=None,
                 recorder=None):
        self.workload = workload
        self.config = config
        #: The deployment under simulation.  One built here (from
        #: ``config``, with ``recorder`` installed: engine, insights
        #: service, view store, scheduler) is closed when :meth:`run`
        #: ends; one handed in keeps its own recorder and stays open.
        self._owns_session = session is None
        self.session = session or config.open_session(recorder=recorder)
        #: Optional hook called as ``on_day_boundary(day, simulation)`` at
        #: each simulated midnight, after cooking/eviction and before
        #: reselection -- used for deployment scenarios such as the
        #: paper's tier-by-tier opt-out rollout (Section 4).
        self.on_day_boundary = on_day_boundary

    # ------------------------------------------------------------------ #
    # top level

    def run(self) -> SimulationReport:
        started = time.perf_counter()
        session = self.session
        with session if self._owns_session else contextlib.nullcontext():
            if self.config.workers is None:
                self.workload.install(session.engine)
                report = functools.partial(
                    ClusterReport, telemetry=self._run_cluster())
            else:
                results = replay(self._history(), session).results
                report = functools.partial(WaveReport,
                                           results=list(results.values()))
            shard_stats = (session.service.shard_stats()
                           if session.supervisor is not None else None)
        return report(
            config=self.config,
            repository=session.repository,
            views_created=session.views_created,
            views_reused=session.views_reused,
            catalog_digest=session.catalog_digest(),
            wall_seconds=time.perf_counter() - started,
            selections=session.selections,
            shard_stats=shard_stats,
        )

    # ------------------------------------------------------------------ #
    # day boundary: cooking, eviction, feedback loop

    def _boundary(self, day: int) -> list:
        """The history steps of one simulated midnight."""
        now = day * SECONDS_PER_DAY
        steps = [("cook", self.workload, day), ("evict", now)]
        if self.on_day_boundary is not None:
            steps.append(("hook", functools.partial(self.on_day_boundary,
                                                    day, self)))
        if self.config.cloudviews_enabled:
            steps.append(("publish",
                          now - SELECTION_WINDOW_DAYS * SECONDS_PER_DAY, now))
        return steps

    # ------------------------------------------------------------------ #
    # wave schedule

    def _history(self) -> list:
        history = [("install", self.workload.install)]
        for day in range(self.config.days):
            if day > 0:
                history += self._boundary(day)
            # A wave is the run of jobs sharing one simulated arrival time.
            jobs = day_jobs(self.workload, day, self.config.cloudviews_enabled)
            history += [
                ("wave", now, [(key, request) for _, key, request in wave])
                for now, wave in itertools.groupby(
                    jobs, key=operator.itemgetter(0))]
        return history

    # ------------------------------------------------------------------ #
    # cluster schedule (compile at arrival time, seal at stage completion)

    def _run_cluster(self) -> List[JobTelemetry]:
        config = self.config
        simulator = ClusterSimulator(
            total_containers=config.total_containers,
            vc_quotas={vc: config.vc_quota
                       for vc in self.workload.virtual_clusters},
            work_rate=WORK_RATE,
            container_startup=CONTAINER_STARTUP,
            vc_job_slots=VC_JOB_SLOTS,
            job_overhead_seconds=JOB_OVERHEAD_SECONDS,
            recorder=self.session.engine.recorder,
        )
        for day in range(config.days):
            if day > 0:
                simulator.add_arrival(
                    day * SECONDS_PER_DAY,
                    lambda now, d=day: self._cross_midnight(d))
            for instance in self.workload.jobs_for_day(day):
                simulator.add_arrival(
                    instance.submit_time,
                    lambda now, inst=instance: self._launch(inst, now))
        return simulator.run()

    def _cross_midnight(self, day: int) -> None:
        apply(self._boundary(day), self.session)

    def _launch(self, instance: JobInstance, now: float) -> SimulatedJob:
        template = instance.template
        engine = self.session.engine
        compiled = engine.compile(
            template.sql,
            params=instance.params,
            virtual_cluster=template.virtual_cluster,
            reuse_enabled=(self.config.cloudviews_enabled
                           and self.session.reuse_allowed(
                               template.virtual_cluster)),
            now=now,
        )
        run = engine.execute(compiled, now=now)
        engine.record_history(run.result)
        self.session.record(run, template_id=template.template_id,
                            pipeline_id=template.pipeline_id)

        estimator = CardinalityEstimator(
            engine.catalog, history=None,
            overestimate=engine.config.overestimate,
            salt=engine.signature_salt)
        graph = build_stage_graph(
            compiled.plan, run.result, estimator,
            rows_per_partition=self.config.rows_per_partition,
            max_partitions=self.config.max_partitions)

        def seal(stage, at, job_run=run):
            engine.seal_spooled(job_run, stage.spool_signature, at)

        return SimulatedJob(
            job_id=compiled.job_id,
            virtual_cluster=template.virtual_cluster,
            submit_time=now,
            graph=graph,
            input_rows=run.result.input_rows,
            input_bytes=run.result.input_bytes,
            data_read_bytes=run.result.data_read_bytes,
            views_built=len(run.result.spooled),
            views_reused=compiled.reused_views,
            on_spool_sealed=seal,
        )
