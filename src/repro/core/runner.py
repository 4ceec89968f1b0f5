"""The co-simulation runner: engine + cluster + feedback loop.

This is the experiment harness behind the paper's production numbers
(Table 1, Figures 6-7).  One :class:`WorkloadSimulation` drives a
:class:`~repro.workload.generator.CookingWorkload` over N simulated days:

* at each day boundary the cooking pipelines regenerate the shared fact
  streams (bulk updates -> new GUIDs -> old views go stale) and expired
  views are evicted;
* periodically, the CloudViews feedback loop re-runs workload analysis and
  view selection over the trailing window and publishes fresh annotations
  to the insights service;
* every job submission compiles against the engine *at its simulated
  arrival time* (so view visibility is temporally honest), row-executes to
  obtain observed statistics, and is then scheduled on the cluster
  simulator; spool-writer stages early-seal their views at the simulated
  moment they complete.

Run it once with CloudViews enabled and once disabled to reproduce the
paper's baseline-vs-CloudViews comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.simulator import (
    ClusterSimulator,
    JobTelemetry,
    SimulatedJob,
)
from repro.cluster.stages import (
    build_stage_graph,
)
from repro.common.clock import SECONDS_PER_DAY
from repro.core.controls import MultiLevelControls
from repro.obs import events as obs_events
from repro.obs.recorder import NULL_RECORDER
from repro.engine.engine import EngineConfig, JobRun, ScopeEngine
from repro.optimizer.stats import CardinalityEstimator
from repro.executor.executor import choose_join_algorithm
from repro.plan.logical import Join, LogicalPlan, Scan, Spool, ViewScan
from repro.selection.candidates import build_candidates
from repro.selection.policies import SelectionPolicy, SelectionResult
from repro.selection.registry import run_selection, validate_selection_algorithm
from repro.signatures.signature import (
    is_reuse_eligible,
    recurring_signature,
    strict_signature,
    subexpression_tag,
)
from repro.workload.generator import CookingWorkload, JobInstance
from repro.workload.repository import (
    JobRecord,
    SubexpressionRecord,
    WorkloadRepository,
)


@dataclass
class SimulationConfig:
    """Knobs for one simulated deployment window."""

    days: int = 7
    cloudviews_enabled: bool = True
    total_containers: int = 60
    vc_quota: int = 10
    work_rate: float = 30.0
    container_startup: float = 2.0
    selection_algorithm: str = "bigsubs"
    policy: SelectionPolicy = field(default_factory=lambda: SelectionPolicy(
        storage_budget_bytes=50_000_000,
        materialization_lag_seconds=150.0,
        min_reuses_per_epoch=2.0,
    ))
    warmup_days: int = 1          # observe before the first selection
    reselect_every_days: int = 1  # feedback-loop cadence
    selection_window_days: int = 3
    rows_per_partition: float = 15.0
    max_partitions: int = 96
    vc_job_slots: int = 3
    job_overhead_seconds: float = 45.0
    #: View TTL in simulated seconds (``repro simulate --view-ttl``);
    #: ``None`` keeps the engine default (one week, §3.1).
    view_ttl_seconds: Optional[float] = None
    #: Execution backend name (``repro simulate --backend``).
    backend: str = "memory"


@dataclass
class SimulationReport:
    """Everything the benchmarks read: telemetry plus workload records."""

    config: SimulationConfig
    telemetry: List[JobTelemetry]
    repository: WorkloadRepository
    views_created: int
    views_reused: int
    selections: List[SelectionResult] = field(default_factory=list)

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
        daily = self.daily(metric)
        series: List[Tuple[int, float]] = []
        running = 0.0
        for day in sorted(daily):
            running += daily[day]
            series.append((day, running))
        return series


class WorkloadSimulation:
    """Drives one workload through one configuration."""

    def __init__(self, workload: CookingWorkload, config: SimulationConfig,
                 engine: Optional[ScopeEngine] = None,
                 controls: Optional[MultiLevelControls] = None,
                 on_day_boundary=None,
                 monitor=None,
                 recorder=None):
        self.workload = workload
        self.config = config
        if engine is None:
            engine_config = EngineConfig()
            if config.view_ttl_seconds is not None:
                engine_config.view_ttl_seconds = config.view_ttl_seconds
            from repro.backends import create_backend
            engine = ScopeEngine(config=engine_config,
                                 backend=create_backend(config.backend))
        self.engine = engine
        self.controls = controls
        #: Flight recorder for the whole feedback loop.  Installing it
        #: here wires the engine, insights service, and view store; the
        #: cluster simulator drives its simulated clock.  ``None`` keeps
        #: the zero-overhead :data:`~repro.obs.recorder.NULL_RECORDER`.
        self.recorder = recorder or NULL_RECORDER
        if recorder is not None:
            recorder.install(self.engine)
        #: Optional hook called as ``on_day_boundary(day, simulation)`` at
        #: each simulated midnight, after cooking/eviction and before
        #: reselection -- used for deployment scenarios such as the
        #: paper's tier-by-tier opt-out rollout (Section 4).
        self.on_day_boundary = on_day_boundary
        #: Optional :class:`~repro.engine.monitoring.QueryMonitor`; when
        #: provided, every compiled job is surfaced to it (Figure 5's
        #: query-monitoring tool).
        self.monitor = monitor
        self.repository = WorkloadRepository()
        self.selections: List[SelectionResult] = []
        self._full_work: Dict[str, float] = {}
        validate_selection_algorithm(config.selection_algorithm)

    # ------------------------------------------------------------------ #
    # top level

    def run(self) -> SimulationReport:
        self.workload.install(self.engine, at=0.0)
        simulator = ClusterSimulator(
            total_containers=self.config.total_containers,
            vc_quotas={vc: self.config.vc_quota
                       for vc in self.workload.virtual_clusters},
            work_rate=self.config.work_rate,
            container_startup=self.config.container_startup,
            vc_job_slots=self.config.vc_job_slots,
            job_overhead_seconds=self.config.job_overhead_seconds,
            recorder=self.recorder,
        )
        for day in range(self.config.days):
            if day > 0:
                simulator.add_arrival(
                    day * SECONDS_PER_DAY,
                    lambda now, d=day: self._day_boundary(d, now))
            for instance in self.workload.jobs_for_day(day):
                simulator.add_arrival(
                    instance.submit_time,
                    lambda now, inst=instance: self._launch(inst, now))
        telemetry = simulator.run()
        return SimulationReport(
            config=self.config,
            telemetry=telemetry,
            repository=self.repository,
            views_created=self.engine.view_store.total_created,
            views_reused=self.engine.view_store.total_reused,
            selections=self.selections,
        )

    # ------------------------------------------------------------------ #
    # day boundary: cooking, eviction, feedback loop

    def _day_boundary(self, day: int, now: float) -> None:
        self.workload.cook(self.engine, day)
        self.engine.view_store.evict_expired(now)
        if self.on_day_boundary is not None:
            self.on_day_boundary(day, self)
        if not self.config.cloudviews_enabled:
            return None
        if day < self.config.warmup_days:
            return None
        if (day - self.config.warmup_days) % self.config.reselect_every_days:
            return None
        self._reselect(now)
        return None

    def _reselect(self, now: float) -> None:
        epoch_id = f"epoch-{len(self.selections) + 1}"
        epoch_span = self.recorder.start_span(
            "selection.epoch", trace_id=epoch_id, at=now,
            algorithm=self.config.selection_algorithm)
        window_start = now - self.config.selection_window_days * SECONDS_PER_DAY
        window = self.repository.window(window_start, now)
        candidates = build_candidates(window)
        result = run_selection(
            self.config.selection_algorithm, window, candidates,
            self.config.policy, recorder=self.recorder)
        published = self.engine.insights.publish(result.annotations())
        self.selections.append(result)
        epoch_span.annotate("selected", len(result.selected))
        epoch_span.annotate("published", published)
        epoch_span.finish(at=now)
        self.recorder.event(
            obs_events.SELECTION_EPOCH, at=now, job_id=epoch_id,
            algorithm=self.config.selection_algorithm,
            considered=result.considered,
            selected=len(result.selected),
            rejected_by_budget=result.rejected_by_budget,
            rejected_by_schedule=result.rejected_by_schedule,
            storage_used=result.storage_used,
            published=published,
        )

    # ------------------------------------------------------------------ #
    # per-job launch (compile at arrival time)

    def _launch(self, instance: JobInstance, now: float) -> Optional[SimulatedJob]:
        template = instance.template
        reuse = self.config.cloudviews_enabled
        if reuse and self.controls is not None:
            reuse = self.controls.enabled_for(
                template.virtual_cluster,
                service_enabled=self.engine.insights.enabled)
        compiled = self.engine.compile(
            template.sql,
            params=instance.params,
            virtual_cluster=template.virtual_cluster,
            reuse_enabled=reuse,
            now=now,
        )
        run = self.engine.execute(compiled, now=now, seal_views=False)
        if self.monitor is not None \
                and not getattr(self.monitor, "event_driven", False):
            # Event-driven monitors already saw the job.compiled and
            # view.sealed events through the flight recorder's log.
            self.monitor.observe_compile(compiled, at=now)
            self.monitor.observe_run(run)
        self._record(template, compiled.job_id, now, run)

        estimator = CardinalityEstimator(
            self.engine.catalog, history=None,
            overestimate=self.engine.config.overestimate,
            salt=self.engine.signature_salt)
        graph = build_stage_graph(
            compiled.plan, run.result, estimator,
            rows_per_partition=self.config.rows_per_partition,
            max_partitions=self.config.max_partitions)

        def seal(stage, at, job_run=run):
            self.engine.seal_spooled(job_run, stage.spool_signature, at)

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

    # ------------------------------------------------------------------ #
    # repository ingestion

    def _record(self, template, job_id: str, now: float, run: JobRun) -> None:
        record_job_into(
            self.repository, run, now,
            virtual_cluster=template.virtual_cluster,
            template_id=template.template_id,
            pipeline_id=template.pipeline_id,
            salt=self.engine.signature_salt,
            full_work=self._full_work,
        )


def record_job_into(repository: WorkloadRepository, run: JobRun, now: float,
                    virtual_cluster: str, template_id: str, pipeline_id: str,
                    salt: str,
                    full_work: Optional[Dict[str, float]] = None) -> None:
    """Ingest one executed job into the denormalized subexpression table.

    ``full_work`` caches, per recurring signature, the compute a
    subexpression performs when evaluated from scratch; instances that
    merely scanned a materialized view inherit the cached number so view
    selection keeps seeing the compute the view *stands for*.
    """
    if full_work is None:
        full_work = {}
    stats = {id(node): s for node, s in run.result.node_stats}
    records: List[SubexpressionRecord] = []
    datasets = set()
    counter = [0]
    job_id = run.compiled.job_id

    def visit(node: LogicalPlan, parent_id: Optional[int],
              depth: int) -> Tuple[float, int, Tuple[str, ...]]:
        """Returns (subtree_work, height, sorted scanned datasets)."""
        if isinstance(node, Spool):
            return visit(node.child, parent_id, depth)
        node_id = counter[0]
        counter[0] += 1
        child_work = 0.0
        heights = []
        scanned: Tuple[str, ...] = ()
        for child in node.children():
            work, height, below = visit(child, node_id, depth + 1)
            child_work += work
            heights.append(height)
            scanned = tuple(sorted(scanned + below)) if scanned else below
        node_stats = stats.get(id(node))
        rows = node_stats.rows_out if node_stats else 0
        size = node_stats.bytes_out if node_stats else 0
        own = ((node_stats.rows_in + node_stats.rows_out)
               if node_stats else 0.0)
        subtree_work = child_work + own
        height = 1 + max(heights) if heights else 0
        recurring = recurring_signature(node, salt)
        if isinstance(node, ViewScan):
            # The reused instance did almost no work; for selection we
            # keep the compute it *stands for* (last full observation).
            subtree_work = full_work.get(recurring, subtree_work)
            height = max(height, 1)
        else:
            full_work[recurring] = subtree_work
        if isinstance(node, Scan):
            datasets.add(node.dataset)
            scanned = (node.dataset,)
        detail = ""
        if isinstance(node, Join):
            left_stats = stats.get(id(node.left))
            right_stats = stats.get(id(node.right))
            detail = choose_join_algorithm(
                node,
                left_stats.rows_out if left_stats else 0,
                right_stats.rows_out if right_stats else 0)
        records.append(SubexpressionRecord(
            job_id=job_id,
            virtual_cluster=virtual_cluster,
            submit_time=now,
            template_id=template_id,
            pipeline_id=pipeline_id,
            strict=strict_signature(node, salt),
            recurring=recurring,
            tag=subexpression_tag(node, salt),
            operator=node.op_label,
            height=height,
            eligible=is_reuse_eligible(node),
            rows=rows,
            size_bytes=size,
            work=subtree_work,
            input_datasets=scanned,
            node_id=node_id,
            parent_node_id=parent_id,
            detail=detail,
        ))
        return subtree_work, height, scanned

    visit(run.compiled.plan, None, 0)
    repository.add_job(JobRecord(
        job_id=job_id,
        virtual_cluster=virtual_cluster,
        submit_time=now,
        template_id=template_id,
        pipeline_id=pipeline_id,
        runtime_version=run.compiled.runtime_version,
        input_datasets=tuple(sorted(datasets)),
        subexpression_count=len(records),
    ), records)
