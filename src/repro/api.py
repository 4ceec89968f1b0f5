"""The unified public facade: one import for the whole reuse stack.

:class:`Session` wires the full Figure-5 deployment in one object --
insights service behind a fault-tolerant :class:`InsightsClient`, a
:class:`~repro.engine.engine.ScopeEngine` compiling against it, the
workload repository, the selection feedback loop, and (for batch
submission) a :class:`~repro.scheduler.scheduler.JobScheduler`::

    from repro.api import Session

    with Session() as session:
        session.register_table(schema, rows)
        result = session.run("SELECT region, COUNT(*) FROM events ...")
        session.analyze_and_publish()
        results = session.run_batch([sql_a, sql_b, sql_c], now=100.0)

Every entry point returns the same :class:`JobResult` dataclass, whether
the job ran alone, in a wave, or failed.  ``Session`` is also the
only place the Figure-5 feedback loop is written: :meth:`Session.record`
ingests an executed job and :meth:`Session.analyze_and_publish` runs one
selection epoch; :class:`repro.simulation.WorkloadSimulation` drives
both over simulated days.

A ``Session`` has one caller: the thread that built it.  Any other
thread calling one of its methods gets :class:`ConfigError` and changes
nothing; concurrent callers each build their own ``Session``.
"""

from __future__ import annotations

import functools
import itertools
from threading import get_ident
from typing import Dict, List, Optional, Sequence, Union

from repro.backends.base import ExecutionBackend, create_backend
from repro.catalog.schema import TableSchema
from repro.common.errors import ConfigError, ReproError
from repro.config import SessionConfig
from repro.core.controls import MultiLevelControls
from repro.core.runner import record_job_into
from repro.engine.engine import EngineConfig, ScopeEngine
from repro.faults import FaultPlan, FaultRuntime, resolve_faults
from repro.insights.client import InsightsClient
from repro.insights.service import InsightsService
from repro.lifecycle.manager import LifecycleConfig, LifecycleManager
from repro.obs import events as obs_events
from repro.plan.expressions import Row
from repro.scheduler.results import JobResult
from repro.scheduler.scheduler import (
    JobRequest,
    JobScheduler,
    SchedulerConfig,
)
from repro.selection.candidates import build_candidates
from repro.selection.policies import SelectionPolicy, SelectionResult
from repro.selection.registry import run_selection, validate_selection_algorithm
from repro.shard.journal import ShardedCatalogJournal
from repro.shard.router import ShardRouter
from repro.shard.supervisor import ShardConfig, ShardSupervisor
from repro.workload.repository import WorkloadRepository

__all__ = [
    "Session", "SessionConfig",
    "JobResult", "JobRequest",
    "EngineConfig", "SchedulerConfig", "LifecycleConfig",
    "FaultPlan", "FaultRuntime",
    "SelectionPolicy", "MultiLevelControls",
    "ShardConfig",
]


def _one_caller(method):
    """Refuse every thread but the one that built the ``Session``."""
    @functools.wraps(method)
    def checked(self, *args, **kwargs):
        if get_ident() != self._owner:
            raise ConfigError(
                "a Session has one caller; use one Session per thread")
        return method(self, *args, **kwargs)
    return checked


class Session:
    """Engine + insights + scheduler wiring with one result type.

    All constructor arguments are keyword-only, and each setting has
    exactly one: ``config`` is a :class:`SessionConfig`, which holds only
    the shard deployment.  ``backend`` selects the execution engine -- a
    name (``"memory"``, ``"sqlite"``) or an
    :class:`~repro.backends.base.ExecutionBackend` instance -- while
    signatures, matching, and insights stay backend-invariant above it.
    The engine talks to its insights service through an
    :class:`InsightsClient` (TTL cache, retries, circuit breaker; its
    tunables are constants of :mod:`repro.insights.client`).

    ``faults`` installs the unified fault-injection framework
    (:mod:`repro.faults`): a :class:`~repro.faults.FaultPlan`, a
    pre-built :class:`~repro.faults.FaultRuntime`, or a plan string
    (JSON or the ``point:kind[:prob[:max_fires[:delay]]]`` DSL).  One
    runtime is shared by every seam -- backend execute/materialize/
    scan/drop, journal writes, scheduler workers, insights RPC, GC
    sweeps -- so a single seed reproduces a whole failure scenario.
    ``REPRO_FAULTS``/``REPRO_FAULTS_SEED`` do the same from the
    environment.
    """

    def __init__(self, *,
                 config: Optional[SessionConfig] = None,
                 backend: Union[str, ExecutionBackend] = "memory",
                 engine_config: Optional[EngineConfig] = None,
                 scheduler_config: Optional[SchedulerConfig] = None,
                 controls: Optional[MultiLevelControls] = None,
                 policy: Optional[SelectionPolicy] = None,
                 selection_algorithm: str = "greedy",
                 lifecycle: Optional[LifecycleConfig] = None,
                 faults: Optional[Union[str, FaultPlan, FaultRuntime]] = None,
                 recorder=None):
        self._owner = get_ident()
        # Resolution order: explicit kwarg, REPRO_FAULTS in the
        # environment, inert default.
        if faults is None:
            faults = FaultPlan.from_env()
        self.faults = resolve_faults(faults)
        validate_selection_algorithm(selection_algorithm)
        self.controls = controls or MultiLevelControls()
        self.policy = policy or SelectionPolicy()
        self.selection_algorithm = selection_algorithm
        self.repository = WorkloadRepository()
        #: Every selection epoch so far, oldest first.
        self.selections: List[SelectionResult] = []
        #: The selection whose annotations are published now.
        self.last_selection: Optional[SelectionResult] = None
        self._full_work: Dict[str, float] = {}
        self._template_counter = itertools.count(1)
        # What close() tears down starts out absent, so that a failure
        # below can run close() over whatever had been built -- shard
        # processes, their socket directory, the backend -- and re-raise
        # with nothing left stranded.
        self._closed = False
        self.backend: Optional[ExecutionBackend] = None
        self.supervisor: Optional[ShardSupervisor] = None
        self.service = None
        self.lifecycle: Optional[LifecycleManager] = None
        try:
            if isinstance(backend, str):
                backend = create_backend(backend)
            self.backend = backend
            # shards > 0 swaps the in-process service for the
            # multi-process deployment: worker processes behind a router
            # that presents the same service surface, so nothing
            # downstream changes.
            shard_config = config.shard if config is not None else None
            shard_journal: Optional[ShardedCatalogJournal] = None
            if shard_config is not None and shard_config.shards > 0:
                # The lifecycle journal splits into per-shard WALs under
                # its configured directory.
                journal_dir = (lifecycle.journal_dir
                               if lifecycle is not None else None)
                self.supervisor = ShardSupervisor(
                    shard_config, journal_dir=journal_dir,
                    faults=self.faults)
                self.service = ShardRouter(self.supervisor,
                                           faults=self.faults)
                if journal_dir is not None:
                    # Before the workers create ``shard-NN/``: a classic
                    # journal found there is refused untouched.
                    shard_journal = ShardedCatalogJournal(
                        self.service, directory=journal_dir)
                self.supervisor.start()
            else:
                self.service = InsightsService()
            self.insights = InsightsClient(self.service)
            # One shared runtime behind every seam: a single seed then
            # reproduces the whole failure scenario across layers.
            backend.faults = self.faults
            self.insights.faults = self.faults
            self.engine = ScopeEngine(
                insights=self.insights, config=engine_config,
                backend=backend)
            if recorder is not None:
                recorder.install(self.engine)
            # After the recorder: the scheduler adopts the engine's.
            self.scheduler = JobScheduler(
                self.engine, scheduler_config,
                reuse_gate=self.reuse_allowed)
            self.scheduler.faults = self.faults
            # After the recorder: journal recovery emits a recorded event.
            if lifecycle is not None:
                self.lifecycle = LifecycleManager(
                    self.engine, lifecycle, faults=self.faults,
                    journal=shard_journal)
        except BaseException:
            try:
                self.close()
            except Exception:
                pass  # the constructor's own error is the one to report
            raise

    # ------------------------------------------------------------------ #
    # data management

    @_one_caller
    def register_table(self, schema: TableSchema, rows: Sequence[Row],
                       at: float = 0.0) -> None:
        self.engine.register_table(schema, rows, at=at)

    # ------------------------------------------------------------------ #
    # running jobs

    @_one_caller
    def reuse_allowed(self, virtual_cluster: str,
                      job_override: Optional[bool] = None) -> bool:
        """The multi-level controls' verdict for one job (Section 4)."""
        return self.controls.enabled_for(
            virtual_cluster,
            job_override=job_override,
            service_enabled=self.insights.enabled)

    @_one_caller
    def run(self, sql: str, *,
            params: Optional[Dict[str, object]] = None,
            virtual_cluster: str = "default",
            template_id: str = "",
            pipeline_id: str = "",
            reuse_override: Optional[bool] = None,
            now: float = 0.0) -> JobResult:
        """Compile and execute one job; always returns a :class:`JobResult`.

        Unlike batch submission, a failure here raises (the caller asked
        for this one job synchronously and should see the error).
        """
        reuse = self.reuse_allowed(virtual_cluster,
                                   job_override=reuse_override)
        with self.engine.commit_group():
            run = self.engine.run_sql(
                sql, params=params, virtual_cluster=virtual_cluster,
                reuse_enabled=reuse, now=now)
        self.record(run, template_id=template_id, pipeline_id=pipeline_id)
        return JobResult.from_run(run)

    @_one_caller
    def run_batch(self,
                  jobs: Sequence[Union[str, JobRequest]],
                  now: float = 0.0) -> List[JobResult]:
        """Run many jobs as one scheduler wave, on this thread.

        Accepts plain SQL strings or :class:`JobRequest` objects.  Failed
        jobs come back as ``JobResult`` with ``ok == False``; the batch
        itself never raises.  Requests carrying ``template_id`` /
        ``pipeline_id`` are recorded under that recurring identity (so
        batch-submitted workloads feed view selection exactly like
        :meth:`run`); others are recorded as one-off ad-hoc jobs.
        """
        requests = [job if isinstance(job, JobRequest) else JobRequest(sql=job)
                    for job in jobs]
        results = self.scheduler.drain(requests, now=now)
        for request, result in zip(requests, results):
            if result.ok:
                self.record(result.run, template_id=request.template_id,
                            pipeline_id=request.pipeline_id)
        return results

    # ------------------------------------------------------------------ #
    # the feedback loop

    @_one_caller
    def record(self, run, *, template_id: str = "",
               pipeline_id: str = "") -> None:
        """Ingest one executed job into the workload repository.

        :meth:`run` and :meth:`run_batch` call this themselves; it is for
        drivers that compile and execute on :attr:`engine` directly.
        """
        record_job_into(
            self.repository, run, run.compiled.submitted_at,
            virtual_cluster=run.compiled.virtual_cluster,
            template_id=(template_id
                         or f"adhoc-{next(self._template_counter)}"),
            pipeline_id=pipeline_id,
            salt=self.engine.signature_salt,
            full_work=self._full_work,
        )

    @_one_caller
    def analyze_and_publish(self,
                            window_start: Optional[float] = None,
                            window_end: Optional[float] = None
                            ) -> SelectionResult:
        """One selection epoch: workload analysis -> view selection ->
        insights publication.

        Analysis only considers jobs compiled under the *current* runtime
        version: signatures from older runtimes no longer match anything
        (Section 4, "Impact of changed signatures").
        """
        recorder = self.engine.recorder
        now = recorder.now if window_end is None else window_end
        epoch_id = f"epoch-{len(self.selections) + 1}"
        epoch_span = recorder.start_span(
            "selection.epoch", trace_id=epoch_id, at=now,
            algorithm=self.selection_algorithm)
        repository = self.repository.window(
            float("-inf") if window_start is None else window_start,
            float("inf") if window_end is None else window_end,
            runtime_version=self.engine.runtime_version)
        candidates = build_candidates(repository)
        result = run_selection(
            self.selection_algorithm, repository, candidates, self.policy,
            recorder=recorder)
        published = self.insights.publish(result.annotations())
        self.selections.append(result)
        self.last_selection = result
        epoch_span.annotate("selected", len(result.selected))
        epoch_span.annotate("published", published)
        epoch_span.finish(at=now)
        recorder.event(
            obs_events.SELECTION_EPOCH, at=now, job_id=epoch_id,
            algorithm=self.selection_algorithm,
            considered=result.considered,
            selected=len(result.selected),
            rejected_by_budget=result.rejected_by_budget,
            rejected_by_schedule=result.rejected_by_schedule,
            storage_used=result.storage_used,
            published=published,
        )
        return result

    @_one_caller
    def handle_runtime_upgrade(self, version: str) -> None:
        """Roll the engine to a new runtime version.

        All published annotations are withdrawn immediately (their salted
        signatures can no longer match), and the next
        :meth:`analyze_and_publish` re-runs the workload analysis over
        jobs observed under the new runtime -- the Section-4 recipe:
        "we need to keep track of changes that can affect signatures and
        re-run any prior workload analysis."
        """
        self.engine.set_runtime_version(version)
        self.insights.publish([])
        self.last_selection = None

    # ------------------------------------------------------------------ #
    # operational surface

    @property
    @_one_caller
    def views_created(self) -> int:
        return self.engine.view_store.total_created

    @property
    @_one_caller
    def views_reused(self) -> int:
        return self.engine.view_store.total_reused

    @_one_caller
    def catalog_digest(self) -> str:
        return self.engine.view_store.catalog_digest()

    @_one_caller
    def purge_view(self, strict_signature: str) -> None:
        """User-initiated purge of a view's files (Section 2.4).

        Purging only the catalog entry used to leave two things behind:
        the insights-service view lock (its builder will never come back
        to release it) and the published annotation (which would drive a
        pointless immediate rebuild of a view the user just deleted).
        Release the lock and retract the annotation along with the purge.
        """
        view = self.engine.view_store.get(strict_signature)
        if view is not None and view.recurring_signature:
            self.insights.retract([view.recurring_signature])
        self.insights.force_release_locks([strict_signature])
        self.engine.view_store.purge(strict_signature)

    @_one_caller
    def evict_expired(self, now: float) -> int:
        """Retire expired views: out of the catalog, rows off the backend."""
        with self.engine.commit_group():
            expired = self.engine.view_store.evict_expired(now)
        for view in expired:
            self.engine.delete_view_blob(view.path)
        return len(expired)

    @_one_caller
    def storage_in_use(self, now: float) -> int:
        return self.engine.view_store.storage_in_use(now)

    @_one_caller
    def gc_sweep(self, now: float = 0.0):
        """One lifecycle GC sweep (requires ``lifecycle=`` at construction)."""
        if self.lifecycle is None:
            raise ReproError("Session was built without lifecycle=")
        return self.lifecycle.sweep(now)

    @_one_caller
    def close(self) -> None:
        """Tear the deployment down; a second call does nothing.

        Every step runs even when an earlier one raises (a lifecycle
        whose shutdown snapshot fails must not strand the shard
        processes), and the first error is re-raised at the end.
        """
        if self._closed:
            return
        self._closed = True
        # Lifecycle first: its shutdown snapshot must see the final state
        # before anything else tears down -- and, when sharded, it runs
        # through the router, so the workers must still be up.  The
        # supervisor therefore goes last.
        steps = [part.close for part in (self.lifecycle, self.backend)
                 if part is not None]
        if self.supervisor is not None:
            if self.service is not None:
                steps.append(self.service.close)
            steps.append(self.supervisor.close)
        first_error: Optional[Exception] = None
        for step in steps:
            try:
                step()
            except Exception as error:
                first_error = first_error or error
        if first_error is not None:
            raise first_error

    @_one_caller
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except Exception:
            # The body's own exception, if any, is the one to report.
            if exc_type is None:
                raise
