"""Concurrent job scheduler: parallel compile/execute, deterministic results.

Production SCOPE compiles hundreds of jobs concurrently against the
insights service; the serial ``ScopeEngine`` loop under-represents every
contention bug in that path.  :class:`JobScheduler` runs a pool of worker
threads over the *same* engine, with three invariants:

* **Per-job isolation** -- an exception inside one job's compile/execute is
  captured into its :class:`~repro.scheduler.results.JobResult`; sibling
  jobs and the scheduler itself are unaffected, and the engine's failure
  paths (lock release, view abandonment) run as usual.

* **Admission limits** -- at most ``max_pending`` jobs may be in flight;
  ``admission="block"`` back-pressures submitters, ``admission="reject"``
  raises :class:`~repro.common.errors.AdmissionError` (the paper's
  load-shedding posture for the serving tier).

* **Deterministic collection** -- job ids are assigned at submission time,
  and all schedule-dependent side effects (sealing views, recording
  workload history) are deferred from the worker threads to
  :meth:`drain`'s barrier, where they run in submission order.  A batch
  run with 8 workers therefore leaves the engine in a byte-identical
  state to the same batch run with 1 worker; only wall-clock differs.
  Within a batch, view *buildout* dedup relies solely on the insights
  service's atomic lock table: exactly one concurrent producer wins each
  strict signature, and because catalog records are identity-free the
  winner's identity does not affect the final catalog digest.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.errors import (
    AdmissionError,
    ConfigError,
    InjectedCrash,
    SchedulerError,
)
from repro.common.sync import RANK_SCHEDULER, TrackedLock
from repro.engine.engine import JobRun, ScopeEngine
from repro.faults import points as fault_points
from repro.faults.runtime import NULL_FAULTS
from repro.obs import events as obs_events
from repro.scheduler.results import JobResult

_ADMISSION_MODES = ("block", "reject")

#: A worker killed by an injected crash (``scheduler.worker``) is
#: restarted in place this many times -- modelling the cluster
#: rescheduling a dead task -- before the job fails for real.
WORKER_RETRIES = 2


@dataclass(kw_only=True)
class SchedulerConfig:
    """Concurrency knobs of the :class:`JobScheduler`."""

    workers: int = 4
    #: Maximum jobs admitted but not yet collected; 0 means unbounded.
    max_pending: int = 0
    #: ``"block"`` back-pressures ``submit``; ``"reject"`` raises
    #: :class:`AdmissionError` when the pending limit is hit.
    admission: str = "block"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_pending < 0:
            raise ConfigError(
                f"max_pending must be >= 0, got {self.max_pending}")
        if self.admission not in _ADMISSION_MODES:
            raise ConfigError(
                f"admission must be one of {_ADMISSION_MODES}, "
                f"got {self.admission!r}")


@dataclass
class JobRequest:
    """One job submitted to the scheduler."""

    sql: str
    params: Dict[str, object] = field(default_factory=dict)
    virtual_cluster: str = "default"
    reuse_enabled: bool = True
    #: Pre-assigned id; drawn from ``engine.next_job_id()`` at submission
    #: when omitted.
    job_id: Optional[str] = None
    #: Recurring-job identity for workload analysis.  Batch submissions
    #: that leave these empty are recorded as one-off ad-hoc jobs and
    #: never feed view selection.
    template_id: str = ""
    pipeline_id: str = ""


class _Pending:
    """Submission-order slot awaiting its worker's outcome."""

    __slots__ = ("request", "job_id", "submitted_at", "future")

    def __init__(self, request: JobRequest, job_id: str,
                 submitted_at: float, future) -> None:
        self.request = request
        self.job_id = job_id
        self.submitted_at = submitted_at
        self.future = future


class JobScheduler:
    """Thread-pool frontend over one :class:`ScopeEngine`.

    Typical use::

        scheduler = JobScheduler(engine, SchedulerConfig(workers=8))
        for sql in batch:
            scheduler.submit(JobRequest(sql=sql), now=now)
        results = scheduler.drain(now=now)
        scheduler.close()

    ``submit``/``drain`` may also be driven through :meth:`run_batch`.
    The scheduler is itself thread-safe for submissions, but ``drain``
    is a barrier and must not race with further submissions.
    """

    def __init__(self, engine: ScopeEngine,
                 config: Optional[SchedulerConfig] = None,
                 reuse_gate: Optional[Callable[[str], bool]] = None):
        self.engine = engine
        self.config = config or SchedulerConfig()
        #: Optional per-virtual-cluster kill switch, e.g.
        #: ``lambda vc: controls.enabled_for(vc, service_enabled=...)``.
        self.reuse_gate = reuse_gate
        #: The engine's flight recorder, as installed when the scheduler
        #: is built.
        self.recorder = engine.recorder
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-sched")
        self._pending: List[_Pending] = []
        self._mutex = TrackedLock("scheduler", RANK_SCHEDULER,
                                  self.recorder)
        self._slots = (threading.BoundedSemaphore(self.config.max_pending)
                       if self.config.max_pending else None)
        self._closed = False
        self._waves = 0
        self.jobs_submitted = 0
        self.jobs_failed = 0
        #: The session's fault runtime; ``Session(faults=...)`` installs
        #: a live one so the ``scheduler.worker`` death seam can fire.
        self.faults = NULL_FAULTS

    # ------------------------------------------------------------------ #
    # submission

    def submit(self, request: JobRequest, now: float = 0.0) -> str:
        """Admit one job and return its (deterministic) job id."""
        if self._closed:
            raise SchedulerError("scheduler is closed")
        if self._slots is not None:
            if self.config.admission == "reject":
                if not self._slots.acquire(blocking=False):
                    self.recorder.inc("scheduler.admission.rejected")
                    raise AdmissionError(
                        f"pending limit {self.config.max_pending} reached")
            else:
                self._slots.acquire()
        with self._mutex:
            job_id = request.job_id or self.engine.next_job_id()
            self.jobs_submitted += 1
            future = self._pool.submit(self._work, request, job_id, now)
            self._pending.append(_Pending(request, job_id, now, future))
        return job_id

    def _work(self, request: JobRequest, job_id: str, now: float):
        """Worker-thread body: compile + execute, side effects deferred.

        The ``scheduler.worker`` fault point simulates the worker dying
        before it makes progress; the engine's own failure paths released
        everything on the way out, so restarting the attempt in place is
        exactly what the cluster's task rescheduler would do.
        """
        for attempt in range(WORKER_RETRIES + 1):
            try:
                self.faults.fire(fault_points.SCHEDULER_WORKER)
                return self._attempt(request, job_id, now)
            except InjectedCrash:
                if attempt >= WORKER_RETRIES:
                    raise
                self.recorder.inc("scheduler.worker_retries")
                self.recorder.event(
                    obs_events.WORKER_RETRIED, at=now, job_id=job_id,
                    virtual_cluster=request.virtual_cluster,
                    attempt=attempt + 1)
        raise AssertionError("unreachable")  # pragma: no cover

    def _attempt(self, request: JobRequest, job_id: str, now: float):
        reuse = request.reuse_enabled
        if reuse and self.reuse_gate is not None:
            reuse = self.reuse_gate(request.virtual_cluster)
        compiled = self.engine.compile(
            request.sql,
            params=request.params,
            virtual_cluster=request.virtual_cluster,
            reuse_enabled=reuse,
            now=now,
            job_id=job_id,
        )
        # Sealing and history recording happen at the drain barrier, in
        # submission order -- the worker only does the schedule-invariant
        # part of execution.
        return self.engine.execute(
            compiled, now=now, record_history=False, seal_views=False)

    # ------------------------------------------------------------------ #
    # collection barrier

    def drain(self, now: float = 0.0,
              on_run: Optional[Callable[[JobRun], None]] = None
              ) -> List[JobResult]:
        """Wait for every pending job; apply side effects in submission order.

        ``on_run`` is invoked (still in submission order) for each
        successful run after its views sealed -- the concurrent simulation
        uses it to ingest the workload repository deterministically.
        """
        with self._mutex:
            pending, self._pending = self._pending, []
        results: List[JobResult] = []
        failures = 0
        for slot in pending:
            try:
                run: JobRun = slot.future.result()
            except Exception as error:  # per-job isolation boundary
                failures += 1
                self.recorder.inc("scheduler.jobs.failed")
                self.recorder.event(
                    obs_events.JOB_FAILED, at=now, job_id=slot.job_id,
                    virtual_cluster=slot.request.virtual_cluster,
                    error=str(error) or type(error).__name__,
                    error_type=type(error).__name__,
                )
                results.append(JobResult.from_failure(
                    slot.job_id, slot.request.sql,
                    slot.request.virtual_cluster, slot.submitted_at, error))
            else:
                for spool in run.result.spooled:
                    self.engine.seal_spooled(run, spool.signature, at=now)
                self.engine.record_history(run.result)
                if on_run is not None:
                    on_run(run)
                results.append(JobResult.from_run(run))
            finally:
                if self._slots is not None:
                    self._slots.release()
        self.jobs_failed += failures
        if pending:
            self._waves += 1
            self.recorder.inc("scheduler.waves")
            self.recorder.event(
                obs_events.SCHEDULER_WAVE, at=now,
                job_id=f"wave-{self._waves}",
                jobs=len(pending), failures=failures,
                workers=self.config.workers,
            )
        return results

    def run_batch(self, requests: List[JobRequest], now: float = 0.0,
                  on_run: Optional[Callable[[JobRun], None]] = None
                  ) -> List[JobResult]:
        """Submit a batch and drain it: one wave, results in batch order."""
        for request in requests:
            self.submit(request, now=now)
        return self.drain(now=now, on_run=on_run)

    # ------------------------------------------------------------------ #
    # lifecycle

    @property
    def pending_jobs(self) -> int:
        with self._mutex:
            return len(self._pending)

    @property
    def waves(self) -> int:
        return self._waves

    def close(self) -> None:
        """Shut the pool down; outstanding futures are drained first."""
        if self._closed:
            return
        if self.pending_jobs:
            raise SchedulerError(
                "close() with pending jobs; call drain() first")
        self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._closed = True
            self._pool.shutdown(wait=True)
