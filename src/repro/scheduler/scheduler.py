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

* **Deterministic collection** -- a wave is a barrier.  Job ids are
  assigned at submission time and :meth:`submit` only queues.
  :meth:`drain` opens the wave: it plans every job on its own thread, in
  submission order, and fetches the wave's annotations as one lookup
  frame per owning insights shard (answered as one-by-one fetches
  would be, :meth:`InsightsClient.fetch_wave`); workers then only
  compile and execute; and :meth:`drain` waits for *every* job of the
  wave, then runs one completion pass in submission order (seal the
  run's views, record its history, build its result).  No job of a
  wave can therefore see a view a sibling built -- sharing inside a wave
  is the multi-query-optimization setting, which this reproduction
  leaves out.  Within a wave the
  insights service's atomic lock table is still the only buildout guard
  (one producer per strict signature), but the jobs ask it in submission
  order: compiles overlap, and a job's view-lock requests wait until
  every earlier job of the wave has compiled, so the producer is the
  earliest proposer and not the thread that got there first.  A batch
  run with 8 workers therefore leaves the engine in a byte-identical
  state -- catalog digest, per-job build and reuse counts, every
  operator's row counts, every fetch charge -- to the same batch run
  with 1 worker; only wall-clock differs.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
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
from repro.insights.service import Fetched
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


@dataclass
class _Pending:
    """Submission-order slot awaiting its worker's outcome."""

    request: JobRequest
    job_id: str
    submitted_at: float
    #: Filled when the wave opens (:meth:`JobScheduler._open`): the job's
    #: plan or why planning failed, and its fetch answer (``None``: the
    #: job runs without reuse).
    planned: Optional[tuple] = None
    error: Optional[Exception] = None
    fetched: Optional[Fetched] = None
    #: ``compiled`` of every earlier job of the wave.  The pool starts
    #: jobs in submission order, so each of them is running or done
    #: whenever this slot's own job is.
    earlier: List[threading.Event] = field(default_factory=list)
    #: Set once the job has compiled (or failed to): from then on it
    #: asks for no more view locks.
    compiled: threading.Event = field(default_factory=threading.Event)
    future: Optional[Future] = None

    def wait_for_earlier(self) -> None:
        for compiled in self.earlier:
            compiled.wait()


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
        """Admit one job and return its (deterministic) job id; it runs
        when the wave is drained."""
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
            self._pending.append(_Pending(request, job_id, now))
        return job_id

    def _work(self, slot: _Pending):
        """Worker-thread body: compile + execute; the rest is the barrier's.

        The ``scheduler.worker`` fault point simulates the worker dying
        before it makes progress; the engine's own failure paths released
        everything on the way out, so restarting the attempt in place is
        exactly what the cluster's task rescheduler would do.
        """
        try:
            for attempt in range(WORKER_RETRIES + 1):
                try:
                    self.faults.fire(fault_points.SCHEDULER_WORKER)
                    return self._attempt(slot)
                except InjectedCrash:
                    if attempt >= WORKER_RETRIES:
                        raise
                    self.recorder.inc("scheduler.worker_retries")
                    self.recorder.event(
                        obs_events.WORKER_RETRIED, at=slot.submitted_at,
                        job_id=slot.job_id,
                        virtual_cluster=slot.request.virtual_cluster,
                        attempt=attempt + 1)
            raise AssertionError("unreachable")  # pragma: no cover
        finally:
            slot.compiled.set()  # a job that never compiled frees its turn

    def _attempt(self, slot: _Pending):
        if slot.error is not None:
            raise slot.error
        request, now = slot.request, slot.submitted_at
        compiled = self.engine.compile(
            request.sql,
            params=request.params,
            virtual_cluster=request.virtual_cluster,
            reuse_enabled=slot.fetched is not None,
            now=now,
            job_id=slot.job_id,
            # Compiles overlap; only build locks are taken in turn, so
            # which job of a wave builds a view is its earliest proposer
            # and not the thread that got there first.
            before_view_lock=slot.wait_for_earlier,
            planned=slot.planned,
            prepared=slot.fetched,
        )
        slot.compiled.set()
        return self.engine.execute(compiled, now=now)

    def _open(self, pending: List[_Pending]) -> None:
        """Open a wave: plan each job here, in submission order -- a job
        that fails to plan, or runs without reuse, asks for no tags --
        fetch the rest's annotations as one lookup frame per owning
        shard, then hand compile and execute to the pool."""
        asking: List[_Pending] = []
        for index, slot in enumerate(pending):
            request = slot.request
            slot.earlier = [other.compiled for other in pending[:index]]
            try:
                slot.planned = self.engine.logical_plan(request.sql,
                                                        request.params)
            except Exception as error:  # per-job isolation boundary
                slot.error = error
                continue
            if request.reuse_enabled and (
                    self.reuse_gate is None
                    or self.reuse_gate(request.virtual_cluster)):
                asking.append(slot)
        for slot, fetched in zip(asking, self.engine.insights.fetch_wave(
                [(slot.planned[1], slot.submitted_at) for slot in asking])):
            slot.fetched = fetched
        for slot in pending:
            slot.future = self._pool.submit(self._work, slot)

    # ------------------------------------------------------------------ #
    # collection barrier

    def drain(self, now: float = 0.0) -> List[JobResult]:
        """Run the wave: open it (:meth:`_open`), wait for every job,
        then complete them in submission order.

        Sealing while a sibling still compiles would let thread timing
        pick what that sibling reuses; nothing of the wave is sealed or
        recorded until all of it has executed.
        """
        with self._mutex:
            pending, self._pending = self._pending, []
        # The wave is one commit group: its records commit once the
        # completion pass has sealed everything the wave built.
        with self.engine.commit_group():
            self._open(pending)
            wait([slot.future for slot in pending])
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
                        slot.request.virtual_cluster, slot.submitted_at,
                        error))
                else:
                    self.engine.finish(run, at=now)
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

    def run_batch(self, requests: List[JobRequest],
                  now: float = 0.0) -> List[JobResult]:
        """Submit a batch and drain it: one wave, results in batch order."""
        for request in requests:
            self.submit(request, now=now)
        return self.drain(now=now)

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
