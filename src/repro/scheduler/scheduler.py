"""Job scheduler: a wave is a call, with deterministic results.

Production SCOPE compiles hundreds of jobs concurrently against the
insights service.  Here that concurrency lives in simulated time (the
cluster simulator); :meth:`JobScheduler.drain` runs one caller's list of
jobs as a wave over one engine, on the calling thread, with two
invariants:

* **Per-job isolation** -- an exception inside one job's plan, compile
  or execute is captured into its
  :class:`~repro.scheduler.results.JobResult`; sibling jobs and the
  scheduler itself are unaffected, and the engine's failure paths (lock
  release, view abandonment) run as usual.

* **Deterministic collection** -- a wave is a barrier, and its members
  are exactly the caller's list.  Job ids are drawn in list order as
  the wave opens.  :meth:`drain` plans every job and fetches the wave's
  annotations as one lookup frame per owning insights shard (answered as
  one-by-one fetches would be, :meth:`InsightsClient.fetch_wave`); then
  compiles and executes each job in turn; then runs one completion pass
  (seal the run's views, record its history, build its result).  No job
  of a wave can therefore see a view a sibling built -- sharing inside a
  wave is the multi-query-optimization setting, which this reproduction
  leaves out.  The insights service's atomic lock table is still the
  only buildout guard (one producer per strict signature); the jobs of
  a wave compile one after another, so they ask it in list order and
  the producer is the earliest proposer.  A wave's lock outcomes, its
  ``scheduler.worker`` and ``backend.*`` fault draws and its journal
  records therefore fall in list order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.errors import ConfigError, InjectedCrash
from repro.engine.engine import JobRun, ScopeEngine
from repro.faults import points as fault_points
from repro.faults.runtime import NULL_FAULTS
from repro.insights.service import Fetched
from repro.obs import events as obs_events
from repro.scheduler.results import JobResult

#: A job whose task is killed by an injected crash (``scheduler.worker``)
#: is restarted in place this many times -- modelling the cluster
#: rescheduling a dead task -- before the job fails for real.
WORKER_RETRIES = 2


@dataclass(kw_only=True)
class SchedulerConfig:
    """Settings of the :class:`JobScheduler`."""

    #: Validated and kept for callers that still set it; it sizes
    #: nothing, since a wave runs on the thread that drains it.
    workers: int = 4

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


@dataclass
class JobRequest:
    """One job of a wave."""

    sql: str
    params: Dict[str, object] = field(default_factory=dict)
    virtual_cluster: str = "default"
    reuse_enabled: bool = True
    #: Pre-assigned id; drawn from ``engine.next_job_id()`` as the wave
    #: opens when omitted.
    job_id: Optional[str] = None
    #: Recurring-job identity for workload analysis.  Batch submissions
    #: that leave these empty are recorded as one-off ad-hoc jobs and
    #: never feed view selection.
    template_id: str = ""
    pipeline_id: str = ""


@dataclass
class _Pending:
    """List-order slot of one job of a wave."""

    request: JobRequest
    job_id: str
    submitted_at: float
    #: Filled when the wave opens (:meth:`JobScheduler._open`): the job's
    #: plan or why planning failed, and its fetch answer (``None``: the
    #: job runs without reuse).
    planned: Optional[tuple] = None
    error: Optional[Exception] = None
    fetched: Optional[Fetched] = None
    #: Filled when the job has run: its run, or ``error`` says why not.
    run: Optional[JobRun] = None


class JobScheduler:
    """Wave runner over one :class:`ScopeEngine`::

        results = JobScheduler(engine).drain(
            [JobRequest(sql=sql) for sql in batch], now=now)

    Each call of :meth:`drain` is its own wave.
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
        #: Waves drained so far (an empty list is no wave).
        self.waves = 0
        #: The session's fault runtime; ``Session(faults=...)`` installs
        #: a live one so the ``scheduler.worker`` death seam can fire.
        self.faults = NULL_FAULTS

    def _work(self, slot: _Pending) -> JobRun:
        """One job's compile + execute; the rest is the completion pass's.

        The ``scheduler.worker`` fault point simulates the job's task
        dying before it makes progress; the engine's own failure paths
        released everything on the way out, so restarting the attempt in
        place is exactly what the cluster's task rescheduler would do.
        """
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

    def _attempt(self, slot: _Pending) -> JobRun:
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
            planned=slot.planned,
            prepared=slot.fetched,
        )
        return self.engine.execute(compiled, now=now)

    def _open(self, pending: List[_Pending]) -> None:
        """Open a wave: plan each job, in list order -- a job that
        fails to plan, or runs without reuse, asks for no tags -- and
        fetch the rest's annotations as one lookup frame per owning
        shard."""
        asking: List[_Pending] = []
        for slot in pending:
            request = slot.request
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

    def drain(self, requests: Sequence[JobRequest],
              now: float = 0.0) -> List[JobResult]:
        """Run ``requests`` as one wave on this thread, results in list
        order: draw the job ids, open the wave (:meth:`_open`), compile
        and execute each job, then complete each job.

        Nothing of the wave is sealed or recorded until all of it has
        executed, so no job reuses a view a sibling of its wave built.
        """
        pending = [_Pending(request,
                            request.job_id or self.engine.next_job_id(), now)
                   for request in requests]
        # The wave is one commit group: its records commit once the
        # completion pass has sealed everything the wave built.
        with self.engine.commit_group():
            self._open(pending)
            for slot in pending:
                try:
                    slot.run = self._work(slot)
                except Exception as error:  # per-job isolation boundary
                    slot.error = error
            results: List[JobResult] = []
            for slot in pending:
                if slot.run is not None:
                    self.engine.finish(slot.run, at=now)
                    results.append(JobResult.from_run(slot.run))
                    continue
                error = slot.error
                self.recorder.inc("scheduler.jobs.failed")
                self.recorder.event(
                    obs_events.JOB_FAILED, at=now, job_id=slot.job_id,
                    virtual_cluster=slot.request.virtual_cluster,
                    error=str(error) or type(error).__name__,
                    error_type=type(error).__name__,
                )
                results.append(JobResult.from_failure(
                    slot.job_id, slot.request.sql,
                    slot.request.virtual_cluster, now, error))
        if pending:
            self.waves += 1
            self.recorder.inc("scheduler.waves")
            self.recorder.event(
                obs_events.SCHEDULER_WAVE, at=now,
                job_id=f"wave-{self.waves}",
                jobs=len(pending),
                failures=sum(not result.ok for result in results))
        return results
