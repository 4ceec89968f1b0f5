"""Discrete-event cluster simulator.

Models the Cosmos execution environment the paper measures against:

* **virtual clusters** with guaranteed container quotas ("a sub-cluster
  that is dedicated for one particular customer or business unit");
* **job queues**: "users submit their jobs and they are queued until there
  are enough resources available for them to be scheduled" (Section 3.8);
* **opportunistic bonus containers**: "allocate unused resources
  opportunistically to jobs in case they could use them"; work done on
  them is *bonus processing time* (Section 3.4);
* **early sealing**: a spool-writer stage completing notifies the engine
  so the view becomes reusable before the producing job finishes.

The simulator is a co-simulation driver: a job *arrival* invokes a factory
callback (which compiles and row-executes the job against the engine at
that simulated moment), and the resulting stage DAG is then scheduled.
Events at equal timestamps process completions before arrivals, so a view
sealed at time *t* is visible to a job compiled at time *t*.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.stages import Stage, StageGraph
from repro.common.errors import SchedulingError
from repro.obs import events as obs_events
from repro.obs.recorder import NULL_RECORDER

#: Work units one container completes per simulated second.
DEFAULT_WORK_RATE = 500.0
#: Fixed startup cost per stage launch, in seconds.
DEFAULT_CONTAINER_STARTUP = 2.0


@dataclass
class SimulatedJob:
    """A job handed to the simulator, with its observed I/O numbers."""

    job_id: str
    virtual_cluster: str
    submit_time: float
    graph: StageGraph
    input_rows: int = 0
    input_bytes: int = 0
    data_read_bytes: int = 0
    views_built: int = 0
    views_reused: int = 0
    #: Called with (stage, time) when a spool-writer stage completes.
    on_spool_sealed: Optional[Callable[[Stage, float], None]] = None
    #: Called with (job, telemetry) when every stage has completed.
    on_complete: Optional[Callable[["SimulatedJob", "JobTelemetry"], None]] = None


@dataclass
class JobTelemetry:
    """Per-job numbers matching the paper's production metrics."""

    job_id: str
    virtual_cluster: str
    submit_time: float
    start_time: float = 0.0
    finish_time: float = 0.0
    processing_time: float = 0.0
    bonus_processing_time: float = 0.0
    containers: int = 0
    input_rows: int = 0
    input_bytes: int = 0
    data_read_bytes: int = 0
    queue_length_at_submit: int = 0
    views_built: int = 0
    views_reused: int = 0

    @property
    def latency(self) -> float:
        return self.finish_time - self.submit_time

    @property
    def queue_wait(self) -> float:
        return self.start_time - self.submit_time


JobFactory = Callable[[float], Optional[SimulatedJob]]

# Event kinds, ordered so completions at time t precede arrivals at t.
_STAGE_DONE = 0
_ARRIVAL = 1


class ClusterSimulator:
    """Schedules stage DAGs over a container pool with VC quotas."""

    def __init__(self,
                 total_containers: int = 200,
                 vc_quotas: Optional[Dict[str, int]] = None,
                 work_rate: float = DEFAULT_WORK_RATE,
                 container_startup: float = DEFAULT_CONTAINER_STARTUP,
                 vc_job_slots: int = 8,
                 job_overhead_seconds: float = 0.0,
                 recorder=NULL_RECORDER):
        if total_containers <= 0:
            raise SchedulingError("cluster needs at least one container")
        self.total_containers = total_containers
        self.vc_quotas = dict(vc_quotas or {})
        self.work_rate = work_rate
        self.container_startup = container_startup
        #: Concurrent-job admission limit per virtual cluster: jobs beyond
        #: it "are queued until there are enough resources available for
        #: them to be scheduled" (Section 3.8).
        self.vc_job_slots = vc_job_slots
        #: Fixed per-job prologue (compilation, job-manager spin-up) spent
        #: after admission, before any stage can run.  Affects latency but
        #: holds no containers.
        self.job_overhead_seconds = job_overhead_seconds

        self._events: List[Tuple[float, int, int, object]] = []
        self._seq = itertools.count()
        self._free = total_containers
        self._vc_used: Dict[str, int] = {}
        self._waiting: Dict[str, deque] = {}
        self._admit_queue: Dict[str, deque] = {}
        self._slots_used: Dict[str, int] = {}
        self._telemetry: Dict[str, JobTelemetry] = {}
        self._jobs: Dict[str, _JobState] = {}
        self.completed: List[JobTelemetry] = []
        self.now = 0.0
        self._running = False
        #: Flight recorder; the simulator drives its simulated clock.
        self.recorder = recorder

    # ------------------------------------------------------------------ #
    # submission

    def submit(self, job: SimulatedJob) -> None:
        """Submit a fully built job at its submit_time."""
        self.add_arrival(job.submit_time, lambda now, j=job: j)

    def add_arrival(self, time: float, factory: JobFactory) -> None:
        """Schedule a factory to run at ``time`` (co-simulation hook).

        The factory may return ``None`` to signal that no job materialized
        (e.g. compilation skipped).
        """
        heapq.heappush(self._events,
                       (time, _ARRIVAL, next(self._seq), factory))

    # ------------------------------------------------------------------ #
    # main loop

    def run(self) -> List[JobTelemetry]:
        """Process every event; returns telemetry in completion order.

        The discrete-event loop is strictly single-threaded (determinism
        depends on total event ordering); the guard below catches the
        misuse of driving one simulator from two threads.
        """
        if self._running:
            raise SchedulingError(
                "ClusterSimulator.run() is not reentrant: the event loop "
                "is single-threaded by design")
        self._running = True
        try:
            while self._events:
                time, kind, _, payload = heapq.heappop(self._events)
                self.now = max(self.now, time)
                self.recorder.advance_to(self.now)
                if kind == _ARRIVAL:
                    self._handle_arrival(payload)
                else:
                    self._handle_stage_done(payload)
                self._schedule_waiting()
        finally:
            self._running = False
        return self.completed

    # ------------------------------------------------------------------ #
    # event handlers

    def _handle_arrival(self, factory: JobFactory) -> None:
        job = factory(self.now)
        if job is None:
            return
        vc = job.virtual_cluster
        admit_queue = self._admit_queue.setdefault(vc, deque())
        telemetry = JobTelemetry(
            job_id=job.job_id,
            virtual_cluster=vc,
            submit_time=self.now,
            queue_length_at_submit=len(admit_queue),
            input_rows=job.input_rows,
            input_bytes=job.input_bytes,
            data_read_bytes=job.data_read_bytes,
            views_built=job.views_built,
            views_reused=job.views_reused,
        )
        state = _JobState(job=job, telemetry=telemetry)
        state.span = self.recorder.start_span(
            "cluster.schedule", trace_id=job.job_id, at=self.now,
            virtual_cluster=vc, stages=len(job.graph.stages))
        self.recorder.observe("cluster.queue_length_at_submit",
                              len(admit_queue))
        for stage in job.graph.stages:
            state.remaining_deps[stage.stage_id] = len(stage.dependencies)
        self._jobs[job.job_id] = state
        self._telemetry[job.job_id] = telemetry
        if self._slots_used.get(vc, 0) < self.vc_job_slots:
            self._admit(state)
        else:
            admit_queue.append(job.job_id)

    def _admit(self, state: "_JobState") -> None:
        """Grant the job its VC slot; its root stages become schedulable
        after the fixed job prologue."""
        job = state.job
        vc = job.virtual_cluster
        self._slots_used[vc] = self._slots_used.get(vc, 0) + 1
        state.admitted = True
        if self.job_overhead_seconds > 0:
            heapq.heappush(self._events, (
                self.now + self.job_overhead_seconds, _STAGE_DONE,
                next(self._seq), ("__ready__", job.job_id)))
            return
        self._make_ready(state)

    def _make_ready(self, state: "_JobState") -> None:
        job = state.job
        queue = self._waiting.setdefault(job.virtual_cluster, deque())
        for stage in job.graph.roots():
            queue.append((job.job_id, stage.stage_id))
        if not job.graph.stages:
            self._finish_job(state)

    def _handle_stage_done(self, payload: object) -> None:
        if payload[0] == "__ready__":  # job prologue finished
            state = self._jobs.get(payload[1])
            if state is not None:
                self._make_ready(state)
            return
        job_id, stage_id, guaranteed, bonus = payload  # type: ignore[misc]
        state = self._jobs[job_id]
        job = state.job
        vc = job.virtual_cluster
        self._vc_used[vc] = self._vc_used.get(vc, 0) - guaranteed
        self._free += guaranteed + bonus
        stage = job.graph.stages[stage_id]
        state.completed.add(stage_id)
        if stage.is_spool_writer and job.on_spool_sealed is not None:
            job.on_spool_sealed(stage, self.now)
        # Wake dependents.
        queue = self._waiting.setdefault(vc, deque())
        for dependent in job.graph.stages:
            if stage_id in dependent.dependencies:
                state.remaining_deps[dependent.stage_id] -= 1
                if state.remaining_deps[dependent.stage_id] == 0:
                    queue.append((job_id, dependent.stage_id))
        if len(state.completed) == len(job.graph.stages):
            self._finish_job(state)

    def _finish_job(self, state: "_JobState") -> None:
        telemetry = state.telemetry
        telemetry.finish_time = self.now
        if not state.started:
            telemetry.start_time = self.now
            state.started = True
        self.completed.append(telemetry)
        state.span.annotate("containers", telemetry.containers)
        state.span.annotate("processing_time", telemetry.processing_time)
        state.span.finish(at=self.now)
        self.recorder.inc("cluster.jobs.completed")
        self.recorder.observe("cluster.job.latency", telemetry.latency)
        self.recorder.observe("cluster.job.queue_wait", telemetry.queue_wait)
        self.recorder.event(
            obs_events.JOB_FINISHED, at=self.now, job_id=telemetry.job_id,
            virtual_cluster=telemetry.virtual_cluster,
            submit_time=telemetry.submit_time,
            start_time=telemetry.start_time,
            finish_time=telemetry.finish_time,
            processing_time=telemetry.processing_time,
            bonus_processing_time=telemetry.bonus_processing_time,
            containers=telemetry.containers,
            input_rows=telemetry.input_rows,
            input_bytes=telemetry.input_bytes,
            data_read_bytes=telemetry.data_read_bytes,
            queue_length_at_submit=telemetry.queue_length_at_submit,
            views_built=telemetry.views_built,
            views_reused=telemetry.views_reused,
        )
        del self._jobs[state.job.job_id]
        # Release the VC slot and admit the next queued job, if any.
        vc = state.job.virtual_cluster
        self._slots_used[vc] = max(0, self._slots_used.get(vc, 0) - 1)
        admit_queue = self._admit_queue.setdefault(vc, deque())
        while admit_queue and self._slots_used.get(vc, 0) < self.vc_job_slots:
            next_id = admit_queue.popleft()
            next_state = self._jobs.get(next_id)
            if next_state is not None:
                self._admit(next_state)
        if state.job.on_complete is not None:
            state.job.on_complete(state.job, telemetry)

    # ------------------------------------------------------------------ #
    # scheduling

    def _schedule_waiting(self) -> None:
        """Start every waiting stage that can get at least one container."""
        progress = True
        while progress:
            progress = False
            for vc in list(self._waiting):
                queue = self._waiting[vc]
                if not queue:
                    continue
                job_id, stage_id = queue[0]
                if self._try_start(vc, job_id, stage_id):
                    queue.popleft()
                    progress = True

    def _try_start(self, vc: str, job_id: str, stage_id: int) -> bool:
        state = self._jobs.get(job_id)
        if state is None:
            return True  # job vanished (defensive); drop the entry
        stage = state.job.graph.stages[stage_id]
        want = stage.partitions
        quota = self.vc_quotas.get(vc, self.total_containers)
        quota_free = max(0, quota - self._vc_used.get(vc, 0))
        guaranteed = min(want, quota_free, self._free)
        bonus = min(want - guaranteed, self._free - guaranteed)
        total = guaranteed + bonus
        if total <= 0:
            return False
        self._vc_used[vc] = self._vc_used.get(vc, 0) + guaranteed
        self._free -= total
        duration = self.container_startup + stage.work / (self.work_rate * total)
        telemetry = state.telemetry
        telemetry.processing_time += total * duration
        telemetry.bonus_processing_time += bonus * duration
        telemetry.containers += total
        if not state.started:
            state.started = True
            telemetry.start_time = self.now
        heapq.heappush(self._events, (
            self.now + duration, _STAGE_DONE, next(self._seq),
            (job_id, stage_id, guaranteed, bonus)))
        return True


@dataclass
class _JobState:
    job: SimulatedJob
    telemetry: JobTelemetry
    remaining_deps: Dict[int, int] = field(default_factory=dict)
    completed: set = field(default_factory=set)
    started: bool = False
    admitted: bool = False
    #: The job's ``cluster.schedule`` span (a null span when unrecorded).
    span: object = None
