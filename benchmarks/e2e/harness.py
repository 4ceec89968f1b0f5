"""One repeat of one workload: set up, run the timed window, measure.

Everything here runs inside the repeat's own child process (see
``run.py``) and drives the program only through ``repro.api.Session``.
The same :class:`Driver` executes the event stream for the timed run,
the traced run and -- in ``verify.py`` -- the reference run.
"""

from __future__ import annotations

import gc
import hashlib
import math
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api import (
    JobRequest,
    LifecycleConfig,
    MultiLevelControls,
    SchedulerConfig,
    Session,
    SessionConfig,
    ShardConfig,
)
from repro.scheduler.simulation import ConcurrentSimulationConfig

from layers import layer_metrics
from trace import SPAWN_TARGETS, TRACE, Tracer, layer_targets
from workloads import (
    FORGET_DATASET,
    SECONDS_PER_DAY,
    SELECTION_WINDOW_DAYS,
    Event,
    Job,
    WorkloadSpec,
    build_workload,
    event_stream,
    install_datasets,
    keep_after_forget,
)

HERE = os.path.dirname(os.path.abspath(__file__))
#: Journals and shard sockets of running repeats; inside the checkout,
#: removed when the repeat ends.
WORK_ROOT = os.path.join(HERE, ".work")
#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
# AF_UNIX paths cap near 107 bytes; "/sNN.sock" is appended to ours.
_MAX_SOCKET_DIR = 90


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; refuses one the sample cannot support."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples leaves "
            f"{max(0, len(ordered) - rank)} beyond it; "
            f"{MIN_SAMPLES_BEYOND} required")
    return ordered[rank - 1]


# --------------------------------------------------------------------- #
# sessions

def _controls(workload) -> MultiLevelControls:
    # The default deployment mode is OPT_IN: without this nothing is
    # ever reused.
    controls = MultiLevelControls()
    for vc in workload.virtual_clusters:
        controls.enable_vc(vc)
    return controls


def open_session(spec: WorkloadSpec, workload, workdir: str) -> Session:
    """The deployment ``spec`` describes, wired through ``Session``."""
    config = SessionConfig()
    if spec.shards:
        sockets = os.path.join(workdir, "shards")
        os.makedirs(sockets)
        # Relative to the working directory the path stays short however
        # deep the checkout sits.
        relative = os.path.relpath(sockets)
        if len(relative) > _MAX_SOCKET_DIR:
            raise RuntimeError(f"shard socket directory {relative!r} is too "
                               "long for AF_UNIX; run from the checkout root")
        config.shard = ShardConfig(shards=spec.shards, socket_dir=relative)
    return Session(
        config=config,
        backend=spec.backend,
        controls=_controls(workload),
        selection_algorithm="bigsubs",
        policy=ConcurrentSimulationConfig().policy,
        scheduler_config=(SchedulerConfig(workers=spec.workers)
                          if spec.workers else None),
        lifecycle=(LifecycleConfig(
            journal_dir=os.path.join(workdir, "journal"))
            if spec.durable else None),
    )


def open_reference_session(spec: WorkloadSpec, workload) -> Session:
    """Serial, in-process, on the other backend; jobs run reuse-free."""
    return Session(backend=spec.reference_backend,
                   controls=_controls(workload))


# --------------------------------------------------------------------- #
# the event executor

@dataclass
class RunLog:
    """What one window produced; filled by :class:`Driver`."""

    events: List[Event] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reusing: int = 0
    wall_s: List[float] = field(default_factory=list)
    #: (job, rows) of sampled jobs; rows kept by reference, hashed later.
    samples: List[Tuple[Job, list]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: Wall seconds of the window, calibration slices excluded; the same
    #: scaled to the reference machine; CPU seconds spent in them, by this
    #: process and by the shard workers.
    window_s: float = 0.0
    scaled_s: float = 0.0
    own_cpu_s: float = 0.0
    worker_cpu_s: float = 0.0
    # Sums the traced run reads off each JobResult.
    plan_nodes: int = 0
    rows_in: int = 0
    rows_out: int = 0
    bytes_read: int = 0
    views_matched: int = 0
    views_proposed: int = 0

    @property
    def machine_speed(self) -> float:
        """Below 1: the machine ran slower than the reference."""
        return self.scaled_s / self.window_s


class Driver:
    """Executes events against one session.

    ``reference=True`` replays for verification: data events apply as in
    the timed run, only sampled jobs run, each serially and reuse-free,
    and the feedback loop stays off.
    """

    def __init__(self, session: Session, workload, spec: WorkloadSpec,
                 tracer: Optional[Tracer] = None,
                 reference: bool = False) -> None:
        self.session = session
        self.workload = workload
        self.spec = spec
        self.tracer = tracer
        self.reference = reference

    def step(self, event: Event, log: RunLog) -> None:
        kind = event.kind
        session = self.session
        if kind in ("job", "wave"):
            if self.reference or kind == "job":
                for job in event.jobs:
                    if job.sampled or not self.reference:
                        self._run_one(job, log)
            else:
                self._run_wave(event, log)
        elif kind == "install":
            install_datasets(self.workload, session.engine)
        elif kind == "cook":
            self.workload.cook(session.engine, event.day)
        elif kind == "forget":
            session.engine.gdpr_forget(FORGET_DATASET, keep_after_forget,
                                       at=event.now)
        elif self.reference or kind == "day_end":
            pass  # view housekeeping means nothing to a reuse-free replay
        elif kind == "evict":
            session.evict_expired(event.now)
        elif kind == "gc":
            session.gc_sweep(event.now)
        elif kind == "select":
            session.analyze_and_publish(
                event.now - SELECTION_WINDOW_DAYS * SECONDS_PER_DAY,
                event.now)
        else:
            raise ValueError(f"unknown event kind {kind!r}")

    def _run_one(self, job: Job, log: RunLog) -> None:
        reuse_off = self.reference or not self.spec.reuse
        span = self.tracer.begin("harness.job") if self.tracer else None
        started = time.perf_counter()
        try:
            result = self.session.run(
                job.sql, params=dict(job.params),
                virtual_cluster=job.virtual_cluster,
                template_id=job.template_id, pipeline_id=job.pipeline_id,
                reuse_override=False if reuse_off else None,
                now=job.submit_time)
        except Exception as error:  # a failed job is a counted outcome
            result = None
            log.errors.append(f"job {job.ordinal}: {error!r}")
        wall = time.perf_counter() - started
        if span is not None:
            self.tracer.end(span)
            span[TRACE] = result.job_id if result is not None else None
        self._record(job, result, wall, log)

    def _run_wave(self, event: Event, log: RunLog) -> None:
        requests = [JobRequest(
            sql=job.sql, params=dict(job.params),
            virtual_cluster=job.virtual_cluster,
            template_id=job.template_id, pipeline_id=job.pipeline_id)
            for job in event.jobs]
        span = (self.tracer.begin("harness.wave", f"wave-d{event.day}")
                if self.tracer else None)
        started = time.perf_counter()
        results = self.session.run_batch(requests, now=event.now)
        # Every job of a wave becomes visible to the caller at the
        # barrier, so each gets the wave's submit-to-barrier time.
        wall = time.perf_counter() - started
        if span is not None:
            self.tracer.end(span)
        for job, result in zip(event.jobs, results):
            self._record(job, result, wall, log)

    def _record(self, job: Job, result, wall: float, log: RunLog) -> None:
        log.attempted += 1
        log.wall_s.append(wall)
        if result is None or not result.ok:
            log.failed += 1
            if result is not None:
                log.errors.append(f"job {job.ordinal}: {result.error}")
            return
        if result.views_reused >= 1:
            log.reusing += 1
        if job.sampled:
            log.samples.append((job, result.rows))
        if self.tracer is not None:
            log.views_matched += result.views_reused
            log.views_proposed += result.views_built
            log.plan_nodes += sum(1 for _ in result.compiled.plan.walk())
            for _, stats in result.run.result.node_stats:
                log.rows_in += stats.rows_in
                log.rows_out += stats.rows_out
                log.bytes_read += stats.bytes_out


# --------------------------------------------------------------------- #
# process accounting

def _shard_pids() -> List[int]:
    return [child.pid for child in multiprocessing.active_children()
            if child.pid is not None]


def _proc_cpu_seconds(pids: Sequence[int]) -> float:
    """User+system CPU of live processes, from ``/proc`` (0 elsewhere)."""
    ticks = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                after_name = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        ticks += int(after_name[11]) + int(after_name[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_kb(pids: Sequence[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total


@dataclass
class Counters:
    """Program-side counters read at the window's edges."""

    cache_hits: int
    cache_misses: int
    degraded_fetches: int
    store: Dict[str, int]
    waves: int

    @classmethod
    def read(cls, session: Session) -> "Counters":
        client = session.insights
        return cls(client.cache_hits, client.cache_misses,
                   client.degraded_fetches,
                   session.engine.view_store.counters(),
                   session.scheduler.waves)


# --------------------------------------------------------------------- #
# machine-speed calibration

#: Kernel passes per second on the sandbox the workloads were sized on.
#: Times are reported as on a machine that runs the kernel at this rate.
REFERENCE_RATE = 3400.0
#: Work seconds between two calibration slices.
CALIBRATE_EVERY_S = 0.25


class Calibrator:
    """A fixed pure-Python kernel, run between segments of the work.

    The sandboxes this runs on change speed by a factor of up to 1.5
    within seconds and drift as much over minutes (a spin loop holding
    99% of a core measures it; process CPU time inflates with wall time,
    so it is the machine, not waiting).  Ten raw wall-clock runs of one
    workload spread by 14-37% (``baseline/spread_10_seeds_raw.json``),
    more than any bound could enforce, so the harness measures the
    machine while it measures the program: every ``CALIBRATE_EVERY_S`` of
    work the clock stops for one slice (~12 ms) of this kernel -- row
    dicts filtered, grouped, sorted and hashed, the mix the program
    itself runs.  The *machine speed* of a window is the time-weighted
    mean of ``rate / REFERENCE_RATE`` over its segments, and every
    reported time is the measured one times that speed.  A single slice
    is far too jittery to scale a single job by; the mean over a window's
    ~50 is not.
    """

    PASSES = 40

    def __init__(self) -> None:
        rng = random.Random(0)
        self._rows = [{"k": rng.randrange(64), "v": rng.random()}
                      for _ in range(2000)]

    def rate(self) -> float:
        """Passes per second over one slice.  A plain mean, jitter and
        all: the program's own work meets the same jitter."""
        rows = self._rows
        started = time.perf_counter()
        for _ in range(self.PASSES):
            groups: Dict[int, float] = {}
            for row in rows:
                if row["v"] > 0.25:
                    groups[row["k"]] = groups.get(row["k"], 0.0) + row["v"]
            ordered = sorted(groups.items(), key=lambda kv: kv[1])
            hashlib.sha256(repr(ordered).encode("ascii")).digest()
        return self.PASSES / (time.perf_counter() - started)


# --------------------------------------------------------------------- #
# one repeat

@dataclass
class Repeat:
    """Everything one child process measured."""

    setup_s: float
    log: Optional[RunLog] = None
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)
    #: Live ``catalog_digest`` before ``close()`` and where its journal
    #: is (durable workloads; the directory is the caller's to remove).
    live_digest: Optional[str] = None
    journal_dir: Optional[str] = None


def make_workdir() -> str:
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="r", dir=WORK_ROOT)


def remove_workdir(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)  # only when no other repeat is using it
    except OSError:
        pass


def _through_day_end(events: Iterator[Event]) -> Iterator[Event]:
    """The events up to and including the next ``day_end``; the rest
    stays in ``events``."""
    for event in events:
        yield event
        if event.kind == "day_end":
            return


def run_events(driver: Driver, events: Iterator[Event], log: RunLog,
               calibrator: Calibrator, shard_pids: Sequence[int]
               ) -> Tuple[float, float]:
    """Execute ``events`` to the end; returns the ``perf_counter`` span.

    The work is cut into segments of ``CALIBRATE_EVERY_S``; between two
    the clock stops for one calibration slice.  A segment adds its wall
    seconds to ``log.window_s``, the same times the machine speed at its
    two ends to ``log.scaled_s``, and its CPU seconds (this process's,
    and the shard workers' from ``/proc``).
    """
    def cpu_now() -> Tuple[float, float]:
        return time.process_time(), _proc_cpu_seconds(shard_pids)

    def close_segment(now: float) -> None:
        nonlocal rate, cpu, segment_start
        cpu_end = cpu_now()
        next_rate = calibrator.rate()
        wall = now - segment_start
        log.window_s += wall
        log.scaled_s += wall * (rate + next_rate) / 2.0 / REFERENCE_RATE
        log.own_cpu_s += cpu_end[0] - cpu[0]
        log.worker_cpu_s += cpu_end[1] - cpu[1]
        rate, cpu, segment_start = next_rate, cpu_now(), time.perf_counter()

    rate = calibrator.rate()
    cpu = cpu_now()
    started = segment_start = time.perf_counter()
    for event in events:
        log.events.append(event)
        driver.step(event, log)
        now = time.perf_counter()
        if now - segment_start >= CALIBRATE_EVERY_S:
            close_segment(now)
    ended = time.perf_counter()
    close_segment(ended)
    return started, ended


def run_repeat(spec: WorkloadSpec, seed: int, workdir: str,
               spawned_at: float, traced: bool = False,
               setup_only: bool = False,
               trace_out: Optional[str] = None) -> Repeat:
    """Set up, then run the timed window: days 1 .. ``spec.days`` - 1.

    ``spawned_at`` (``time.time()`` in the parent, just before it started
    this process) is where ``setup_s`` starts: interpreter start-up and
    imports are part of what a user waits for.
    """
    tracer = Tracer() if traced else None
    workload = build_workload(spec, seed)
    events = event_stream(spec, workload, seed)
    log = RunLog()
    try:
        if tracer:
            tracer.install(SPAWN_TARGETS)
        with open_session(spec, workload, workdir) as session:
            if tracer:
                tracer.install(layer_targets(type(session.backend)))
            driver = Driver(session, workload, spec, tracer)
            shard_pids = _shard_pids()
            calibrator = Calibrator()
            before_warmup_s = time.time() - spawned_at
            warmup = RunLog()
            run_events(driver, _through_day_end(events), warmup, calibrator,
                       shard_pids)
            if warmup.failed:
                raise RuntimeError(f"warm-up failed: {warmup.errors[:3]}")
            gc.collect()
            # Process start, imports and Session are scaled by the speed
            # the warm-up right after them saw.
            repeat = Repeat(setup_s=(before_warmup_s + warmup.window_s)
                            * warmup.machine_speed)
            if setup_only:
                return repeat
            repeat.log = log
            before = Counters.read(session)
            window = run_events(driver, events, log, calibrator, shard_pids)
            after = Counters.read(session)
            peak_rss_kb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + _proc_peak_rss_kb(shard_pids))
            if spec.durable:
                repeat.live_digest = session.catalog_digest()
                repeat.journal_dir = os.path.join(workdir, "journal")
    finally:
        if tracer:
            tracer.restore()
    repeat.end_to_end = end_to_end_metrics(log, peak_rss_kb, repeat.setup_s)
    repeat.details = {
        "window_s": log.window_s,
        "machine_speed": log.machine_speed,
        "raw_jobs_per_s": log.attempted / log.window_s,
        "jobs": log.attempted,
        "p95_samples_beyond": log.attempted - math.ceil(
            0.95 * log.attempted),
    }
    if tracer:
        spans = tracer.spans()
        repeat.per_layer = layer_metrics(spans, window, log, before, after,
                                         spec)
        if trace_out:
            tracer.dump(trace_out, spans)
    return repeat


def end_to_end_metrics(log: RunLog, peak_rss_kb: int,
                       setup_s: float) -> Dict[str, float]:
    """Times are the measured ones scaled to the reference machine.

    Raises ``ValueError`` when the window holds too few jobs for p95: an
    unsupported percentile is not reported.
    """
    speed = log.machine_speed
    wall_ms = [wall * speed * 1000.0 for wall in log.wall_s]
    return {
        "jobs_per_s": log.attempted / log.scaled_s,
        "job_wall_p50_ms": statistics.median(wall_ms),
        "job_wall_p95_ms": percentile(wall_ms, 0.95),
        "cpu_ms_per_job": ((log.own_cpu_s + log.worker_cpu_s) * speed
                           * 1000.0 / log.attempted),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "setup_s": setup_s,
    }
