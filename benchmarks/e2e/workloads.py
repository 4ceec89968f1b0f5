"""The four cooking workloads and the seeded event stream they run.

A workload is ``(generator, params, seed) -> events``: the parameters
below fix its *shape* (template mix, dimension tables, stream sizes,
deployment), the ``--seed`` fixes everything drawn at random inside that
shape (every timed day's fact rows, the ad-hoc queries, which jobs are
verified).  The shape comes from ``TEMPLATE_SEED``, not from ``--seed``:
which fragments the recurring jobs share is what makes ``cooking_small``
frontend-bound and ``cooking_large`` executor-bound, and the 60 users,
24 devices and 8 regions decide every filter's selectivity.  Drawn anew
per seed, the templates moved ``jobs_per_s`` by 25% between seeds and
the dimension rows by another 15% on the executor-bound workloads --
more than any bound this benchmark could then enforce.

The timed run, the traced run and the reference run all consume the
same :func:`event_stream`, so they cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.workload.generator import CookingWorkload, generate_workload

SECONDS_PER_DAY = 86400.0
VIRTUAL_CLUSTERS = 3
#: Seed of the template mix (see the module docstring).
TEMPLATE_SEED = 7
#: ``analyze_and_publish`` looks back this many days at each boundary.
SELECTION_WINDOW_DAYS = 3
#: One timed job in this many has its rows checked against the
#: reference backend.
SAMPLE_ONE_IN = 4
#: Never used while writing a change; a claimed gain must hold on it.
HELD_OUT_SEED = 11
#: ``burst_sharded_durable``: GDPR forget from this day on, before the
#: wave with this (0-based) index.
FORGET_FROM_DAY = 2
FORGET_BEFORE_WAVE = 6
FORGET_DATASET = "Sessions"


def keep_after_forget(row: Dict[str, object]) -> bool:
    """The erasure request: every tenth user asks to be forgotten."""
    return row["UserId"] % 10 != 0


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape parameters of one workload (never derived from the seed)."""

    name: str
    why: str
    templates_per_vc: int
    fact_rows_per_day: int
    #: D: day 0 is the warm-up, days 1 .. D-1 are the timed window.
    days: int
    backend: str = "memory"
    #: False: every job runs with ``reuse_override=False`` and the
    #: feedback loop never publishes.
    reuse: bool = True
    #: Insights-service shard processes; 0 = in-process service.
    shards: int = 0
    #: Scheduler threads and jobs per ``run_batch`` wave; 0 = serial
    #: ``Session.run``.
    workers: int = 0
    jobs_per_wave: int = 0
    #: Journal directory, a GC sweep per day boundary and a mid-day
    #: GDPR forget.
    durable: bool = False

    @property
    def reference_backend(self) -> str:
        """The *other* backend, which the verifier replays on."""
        return "sqlite" if self.backend == "memory" else "memory"


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="cooking_small",
        why=("Frontend-bound: 96 recurring templates over 300-row streams, "
             "so parse/sign/match/optimize dominate and executor work "
             "hardly shows."),
        templates_per_vc=32, fact_rows_per_day=300, days=31),
    WorkloadSpec(
        name="cooking_large",
        why=("Executor-bound: 48 templates over 6000-row streams with reuse "
             "on, so backends.execute_s is most of the wall and frontend "
             "work should not move it."),
        templates_per_vc=16, fact_rows_per_day=6000, days=7),
    WorkloadSpec(
        name="cooking_large_noreuse",
        why=("Bypass: cooking_large's inputs with reuse off for every job; "
             "the paper's baseline, flat under reuse-path changes, and "
             "joins instead of view scans in the executor."),
        templates_per_vc=16, fact_rows_per_day=6000, days=7, reuse=False),
    WorkloadSpec(
        name="burst_sharded_durable",
        why=("Every scale-out seam at once: SQLite backend, 2 shard "
             "processes over AF_UNIX RPC, 2 scheduler threads, 8-job waves, "
             "journal, GC sweeps and a daily GDPR forget."),
        templates_per_vc=32, fact_rows_per_day=1200, days=13,
        backend="sqlite",
        shards=2, workers=2, jobs_per_wave=8, durable=True),
)


def workload_named(name: str) -> WorkloadSpec:
    for spec in WORKLOADS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown workload {name!r}; choose from "
                   f"{[s.name for s in WORKLOADS]}")


def build_workload(spec: WorkloadSpec, seed: int) -> CookingWorkload:
    """``(generator, params, seed) -> data``: fixed shape, seeded data."""
    shape = generate_workload(
        name="e2e", seed=TEMPLATE_SEED, virtual_clusters=VIRTUAL_CLUSTERS,
        templates_per_vc=spec.templates_per_vc,
        fact_rows_per_day=spec.fact_rows_per_day)
    # CookingWorkload draws rows and ad-hoc queries from its ``seed``.
    return dataclasses.replace(shape, seed=seed)


def install_datasets(workload: CookingWorkload, engine) -> None:
    """Register the five datasets with the shape's rows.

    ``CookingWorkload.install`` draws the dimension tables and day 0's
    facts in one call; both belong to the shape (day 0 is the warm-up).
    The seeded facts arrive with ``cook`` from day 1 on.
    """
    dataclasses.replace(workload, seed=TEMPLATE_SEED).install(engine, at=0.0)


@dataclass(frozen=True)
class Job:
    """One submission, as the harness hands it to ``Session``."""

    ordinal: int
    day: int
    sql: str
    params: Tuple[Tuple[str, object], ...]
    virtual_cluster: str
    template_id: str
    pipeline_id: str
    submit_time: float
    #: Rows of this job are checked against the reference backend.
    sampled: bool


@dataclass(frozen=True)
class Event:
    """One step of a run.

    ``kind`` is one of ``install``, ``cook``, ``evict``, ``gc``,
    ``select``, ``forget``, ``job`` (serial, one job), ``wave``
    (``run_batch`` of several) and ``day_end``.
    """

    kind: str
    day: int
    now: float = 0.0
    jobs: Tuple[Job, ...] = ()


def event_stream(spec: WorkloadSpec, workload: CookingWorkload,
                 seed: int) -> Iterator[Event]:
    """The event stream of one (workload, seed): days 0 .. ``spec.days``-1.

    Day 0 is the warm-up (no annotations exist before its jobs ran); the
    timed window is everything after day 0's ``day_end``.  The work is
    fixed by the spec and the seed, so a faster program finishes sooner
    instead of getting further.
    """
    sampler = random.Random(f"e2e-sample-{seed}")
    ordinal = 0
    yield Event("install", 0)
    for day in range(spec.days):
        now = day * SECONDS_PER_DAY
        if day > 0:
            yield Event("cook", day, now)
            yield Event("evict", day, now)
            if spec.durable:
                yield Event("gc", day, now)
            if spec.reuse:
                yield Event("select", day, now)
        jobs: List[Job] = []
        for instance in workload.jobs_for_day(day):
            template = instance.template
            jobs.append(Job(
                ordinal=ordinal, day=day, sql=template.sql,
                params=tuple(sorted(instance.params.items())),
                virtual_cluster=template.virtual_cluster,
                template_id=template.template_id,
                pipeline_id=template.pipeline_id,
                submit_time=instance.submit_time,
                sampled=sampler.randrange(SAMPLE_ONE_IN) == 0))
            ordinal += 1
        if spec.jobs_per_wave:
            for index, start in enumerate(
                    range(0, len(jobs), spec.jobs_per_wave)):
                wave = tuple(jobs[start:start + spec.jobs_per_wave])
                if (spec.durable and day >= FORGET_FROM_DAY
                        and index == FORGET_BEFORE_WAVE):
                    yield Event("forget", day, wave[0].submit_time)
                yield Event("wave", day, wave[0].submit_time, wave)
        else:
            for job in jobs:
                yield Event("job", day, job.submit_time, (job,))
        yield Event("day_end", day, now)
