"""Output checks for one repeat; run once, untimed, after the window.

The timed run kept the rows of a seeded 1-in-4 job sample by reference.
Here the same event stream is replayed serially, with reuse off, on the
*other* backend (SQLite for the in-memory workloads, in-memory for the
SQLite one), and each sampled job's rows must match after
``repro.backends.differential.canonical_rows``.  A reuse-free run on a
second executor shares neither the views nor the operators of the run
under test, so a wrong answer from either shows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List

from repro.backends.differential import canonical_rows
from repro.lifecycle.lineage import LineageRegistry
from repro.shard.journal import merged_offline_recovery
from repro.storage.views import ViewStore

from harness import Driver, Repeat, RunLog, open_reference_session
from workloads import Event, WorkloadSpec, build_workload


@dataclass
class Verdict:
    sampled: int = 0
    mismatched: int = 0
    #: Failed whole-run checks, in words; empty when all hold.
    problems: List[str] = field(default_factory=list)
    recover_s: float = 0.0

    @property
    def correct(self) -> bool:
        return not self.mismatched and not self.problems


def verify(spec: WorkloadSpec, seed: int, repeat: Repeat) -> Verdict:
    log = repeat.log
    verdict = Verdict(sampled=len(log.samples))
    workload = build_workload(spec, seed)
    reference = RunLog()
    with open_reference_session(spec, workload) as session:
        driver = Driver(session, workload, spec, reference=True)
        # Day 0's jobs are outside the window; only its data is needed.
        driver.step(Event("install", 0), reference)
        for event in log.events:
            driver.step(event, reference)
    if reference.failed:
        verdict.problems.append(
            f"{reference.failed} reference jobs failed: "
            f"{reference.errors[:3]}")
    expected = {job.ordinal: rows for job, rows in reference.samples}
    for job, rows in log.samples:
        if (job.ordinal not in expected or canonical_rows(rows)
                != canonical_rows(expected[job.ordinal])):
            verdict.mismatched += 1
            verdict.problems.append(
                f"job {job.ordinal} ({job.template_id}, day {job.day}): rows "
                f"differ from the {spec.reference_backend} reference")

    if spec.reuse and not log.reusing:
        verdict.problems.append("no job reused a view on a reuse workload")
    if not spec.reuse and log.reusing:
        verdict.problems.append(
            f"{log.reusing} jobs reused views with reuse off")
    if repeat.journal_dir is not None:
        # Durability: the journal alone, read with no worker process
        # alive, must give back the catalog the live session had.
        store = ViewStore()
        started = time.perf_counter()
        merged_offline_recovery(repeat.journal_dir, store, LineageRegistry())
        verdict.recover_s = time.perf_counter() - started
        if store.catalog_digest() != repeat.live_digest:
            verdict.problems.append(
                "offline journal recovery does not reproduce the live "
                "catalog digest")
    return verdict
