"""Differential harness: backends must agree byte-for-byte.

Replays the same history (:mod:`repro.history`) on every combination of
execution backend (in-memory interpreter vs. SQLite) and reuse setting
(CloudViews on vs. off), then asserts the backend interface's two
contracts:

1. **Result invariance.**  Every job returns the same canonical rows in
   all four configurations -- reuse must never change answers, and the
   backend must never change answers.
2. **Decision invariance.**  With reuse on, both backends build and
   reuse the *same* views and end with the *same* catalog digest:
   signatures, matching, and selection all live above the backend
   interface, so observed statistics (row counts and byte sizes) must
   be identical for the whole loop to converge identically.

Each job is its own wave at its submit time, so a job sees every view an
earlier one built.  Rows are compared by :func:`canonical_rows`
(re-exported here from :mod:`repro.history`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.common.clock import SECONDS_PER_DAY
from repro.history import Outcome, day_jobs, replay
from repro.history import canonical_rows, canonical_value  # noqa: F401
from repro.selection.policies import SelectionPolicy
from repro.simulation import SimulationConfig
from repro.workload.generator import CookingWorkload, generate_workload
from repro.workload.tpcds import tpcds_history

BACKENDS = ("memory", "sqlite")
#: Seed of the cooking workload ``repro diff-backends`` replays.
COOKING_SEED = 7


def oracle_config(backend: str, **fields) -> SimulationConfig:
    """The deployment the differential and chaos oracles replay on:
    BigSubs under a 50 MB budget, every candidate eligible (the
    workloads are too small to clear a reuse threshold)."""
    return SimulationConfig(
        backend=backend, **fields,
        policy=SelectionPolicy(storage_budget_bytes=50_000_000,
                               min_reuses_per_epoch=0.0))


def oracle_workload(name: str, seed: int) -> CookingWorkload:
    """The small two-cluster cooking workload both oracles replay."""
    return generate_workload(
        name=name, seed=seed, virtual_clusters=2, templates_per_vc=4,
        fact_rows_per_day=240, adhoc_per_day=2)


@dataclass
class DifferentialReport:
    """Comparison of all four configurations of one workload."""

    workload: str
    jobs: int = 0
    #: ``(backend, reuse) -> Outcome`` of each configuration's replay.
    traces: Dict[Tuple[str, bool], Outcome] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        reused = max((t.views_reused for t in self.traces.values()),
                     default=0)
        return (f"[{status}] {self.workload}: {self.jobs} jobs x "
                f"{len(self.traces)} configs, {reused} views reused; "
                f"{len(self.mismatches)} mismatches")


#: What must agree across backends *within* one reuse setting (reuse off
#: trivially builds nothing): the loop above the backend interface sees
#: the same statistics, so it converges identically.
_DECISIONS = (
    ("catalog digests", lambda t: t.live_digest),
    ("view counters", lambda t: (t.views_created, t.views_reused)),
    ("per-job reuse decisions", lambda t: t.decisions),
)


def _compare(report: DifferentialReport) -> None:
    """Populate ``report.mismatches`` from its traces."""
    (first, head), *_ = report.traces.items()
    reference = head.rows
    for (backend, reuse), trace in report.traces.items():
        report.mismatches += [
            f"job {key!r} failed on {backend}/reuse={reuse}: {error}"
            for key, error in trace.failures.items()]
        rows = trace.rows
        report.mismatches += [
            f"rows differ for job {key!r}: {first[0]}/reuse={first[1]} "
            f"vs {backend}/reuse={reuse}"
            for key, expected in reference.items()
            if rows.get(key) != expected]
        peer = report.traces[BACKENDS[0], reuse]
        report.mismatches += [
            f"{name} differ (reuse={reuse}) between {BACKENDS[0]} and "
            f"{backend}" for name, value in _DECISIONS
            if value(trace) != value(peer)]


def _run_lattice(workload: str,
                 history: Callable[[bool], list]) -> DifferentialReport:
    """Replay ``history(reuse)`` on every backend x reuse setting."""
    report = DifferentialReport(workload=workload)
    for backend in BACKENDS:
        for reuse in (True, False):
            with oracle_config(backend).open_session() as session:
                report.traces[backend, reuse] = replay(history(reuse), session)
    report.jobs = len(report.traces[BACKENDS[0], True].results)
    _compare(report)
    return report


# --------------------------------------------------------------------- #
# TPC-DS

def run_tpcds_differential(scale_rows: int = 400) -> DifferentialReport:
    return _run_lattice("tpcds", functools.partial(tpcds_history, scale_rows))


# --------------------------------------------------------------------- #
# cooking workload

def cooking_history(workload: CookingWorkload, days: int,
                    reuse: bool) -> list:
    """Daily bulk updates roll stream GUIDs (invalidating views), then
    the day's jobs; selection re-runs at the end of each day."""
    history = [("install", workload.install)]
    for day in range(days):
        if day > 0:
            history += [("cook", workload, day),
                        ("evict", day * SECONDS_PER_DAY)]
        history += [("wave", at, [(key, request)])
                    for at, key, request in day_jobs(workload, day, reuse)]
        if reuse:
            history.append(("publish",))
    return history


def run_cooking_differential(days: int = 3) -> DifferentialReport:
    workload = oracle_workload("diff", COOKING_SEED)
    return _run_lattice("cooking", functools.partial(cooking_history,
                                                     workload, days))
