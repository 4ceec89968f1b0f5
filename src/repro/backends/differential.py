"""Differential harness: backends must agree byte-for-byte.

Runs the same workload through every combination of execution backend
(in-memory interpreter vs. SQLite) and reuse setting (CloudViews on vs.
off), then asserts the backend interface's two contracts:

1. **Result invariance.**  Every job returns the same canonical rows in
   all four configurations -- reuse must never change answers, and the
   backend must never change answers.
2. **Decision invariance.**  With reuse on, both backends build and
   reuse the *same* views and end with the *same* catalog digest:
   signatures, matching, and selection all live above the backend
   interface, so observed statistics (row counts and byte sizes) must
   be identical for the whole loop to converge identically.

Row canonicalization intentionally identifies ``True`` with ``1`` and
``5.0`` with ``5`` (SQLite has no boolean storage class and freely
returns integral reals), and rounds floats to 9 significant digits
(aggregation order differs between backends, so the last few ulps of a
float sum may too).  Everything else -- NULLs, strings, ints -- must
match exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import Session
from repro.common.clock import SECONDS_PER_DAY
from repro.core.controls import MultiLevelControls
from repro.plan.expressions import Row
from repro.selection.policies import SelectionPolicy
from repro.workload.generator import CookingWorkload, generate_workload
from repro.workload.tpcds import TPCDS_QUERIES, install_tpcds

BACKENDS = ("memory", "sqlite")


def canonical_value(value: object) -> object:
    """Backend-neutral form of one cell value."""
    if isinstance(value, bool):
        value = int(value)
    if value is None:
        return None
    if isinstance(value, float):
        if value != value:
            return "nan"
        if value == 0.0:
            value = 0.0  # collapse -0.0
        return format(value, ".9g")
    if isinstance(value, int):
        return str(value)
    return value


def canonical_rows(rows: List[Row]) -> List[str]:
    """Order-independent canonical serialization of a result set."""
    return sorted(
        json.dumps({k: canonical_value(v) for k, v in row.items()},
                   sort_keys=True)
        for row in rows)


@dataclass
class RunTrace:
    """One workload pass on one (backend, reuse) configuration."""

    backend: str
    reuse: bool
    #: job key -> canonical result rows
    results: Dict[str, List[str]] = field(default_factory=dict)
    #: job key -> (views_built, views_reused)
    decisions: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    catalog_digest: str = ""
    views_created: int = 0
    views_reused: int = 0


@dataclass
class DifferentialReport:
    """Comparison of all four configurations of one workload."""

    workload: str
    jobs: int = 0
    traces: List[RunTrace] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        reused = max((t.views_reused for t in self.traces), default=0)
        return (f"[{status}] {self.workload}: {self.jobs} jobs x "
                f"{len(self.traces)} configs, {reused} views reused; "
                f"{len(self.mismatches)} mismatches")


def _compare(report: DifferentialReport) -> None:
    """Populate ``report.mismatches`` from its traces."""
    traces = report.traces
    if not traces:
        return
    reference = traces[0]
    for trace in traces[1:]:
        for key, rows in reference.results.items():
            theirs = trace.results.get(key)
            if theirs != rows:
                report.mismatches.append(
                    f"rows differ for job {key!r}: "
                    f"{reference.backend}/reuse={reference.reuse} vs "
                    f"{trace.backend}/reuse={trace.reuse}")
    # Reuse decisions and the catalog digest must agree across backends
    # *within* each reuse setting (reuse off trivially builds nothing).
    by_reuse: Dict[bool, List[RunTrace]] = {}
    for trace in traces:
        by_reuse.setdefault(trace.reuse, []).append(trace)
    for reuse, group in by_reuse.items():
        head = group[0]
        for trace in group[1:]:
            if trace.catalog_digest != head.catalog_digest:
                report.mismatches.append(
                    f"catalog digest differs (reuse={reuse}): "
                    f"{head.backend}={head.catalog_digest[:12]} vs "
                    f"{trace.backend}={trace.catalog_digest[:12]}")
            if (trace.views_created, trace.views_reused) != \
                    (head.views_created, head.views_reused):
                report.mismatches.append(
                    f"view counters differ (reuse={reuse}): "
                    f"{head.backend}=({head.views_created},"
                    f"{head.views_reused}) vs {trace.backend}="
                    f"({trace.views_created},{trace.views_reused})")
            if trace.decisions != head.decisions:
                report.mismatches.append(
                    f"per-job reuse decisions differ (reuse={reuse}) "
                    f"between {head.backend} and {trace.backend}")


def _session(backend: str, clusters: List[str]) -> Session:
    controls = MultiLevelControls()
    for vc in clusters:
        controls.enable_vc(vc)
    return Session(
        backend=backend,
        controls=controls,
        selection_algorithm="bigsubs",
        policy=SelectionPolicy(storage_budget_bytes=50_000_000,
                               min_reuses_per_epoch=0.0),
    )


# --------------------------------------------------------------------- #
# TPC-DS

def run_tpcds_differential(scale_rows: int = 400,
                           seed: int = 42) -> DifferentialReport:
    """Two rounds of the TPC-DS suite, selection between them."""
    report = DifferentialReport(workload="tpcds")
    for backend in BACKENDS:
        for reuse in (True, False):
            trace = RunTrace(backend=backend, reuse=reuse)
            with _session(backend, ["default"]) as session:
                install_tpcds(session.engine, scale_rows=scale_rows,
                              seed=seed)
                for round_no in (1, 2):
                    base = 1000.0 * round_no
                    for offset, (name, sql) in enumerate(TPCDS_QUERIES):
                        result = session.run(
                            sql, template_id=name,
                            reuse_override=reuse,
                            now=base + offset)
                        key = f"r{round_no}:{name}"
                        trace.results[key] = canonical_rows(result.rows)
                        trace.decisions[key] = (result.views_built,
                                                result.views_reused)
                    if round_no == 1 and reuse:
                        session.analyze_and_publish()
                trace.catalog_digest = session.catalog_digest()
                trace.views_created = session.views_created
                trace.views_reused = session.views_reused
            report.traces.append(trace)
    report.jobs = len(report.traces[0].results)
    _compare(report)
    return report


# --------------------------------------------------------------------- #
# cooking workload

def run_cooking_differential(days: int = 3, seed: int = 7,
                             workload: Optional[CookingWorkload] = None
                             ) -> DifferentialReport:
    """The generated cooking workload: daily bulk updates roll stream
    GUIDs (invalidating views), selection re-runs at each boundary."""
    report = DifferentialReport(workload="cooking")
    base = workload or generate_workload(
        name="diff", seed=seed, virtual_clusters=2, templates_per_vc=4,
        fact_rows_per_day=240, adhoc_per_day=2)
    for backend in BACKENDS:
        for reuse in (True, False):
            trace = RunTrace(backend=backend, reuse=reuse)
            with _session(backend, list(base.virtual_clusters)) as session:
                base.install(session.engine, at=0.0)
                for day in range(days):
                    if day > 0:
                        base.cook(session.engine, day)
                        session.evict_expired(now=day * SECONDS_PER_DAY)
                    for index, job in enumerate(base.jobs_for_day(day)):
                        result = session.run(
                            job.template.sql,
                            params=job.params,
                            virtual_cluster=job.virtual_cluster,
                            template_id=job.template.template_id,
                            pipeline_id=job.template.pipeline_id,
                            reuse_override=reuse,
                            now=job.submit_time)
                        key = f"d{day}:{index}:{job.template.template_id}"
                        trace.results[key] = canonical_rows(result.rows)
                        trace.decisions[key] = (result.views_built,
                                                result.views_reused)
                    if reuse:
                        session.analyze_and_publish()
                trace.catalog_digest = session.catalog_digest()
                trace.views_created = session.views_created
                trace.views_reused = session.views_reused
            report.traces.append(trace)
    report.jobs = len(report.traces[0].results)
    _compare(report)
    return report
