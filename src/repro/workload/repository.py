"""The workload repository: a denormalized subexpression table.

"CloudViews ... extracts the query workload into a denormalized
subexpressions table that pre-joins the logical query subexpressions with
their runtime metrics as seen in the history." (Section 2.3)

Every compiled-and-executed job contributes one :class:`SubexpressionRecord`
per subexpression, carrying both identity (strict/recurring signatures,
tag, operator) and runtime features (rows, bytes, work, the job's virtual
cluster and submission time).  View selection and all of the paper's
workload analyses (Figures 2, 3, 8, 9) read from here.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple


@dataclass(frozen=True)
class SubexpressionRecord:
    """One row of the denormalized subexpression table."""

    job_id: str
    virtual_cluster: str
    submit_time: float
    template_id: str
    pipeline_id: str
    strict: str
    recurring: str
    tag: str
    operator: str
    height: int
    eligible: bool
    rows: int
    size_bytes: int
    work: float               # observed compute below and including the node
    input_datasets: Tuple[str, ...] = ()
    #: Per-job local operator ids preserving the plan tree, so selection can
    #: avoid double-counting nested candidates within one job.
    node_id: int = 0
    parent_node_id: Optional[int] = None
    #: Operator-specific detail; for joins, the physical algorithm chosen
    #: (hash / merge / loop), used by the Figure-9 concurrency analysis.
    detail: str = ""


@dataclass(frozen=True)
class JobRecord:
    """Per-job workload metadata."""

    job_id: str
    virtual_cluster: str
    submit_time: float
    template_id: str
    pipeline_id: str
    runtime_version: str
    input_datasets: Tuple[str, ...]
    subexpression_count: int


class WorkloadRepository:
    """Accumulates workload telemetry across jobs."""

    def __init__(self) -> None:
        self.subexpressions: List[SubexpressionRecord] = []
        self.jobs: List[JobRecord] = []

    # ------------------------------------------------------------------ #
    # ingestion

    def add_job(self, job: JobRecord,
                records: Iterable[SubexpressionRecord]) -> None:
        self.jobs.append(job)
        self.subexpressions.extend(records)

    # ------------------------------------------------------------------ #
    # basic statistics (Figure 3)

    def total_jobs(self) -> int:
        return len(self.jobs)

    def total_subexpressions(self) -> int:
        return len(self.subexpressions)

    def repeated_fraction(self, min_height: int = 0) -> float:
        """Fraction of subexpression *instances* whose recurring signature
        occurs more than once (the paper's "more than 75% ... repeated")."""
        eligible = [r for r in self.subexpressions if r.height >= min_height]
        if not eligible:
            return 0.0
        counts: Dict[str, int] = defaultdict(int)
        for record in eligible:
            counts[record.recurring] += 1
        repeated = sum(1 for r in eligible if counts[r.recurring] > 1)
        return repeated / len(eligible)

    def average_repeat_frequency(self, min_height: int = 0) -> float:
        """Mean occurrences per distinct recurring signature (~5 in Fig 3)."""
        counts: Dict[str, int] = defaultdict(int)
        for record in self.subexpressions:
            if record.height >= min_height:
                counts[record.recurring] += 1
        if not counts:
            return 0.0
        return sum(counts.values()) / len(counts)

    # ------------------------------------------------------------------ #
    # grouped views of the table

    def dataset_consumers(self) -> Dict[str, Set[str]]:
        """Dataset -> distinct consuming templates (Figure 2's notion of
        distinct downstream consumers of a shared input stream)."""
        consumers: Dict[str, Set[str]] = defaultdict(set)
        for job in self.jobs:
            for dataset in job.input_datasets:
                consumers[dataset].add(job.template_id or job.job_id)
        return dict(consumers)

    def window(self, start: float, end: float,
               runtime_version: Optional[str] = None
               ) -> "WorkloadRepository":
        """Sub-repository restricted to jobs submitted in [start, end),
        and -- given ``runtime_version`` -- compiled under that runtime,
        in the same pass.

        Signatures evolve with new SCOPE runtimes (Section 4, "Impact of
        changed signatures"), so workload analysis must only mix records
        whose signatures share a runtime -- otherwise selection publishes
        annotations no future job can match.
        """
        result = WorkloadRepository()
        kept = {job.job_id for job in self.jobs
                if start <= job.submit_time < end
                and runtime_version in (None, job.runtime_version)}
        by_job: Dict[str, List[SubexpressionRecord]] = defaultdict(list)
        for record in self.subexpressions:
            if record.job_id in kept:
                by_job[record.job_id].append(record)
        for job in self.jobs:
            if job.job_id in kept:
                result.add_job(job, by_job.get(job.job_id, ()))
        return result
