"""Workload compression into a representative set (Section 5.2).

"The notion of signatures ... turned out to be very helpful not just for
computation reuse, but also for applications such as ... compressing
workloads into a representative set for pre-production evaluation."

A production window contains hundreds of thousands of jobs, most of them
recurring instances of a few hundred templates.  For pre-production
evaluation (replaying a workload against a new runtime or configuration),
one representative per *plan equivalence class* suffices -- weighted by
how many jobs it stands for.  Two jobs are plan-equivalent when their
recurring-signature multisets match: the same template compiled over
different days/parameters lands in the same class.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.hashing import stable_hash
from repro.workload.repository import JobRecord, WorkloadRepository


@dataclass(frozen=True)
class RepresentativeJob:
    """One equivalence class of the compressed workload."""

    job: JobRecord                 # the exemplar (earliest instance)
    weight: int                    # jobs this representative stands for
    class_signature: str           # hash of the recurring-signature multiset
    total_work: float              # observed work across the class


@dataclass
class CompressedWorkload:
    """The representative set plus compression accounting."""

    representatives: List[RepresentativeJob]
    original_jobs: int

    @property
    def compression_ratio(self) -> float:
        if not self.representatives:
            return 1.0
        return self.original_jobs / len(self.representatives)

    def coverage(self) -> int:
        return sum(r.weight for r in self.representatives)


def compress_workload(repository: WorkloadRepository) -> CompressedWorkload:
    """Collapse the repository into one weighted exemplar per plan class."""
    signatures_by_job: Dict[str, List[str]] = defaultdict(list)
    work_by_job: Dict[str, float] = defaultdict(float)
    for record in repository.subexpressions:
        signatures_by_job[record.job_id].append(record.recurring)
        if record.parent_node_id is None:
            work_by_job[record.job_id] += record.work

    classes: Dict[str, List[JobRecord]] = defaultdict(list)
    for job in repository.jobs:
        key = stable_hash("job-class",
                          sorted(signatures_by_job.get(job.job_id, ())))
        classes[key].append(job)

    representatives = []
    for key, jobs in classes.items():
        exemplar = min(jobs, key=lambda j: (j.submit_time, j.job_id))
        representatives.append(RepresentativeJob(
            job=exemplar,
            weight=len(jobs),
            class_signature=key,
            total_work=sum(work_by_job.get(j.job_id, 0.0) for j in jobs),
        ))
    representatives.sort(key=lambda r: (-r.weight, r.class_signature))
    return CompressedWorkload(
        representatives=representatives,
        original_jobs=repository.total_jobs(),
    )


def replay_plan(compressed: CompressedWorkload,
                max_representatives: int = 0
                ) -> List[Tuple[JobRecord, int]]:
    """The pre-production replay list: (exemplar job, weight) pairs.

    ``max_representatives`` optionally truncates to the heaviest classes
    (the tail classes contribute little evaluated work).
    """
    representatives = compressed.representatives
    if max_representatives:
        representatives = representatives[:max_representatives]
    return [(r.job, r.weight) for r in representatives]
