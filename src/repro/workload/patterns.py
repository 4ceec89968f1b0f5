"""Query-pattern discovery over the workload (Section 5.2).

"The notion of signatures to uniquely identify query subexpressions
turned out to be very helpful not just for computation reuse, but also
for applications such as discovering interesting query patterns in the
workload."

A *pattern* here is an operator chain (a root-to-leaf path of operator
labels through the recorded plan trees, e.g. ``Project > GroupBy > Filter
> Scan``).  Frequent chains characterize what a workload actually does --
which shapes dominate, which teams run which archetypes -- without
exposing any query text.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.workload.repository import SubexpressionRecord, WorkloadRepository


@dataclass(frozen=True)
class QueryPattern:
    """One operator chain with its workload footprint."""

    chain: Tuple[str, ...]
    occurrences: int               # jobs containing the chain
    distinct_templates: int
    virtual_clusters: Tuple[str, ...]

    def render(self) -> str:
        return " > ".join(self.chain)


def operator_chains(records: List[SubexpressionRecord]
                    ) -> List[Tuple[str, ...]]:
    """Root-to-leaf operator chains of one job's recorded plan tree."""
    children: Dict[Optional[int], List[SubexpressionRecord]] = defaultdict(list)
    for record in records:
        children[record.parent_node_id].append(record)
    roots = children.get(None, [])
    chains: List[Tuple[str, ...]] = []

    def walk(record: SubexpressionRecord, prefix: Tuple[str, ...]) -> None:
        chain = prefix + (record.operator,)
        kids = children.get(record.node_id, [])
        if not kids:
            chains.append(chain)
            return
        for kid in kids:
            walk(kid, chain)

    for root in roots:
        walk(root, ())
    return chains


def discover_patterns(repository: WorkloadRepository,
                      min_occurrences: int = 2,
                      max_patterns: int = 50) -> List[QueryPattern]:
    """Frequent operator chains across the workload, heaviest first."""
    by_job: Dict[str, List[SubexpressionRecord]] = defaultdict(list)
    for record in repository.subexpressions:
        by_job[record.job_id].append(record)

    jobs_with: Dict[Tuple[str, ...], set] = defaultdict(set)
    templates_with: Dict[Tuple[str, ...], set] = defaultdict(set)
    vcs_with: Dict[Tuple[str, ...], set] = defaultdict(set)
    for job in repository.jobs:
        records = by_job.get(job.job_id, [])
        for chain in set(operator_chains(records)):
            jobs_with[chain].add(job.job_id)
            templates_with[chain].add(job.template_id)
            vcs_with[chain].add(job.virtual_cluster)

    patterns = [
        QueryPattern(
            chain=chain,
            occurrences=len(jobs),
            distinct_templates=len(templates_with[chain]),
            virtual_clusters=tuple(sorted(vcs_with[chain])),
        )
        for chain, jobs in jobs_with.items()
        if len(jobs) >= min_occurrences
    ]
    patterns.sort(key=lambda p: (-p.occurrences, p.chain))
    return patterns[:max_patterns]

