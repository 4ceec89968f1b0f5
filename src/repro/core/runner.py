"""Workload-repository ingestion: one executed job -> one table slice.

:func:`record_job_into` is the "record job" step of the Figure-5
feedback loop; :meth:`repro.api.Session.record`, its one caller, calls
it for every job.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.engine import JobRun
from repro.plan.logical import Join, LogicalPlan, Scan, Spool, ViewScan
from repro.signatures.signature import (
    is_reuse_eligible,
    recurring_signature,
    strict_signature,
    subexpression_tag,
)
from repro.workload.repository import (
    JobRecord,
    SubexpressionRecord,
    WorkloadRepository,
)


#: Below this input size the modelled optimizer picks a nested-loop join
#: over building a hash table.
LOOP_JOIN_THRESHOLD = 10


def choose_join_algorithm(plan: Join, left_rows: int, right_rows: int) -> str:
    """The *modelled* physical join: ``hash``, ``merge``, or ``loop``.

    What a SCOPE-like optimizer would pick -- no equi-keys forces nested
    loops; multi-key equi-joins run as sort-merge (the inputs are
    co-partitioned and sorted on the compound key in production); small
    inputs use loops; everything else hashes -- recorded as
    ``SubexpressionRecord.detail`` for Figure 9's concurrent-join
    histogram.  A label only: the executor hashes every join.
    """
    if not plan.left_keys:
        return "loop"
    if len(plan.left_keys) >= 2:
        return "merge"
    if min(left_rows, right_rows) < LOOP_JOIN_THRESHOLD:
        return "loop"
    return "hash"


def record_job_into(repository: WorkloadRepository, run: JobRun, now: float,
                    virtual_cluster: str, template_id: str, pipeline_id: str,
                    salt: str,
                    full_work: Optional[Dict[str, float]] = None) -> None:
    """Ingest one executed job into the denormalized subexpression table.

    ``full_work`` caches, per recurring signature, the compute a
    subexpression performs when evaluated from scratch; instances that
    merely scanned a materialized view inherit the cached number so view
    selection keeps seeing the compute the view *stands for*.
    """
    if full_work is None:
        full_work = {}
    stats = {id(node): s for node, s in run.result.node_stats}
    records: List[SubexpressionRecord] = []
    datasets = set()
    counter = [0]
    job_id = run.compiled.job_id

    def visit(node: LogicalPlan, parent_id: Optional[int],
              depth: int) -> Tuple[float, int, Tuple[str, ...]]:
        """Returns (subtree_work, height, sorted scanned datasets)."""
        if isinstance(node, Spool):
            return visit(node.child, parent_id, depth)
        node_id = counter[0]
        counter[0] += 1
        child_work = 0.0
        heights = []
        scanned: Tuple[str, ...] = ()
        for child in node.children():
            work, height, below = visit(child, node_id, depth + 1)
            child_work += work
            heights.append(height)
            scanned = tuple(sorted(scanned + below)) if scanned else below
        node_stats = stats.get(id(node))
        rows = node_stats.rows_out if node_stats else 0
        size = node_stats.bytes_out if node_stats else 0
        own = ((node_stats.rows_in + node_stats.rows_out)
               if node_stats else 0.0)
        subtree_work = child_work + own
        height = 1 + max(heights) if heights else 0
        recurring = recurring_signature(node, salt)
        if isinstance(node, ViewScan):
            # The reused instance did almost no work; for selection we
            # keep the compute it *stands for* (last full observation).
            subtree_work = full_work.get(recurring, subtree_work)
            height = max(height, 1)
        else:
            full_work[recurring] = subtree_work
        if isinstance(node, Scan):
            datasets.add(node.dataset)
            scanned = (node.dataset,)
        detail = ""
        if isinstance(node, Join):
            left_stats = stats.get(id(node.left))
            right_stats = stats.get(id(node.right))
            detail = choose_join_algorithm(
                node,
                left_stats.rows_out if left_stats else 0,
                right_stats.rows_out if right_stats else 0)
        records.append(SubexpressionRecord(
            job_id=job_id,
            virtual_cluster=virtual_cluster,
            submit_time=now,
            template_id=template_id,
            pipeline_id=pipeline_id,
            strict=strict_signature(node, salt),
            recurring=recurring,
            tag=subexpression_tag(node, salt),
            operator=node.op_label,
            height=height,
            eligible=is_reuse_eligible(node),
            rows=rows,
            size_bytes=size,
            work=subtree_work,
            input_datasets=scanned,
            node_id=node_id,
            parent_node_id=parent_id,
            detail=detail,
        ))
        return subtree_work, height, scanned

    visit(run.compiled.plan, None, 0)
    repository.add_job(JobRecord(
        job_id=job_id,
        virtual_cluster=virtual_cluster,
        submit_time=now,
        template_id=template_id,
        pipeline_id=pipeline_id,
        runtime_version=run.compiled.runtime_version,
        input_datasets=tuple(sorted(datasets)),
        subexpression_count=len(records),
    ), records)
