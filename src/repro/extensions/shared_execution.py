"""Shared execution for concurrent queries (Section 5.4).

"Opportunities for reuse exist for concurrent queries, which does not
require pre-materialization since intermediate results may be directly
pipelined. ... Extending CloudViews to support concurrently executing
queries ... remains a ripe direction for future exploration."

This module explores that direction: a :class:`SharedBatchExecutor` runs a
batch of co-scheduled jobs with a cross-query memo keyed by strict
signatures.  The first job to evaluate a common subexpression computes it
(and, in passing, publishes every shareable interior fragment it
produced); each later job's plan is rewritten so its maximal memoized
subtrees read the in-memory result directly -- no storage round trip, no
materialization lock, no early-sealing delay.

Only reuse-eligible subexpressions participate (the Section-4 UDO rules
apply unchanged), and the memo lives strictly within one batch: nothing
persists, so the correctness story is the same as CloudViews' (identical
strict signatures compute identical results over identical inputs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.engine.engine import CompiledJob, ScopeEngine
from repro.executor.executor import Executor
from repro.plan.expressions import Row
from repro.plan.logical import LogicalPlan, Scan, Spool, ViewScan
from repro.signatures.signature import (
    is_reuse_eligible,
    recurring_signature,
    strict_signature,
)


@dataclass
class _MemoEntry:
    rows: int           # row count of the published fragment
    path: str           # synthetic store key backing the ViewScan
    work: float         # observed subtree work when first computed
    schema: Tuple[str, ...]


@dataclass
class BatchStats:
    """What sharing achieved across one batch."""

    jobs: int = 0
    fragments_published: int = 0
    fragments_shared: int = 0
    work_computed: float = 0.0
    work_avoided: float = 0.0

    @property
    def sharing_fraction(self) -> float:
        total = self.work_computed + self.work_avoided
        return self.work_avoided / total if total else 0.0


@dataclass
class BatchJobResult:
    """One job's outcome within a shared batch."""

    compiled: CompiledJob
    rows: List[Row]
    shared_hits: int = 0


class SharedBatchExecutor:
    """Executes concurrent jobs with cross-query result pipelining."""

    def __init__(self, engine: ScopeEngine, min_share_height: int = 1):
        if engine.executor is None:
            raise ConfigError(
                f"shared batch execution captures per-node rows with the "
                f"in-memory executor; the {engine.backend.name!r} backend "
                f"has none")
        self.engine = engine
        self.min_share_height = min_share_height
        self._memo: Dict[str, _MemoEntry] = {}
        self._path_counter = itertools.count(1)

    def execute_batch(self, compiled_jobs: Sequence[CompiledJob]
                      ) -> Tuple[List[BatchJobResult], BatchStats]:
        """Run the batch, sharing common subexpression results in memory."""
        stats = BatchStats(jobs=len(compiled_jobs))
        results = []
        for compiled in compiled_jobs:
            results.append(self._run_job(compiled, stats))
        self._memo.clear()
        return results, stats

    # ------------------------------------------------------------------ #

    def _run_job(self, compiled: CompiledJob,
                 stats: BatchStats) -> BatchJobResult:
        salt = self.engine.signature_salt
        rewritten, hits, avoided = self._substitute(compiled.plan, salt)
        stats.fragments_shared += hits
        stats.work_avoided += avoided

        executor = Executor(self.engine.store, self.engine.executor.udos,
                            capture_rows=True)
        result = executor.execute(rewritten)
        work = sum(s.rows_in + s.rows_out for _, s in result.node_stats)
        stats.work_computed += work

        # Publish every shareable fragment this job computed, with its
        # observed subtree work, so later jobs can pipeline from it.
        work_below = _subtree_work(rewritten, result)
        for node, node_stats in result.node_stats:
            if isinstance(node, (Scan, ViewScan, Spool)):
                continue
            if _height(node) < self.min_share_height:
                continue
            if not is_reuse_eligible(node):
                continue
            signature = strict_signature(node, salt)
            if signature in self._memo:
                continue
            path = f"__batch__/{next(self._path_counter)}"
            self.engine.store.put_batch(path, result.node_batches[id(node)])
            self._memo[signature] = _MemoEntry(
                rows=node_stats.rows_out, path=path,
                work=work_below.get(id(node), 0.0),
                schema=node.schema)
            stats.fragments_published += 1
        return BatchJobResult(compiled=compiled, rows=result.rows,
                              shared_hits=hits)

    def _substitute(self, plan: LogicalPlan, salt: str
                    ) -> Tuple[LogicalPlan, int, float]:
        """Replace maximal memoized subtrees with in-memory ViewScans."""
        if not isinstance(plan, (Scan, ViewScan, Spool)) \
                and _height(plan) >= self.min_share_height \
                and is_reuse_eligible(plan):
            signature = strict_signature(plan, salt)
            entry = self._memo.get(signature)
            if entry is not None:
                scan = ViewScan(
                    signature=signature,
                    view_path=entry.path,
                    columns=entry.schema,
                    rows=entry.rows,
                    recurring=recurring_signature(plan, salt),
                )
                return scan, 1, entry.work
        children = plan.children()
        if not children:
            return plan, 0, 0.0
        hits = 0
        avoided = 0.0
        new_children = []
        for child in children:
            new_child, child_hits, child_avoided = self._substitute(
                child, salt)
            new_children.append(new_child)
            hits += child_hits
            avoided += child_avoided
        if any(n is not o for n, o in zip(new_children, children)):
            plan = plan.with_children(new_children)
        return plan, hits, avoided


def _height(plan: LogicalPlan) -> int:
    heights = [_height(child) for child in plan.children()]
    return 1 + max(heights) if heights else 0


def _subtree_work(plan: LogicalPlan, result) -> Dict[int, float]:
    """Observed (rows_in + rows_out) summed per subtree, keyed by id()."""
    stats = {id(node): s for node, s in result.node_stats}
    memo: Dict[int, float] = {}

    def visit(node: LogicalPlan) -> float:
        own = 0.0
        node_stats = stats.get(id(node))
        if node_stats is not None:
            own = node_stats.rows_in + node_stats.rows_out
        total = own + sum(visit(child) for child in node.children())
        memo[id(node)] = total
        return total

    visit(plan)
    return memo
