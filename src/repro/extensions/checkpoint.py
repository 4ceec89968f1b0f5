"""Checkpoint/restart via CloudViews materialization (Section 5.6).

"Computation reuse can be applied for automatic checkpoint and restart in
large analytical queries.  The idea is to select intermediate
subexpressions in a job's query plan to materialize and reuse them in case
the job is restarted after a failure. ... During the compilation phase, we
use query history to find which operators are more likely to fail and add
a checkpoint just before them.  Then, during the resubmission, CloudViews
can load the last available checkpoint thereby avoiding re-computation."

The implementation deliberately reuses the ordinary CloudViews machinery:
a checkpoint *is* a spooled view, and a resubmitted job finds it through
normal strict-signature view matching -- no new recovery path exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.engine.engine import CompiledJob, JobRun, ScopeEngine
from repro.optimizer.context import Annotation
from repro.plan.logical import LogicalPlan, Scan, Spool, ViewScan
from repro.signatures.signature import (
    is_reuse_eligible,
    recurring_signature,
    signature_tag,
)

#: Operators whose input we checkpoint by default: the expensive,
#: shuffle-heavy spots where production failures concentrate.
DEFAULT_RISKY_OPERATORS: Tuple[str, ...] = ("GroupBy", "Join")


@dataclass
class FailureModel:
    """Per-operator failure likelihoods learned from query history."""

    risk_by_operator: Dict[str, float] = field(default_factory=dict)
    threshold: float = 0.05

    def is_risky(self, operator: str) -> bool:
        if not self.risk_by_operator:
            return operator in DEFAULT_RISKY_OPERATORS
        return self.risk_by_operator.get(operator, 0.0) >= self.threshold


class CheckpointManager:
    """Compile jobs with checkpoints; recover resubmissions through reuse."""

    def __init__(self, engine: ScopeEngine,
                 failure_model: Optional[FailureModel] = None,
                 max_checkpoints_per_job: int = 2):
        self.engine = engine
        self.failure_model = failure_model or FailureModel()
        self.max_checkpoints_per_job = max_checkpoints_per_job

    # ------------------------------------------------------------------ #

    def checkpoint_candidates(self, plan: LogicalPlan) -> List[LogicalPlan]:
        """Subexpressions feeding risky operators, largest first."""
        candidates: List[Tuple[int, LogicalPlan]] = []

        def visit(node: LogicalPlan, depth: int) -> int:
            heights = [visit(child, depth + 1) for child in node.children()]
            height = 1 + max(heights) if heights else 0
            if self.failure_model.is_risky(node.op_label):
                for child in node.children():
                    if isinstance(child, (Scan, ViewScan, Spool)):
                        continue  # inputs are already durable
                    if not is_reuse_eligible(child):
                        continue
                    candidates.append((height, child))
            return height

        visit(plan, 0)
        candidates.sort(key=lambda item: -item[0])
        seen: Set[int] = set()
        unique: List[LogicalPlan] = []
        for _, child in candidates:
            if id(child) not in seen:
                seen.add(id(child))
                unique.append(child)
        return unique[:self.max_checkpoints_per_job]

    def compile_with_checkpoints(self, sql: str,
                                 params: Optional[Dict[str, object]] = None,
                                 virtual_cluster: str = "default",
                                 now: float = 0.0) -> CompiledJob:
        """Compile so that checkpoint subexpressions spool to storage.

        Publishes temporary annotations for the checkpoint positions and
        lets the ordinary buildout phase insert the spools; pre-existing
        annotations are restored afterwards.
        """
        probe = self.engine.compile(sql, params, virtual_cluster,
                                    reuse_enabled=True, now=now)
        salt = self.engine.signature_salt
        annotations = []
        for node in self.checkpoint_candidates(probe.optimized.logical):
            recurring = recurring_signature(node, salt)
            annotations.append(Annotation(
                recurring_signature=recurring,
                tag=signature_tag(recurring),
                virtual_cluster=virtual_cluster,
            ))
        saved = self.engine.insights.annotations()
        self.engine.insights.publish(annotations)
        try:
            compiled = self.engine.compile(sql, params, virtual_cluster,
                                           reuse_enabled=True, now=now)
        finally:
            self.engine.insights.publish(saved)
        return compiled

    def run_with_failure(self, compiled: CompiledJob, now: float = 0.0,
                         fail_after_checkpoint: bool = True
                         ) -> Tuple[Optional[JobRun], List[str]]:
        """Simulate a job that fails after its checkpoints are sealed.

        Executes the job, seals its checkpoints (early sealing happens
        before job completion in production), then reports the failure:
        the job's own result is discarded but the checkpoints survive.
        Returns (None, sealed signatures).
        """
        run = self.engine.finish(
            self.engine.execute(compiled, now=now), at=now)
        if not fail_after_checkpoint:
            return run, list(run.sealed_views)
        # The job "failed towards the end": its output is lost, but the
        # early-sealed checkpoints remain in the view store.
        return None, list(run.sealed_views)

    def resubmit(self, sql: str,
                 params: Optional[Dict[str, object]] = None,
                 virtual_cluster: str = "default",
                 now: float = 0.0) -> JobRun:
        """Re-run the failed job; view matching loads the checkpoints."""
        return self.engine.run_sql(sql, params, virtual_cluster, now=now)
