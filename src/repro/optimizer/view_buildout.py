"""Bottom-up view buildout ("Follow-up optimization" in Figure 5).

"There is a follow-up optimization phase to check (in bottom-up manner) if
any of the subexpressions are candidates for materialization.  If yes, then
an exclusive lock is obtained from the insights service and a spool
operator with two consumers is added to that subexpression." (Section 2.3)

A subexpression is a candidate when its *recurring* signature appears in
the annotations served for this job (that is, workload analysis selected
it), it is reuse-eligible, and no available or in-flight materialization
already exists for its current *strict* signature.  This makes views
just-in-time: "the storage space is consumed only when the views are about
to be reused, and if the workload changes and a selected subexpression is
no longer found in the workload then it will automatically stop being
materialized" (Section 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.optimizer.context import OptimizerContext
from repro.plan.logical import LogicalPlan, Scan, Spool, ViewScan
from repro.signatures.signature import (
    is_reuse_eligible,
    recurring_signature,
    strict_signature,
    with_children_signed_alike,
)


@dataclass(frozen=True)
class BuildProposal:
    """Record of one spool insertion (for telemetry)."""

    strict_signature: str
    recurring_signature: str
    view_path: str


@dataclass
class BuildOutcome:
    plan: LogicalPlan
    proposals: List[BuildProposal] = field(default_factory=list)

    @property
    def builds(self) -> bool:
        return bool(self.proposals)


def insert_spools(plan: LogicalPlan, ctx: OptimizerContext,
                  now: float) -> BuildOutcome:
    """Wrap selected subexpressions with Spool operators, bottom up."""
    outcome = BuildOutcome(plan=plan)
    if not ctx.reuse_enabled or not ctx.annotations:
        return outcome
    outcome.plan = _build(plan, ctx, now, outcome.proposals)
    return outcome


def _build(plan: LogicalPlan, ctx: OptimizerContext, now: float,
           proposals: List[BuildProposal]) -> LogicalPlan:
    # Bottom-up: transform children first, then consider this node.
    children = plan.children()
    if children:
        new_children = [_build(child, ctx, now, proposals)
                        for child in children]
        if any(n is not o for n, o in zip(new_children, children)):
            plan = with_children_signed_alike(plan, new_children, ctx.salt)

    if len(proposals) >= ctx.max_views_per_job:
        return plan
    if isinstance(plan, (Scan, ViewScan, Spool)):
        # Raw inputs are already stored; views and spools are already views.
        return plan
    if not is_reuse_eligible(plan):
        return plan

    recurring = recurring_signature(plan, ctx.salt)
    annotation = ctx.annotation_for(recurring)
    if annotation is None:
        return plan

    strict = strict_signature(plan, ctx.salt)
    if ctx.view_store.lookup(strict, now) is not None:
        return plan  # already materialized and available
    if ctx.view_store.is_materializing(strict, now):
        return plan  # another job holds the build
    if not ctx.acquire_view_lock(strict):
        ctx.recorder.inc("views.buildout.lock_lost")
        return plan  # lost the race for the exclusive lock
    # Concurrent compilation: the two unlocked checks above may be stale
    # by the time the lock lands (another job sealed or abandoned the view
    # in between).  The lock is the authority; re-check under it and walk
    # away rather than double-registering the materialization.
    if (ctx.view_store.lookup(strict, now) is not None
            or ctx.view_store.is_materializing(strict, now)):
        ctx.release_view_lock(strict)
        ctx.recorder.inc("views.buildout.lock_lost")
        return plan

    ctx.recorder.inc("views.buildout.proposed")
    path = view_path_for(ctx.virtual_cluster, strict)
    ctx.view_store.begin_materialize(
        strict, path, plan.schema, ctx.virtual_cluster, now,
        recurring_signature=recurring, definition=plan)
    proposals.append(BuildProposal(
        strict_signature=strict,
        recurring_signature=recurring,
        view_path=path,
    ))
    return Spool(plan, signature=strict, view_path=path,
                 expiry_seconds=ctx.view_store.ttl_seconds)


def view_path_for(virtual_cluster: str, strict_signature_hex: str) -> str:
    """Views "encode the strict signature in output path" (Figure 5)."""
    return f"cloudviews/{virtual_cluster}/{strict_signature_hex}"
