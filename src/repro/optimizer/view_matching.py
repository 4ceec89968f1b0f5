"""Top-down view matching ("Core search" in Figure 5).

"During core search, the optimizer tries to match top down (match larger
subexpressions first) whether any of the query subexpressions is already
materialized.  If yes, then it modifies the query plan to reuse the common
subexpression with scan over previously materialized subexpression, updates
more accurate statistics, and inserts the modified plan into the memo for
overall costing.  The plan using a materialized subexpression is chosen
only if its cost is lower than the plan without the materialized
subexpression." (Section 2.3)

Matching is the paper's "lightweight view matching": a recursive signature
computation plus hash-equality lookups -- no containment reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.optimizer.context import OptimizerContext
from repro.plan.logical import LogicalPlan, Scan, ViewScan
from repro.signatures.signature import (
    is_reuse_eligible,
    recurring_signature,
    strict_signature,
    with_children_signed_alike,
)
from repro.storage.views import MaterializedView


@dataclass(frozen=True)
class ViewMatch:
    """Record of one reuse decision (for telemetry and user surfacing)."""

    signature: str
    view_path: str
    view_rows: int
    replaced_operators: int
    cost_without: float
    cost_with: float


@dataclass
class MatchOutcome:
    plan: LogicalPlan
    matches: List[ViewMatch] = field(default_factory=list)

    @property
    def reused(self) -> bool:
        return bool(self.matches)

    def release_claims(self, view_store) -> None:
        """Release the compile-time pins the claims took.

        ``claim_for_reuse`` pins each claimed view so the rest of
        compilation never sees it swept or rebuilt mid-flight; whoever
        drives matching must release those pins once the compiled plan
        is final (execution re-pins around the actual scan).
        """
        for match in self.matches:
            view_store.unpin(match.signature)


def match_views(plan: LogicalPlan, ctx: OptimizerContext,
                now: float) -> MatchOutcome:
    """Replace materialized subexpressions with ViewScans, top down."""
    outcome = MatchOutcome(plan=plan)
    if not ctx.reuse_enabled:
        return outcome
    outcome.plan = _match(plan, ctx, now, outcome.matches)
    return outcome


def _match(plan: LogicalPlan, ctx: OptimizerContext, now: float,
           matches: List[ViewMatch]) -> LogicalPlan:
    replaced = _try_replace(plan, ctx, now, matches)
    if replaced is not None:
        return replaced
    children = plan.children()
    if not children:
        return plan
    new_children = [_match(child, ctx, now, matches) for child in children]
    if any(n is not o for n, o in zip(new_children, children)):
        return with_children_signed_alike(plan, new_children, ctx.salt)
    return plan


def _try_replace(plan: LogicalPlan, ctx: OptimizerContext, now: float,
                 matches: List[ViewMatch]) -> Optional[LogicalPlan]:
    if isinstance(plan, (Scan, ViewScan)):
        return None  # a bare scan never benefits from view substitution
    if not is_reuse_eligible(plan):
        return None
    signature = strict_signature(plan, ctx.salt)
    ctx.recorder.inc("views.match.attempts")
    view = ctx.view_store.lookup(signature, now)
    if view is None:
        if ctx.enable_containment:
            return _try_containment(plan, ctx, now, matches)
        return None
    cost_with, cost_without = _compare_rewrites(
        plan, view_scan_for(view, plan.schema), ctx)
    if cost_with >= cost_without:
        ctx.recorder.inc("views.match.rejected_by_cost")
        return None
    # Re-check availability atomically at claim time: an invalidation
    # cascade or GC sweep may have purged the view between the lookup
    # above and this point (another ``Session`` caller may sweep
    # concurrently with compilation).  A lost claim is just a recompute.
    view = ctx.view_store.claim_for_reuse(signature, now,
                                          reused_by=ctx.trace_id)
    if view is None:
        ctx.recorder.inc("views.match.lost_claims")
        return None
    ctx.recorder.inc("views.match.hits")
    matches.append(ViewMatch(
        signature=signature,
        view_path=view.path,
        view_rows=view.row_count,
        replaced_operators=sum(1 for _ in plan.walk()),
        cost_without=cost_without,
        cost_with=cost_with,
    ))
    return view_scan_for(
        view, plan.schema,
        recurring_fallback=recurring_signature(plan, ctx.salt))


def _try_containment(plan: LogicalPlan, ctx: OptimizerContext, now: float,
                     matches: List[ViewMatch]) -> Optional[LogicalPlan]:
    """Section-5.3 prototype: answer a Filter(Scan) from a more general
    view via a compensating filter, when no exact match exists."""
    from repro.optimizer.containment import generalized_match

    for view in ctx.view_store.views():
        if not view.available(now) or view.definition is None:
            continue
        view_scan = view_scan_for(view, view.schema)
        rewritten = generalized_match(plan, view.definition, view_scan)
        if rewritten is None:
            continue
        cost_with, cost_without = _compare_rewrites(plan, rewritten, ctx)
        if cost_with >= cost_without:
            continue
        if ctx.view_store.claim_for_reuse(view.signature, now,
                                          reused_by=ctx.trace_id) is None:
            continue  # purged under us; try the next candidate
        matches.append(ViewMatch(
            signature=view.signature,
            view_path=view.path,
            view_rows=view.row_count,
            replaced_operators=sum(1 for _ in plan.walk()),
            cost_without=cost_without,
            cost_with=cost_with,
        ))
        return rewritten
    return None


def _compare_rewrites(plan: LogicalPlan, rewritten: LogicalPlan,
                      ctx: OptimizerContext) -> Tuple[float, float]:
    """Cost the two memo alternatives: use the view vs recompute."""
    return (ctx.cost_model.plan_cost(rewritten, ctx.estimator),
            ctx.cost_model.plan_cost(plan, ctx.estimator))


def view_scan_for(view: MaterializedView, columns: Sequence[str],
                  recurring_fallback: str = "") -> ViewScan:
    """The single construction site for ViewScans over a materialized view.

    ``columns`` is the schema of the subexpression being replaced, which
    is the schema the view was built with: both are the one strict
    signature's.  ``recurring_fallback`` is used only when the view
    predates recurring-signature recording.
    """
    return ViewScan(
        signature=view.signature,
        view_path=view.path,
        columns=tuple(columns),
        rows=view.row_count,
        size_bytes=view.size_bytes,
        recurring=view.recurring_signature or recurring_fallback,
    )
