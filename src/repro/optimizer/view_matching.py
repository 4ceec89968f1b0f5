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
from typing import List, Optional, Sequence

from repro.common.errors import LintError
from repro.optimizer.context import OptimizerContext
from repro.plan.logical import LogicalPlan, Scan, ViewScan
from repro.signatures.signature import (
    is_reuse_eligible,
    reference_signatures,
    sign_as,
    signatures,
    with_children_signed_alike,
)
from repro.storage.views import MaterializedView


@dataclass(frozen=True)
class ViewMatch:
    """Record of one reuse decision (for telemetry and user surfacing)."""

    signature: str
    view_path: str
    view_rows: int
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
    signature, recurring, _ = signed = signatures(plan, ctx.salt)
    ctx.recorder.inc("views.match.attempts")
    view = ctx.view_store.lookup(signature, now)
    if view is None:
        return None
    # One ViewScan per hit, costed and returned: it stands for ``plan``,
    # so it is born carrying the triple ``_node_digest`` signs it as.
    scan = sign_as(view_scan_for(view, plan.schema, recurring), signed,
                   ctx.salt)
    if ctx.debug_checks and reference_signatures(scan, ctx.salt) != signed:
        raise LintError(f"the ViewScan over {signature[:8]} does not sign "
                        f"as the subexpression it replaces")
    cost_with = _cost_if_cheaper(plan, scan, ctx)
    if cost_with is None:
        ctx.recorder.inc("views.match.rejected_by_cost")
        return None
    ctx.view_store.claim_for_reuse(signature, now, reused_by=ctx.trace_id)
    ctx.recorder.inc("views.match.hits")
    matches.append(ViewMatch(
        signature=signature,
        view_path=view.path,
        view_rows=view.row_count,
        cost_with=cost_with,
    ))
    return scan


def _cost_if_cheaper(plan: LogicalPlan, rewritten: LogicalPlan,
                     ctx: OptimizerContext) -> Optional[float]:
    """The cost of ``rewritten`` if it is below that of ``plan``, else None.

    The view side is costed in full; the recompute side only until it
    exceeds that (``plan_cost``'s budget), which decides the comparison
    exactly as costing it in full would.
    """
    model, estimator = ctx.cost_model, ctx.estimator
    cost_with = model.plan_cost(rewritten, estimator)
    cheaper = model.plan_cost(plan, estimator, budget=cost_with) > cost_with
    if ctx.debug_checks and \
            cheaper != (model.plan_cost(plan, estimator) > cost_with):
        raise LintError("budgeted costing decided a view match unlike "
                        f"full costing:\n{plan.explain()}")
    return cost_with if cheaper else None


def view_scan_for(view: MaterializedView, columns: Sequence[str],
                  recurring: str) -> ViewScan:
    """The single construction site for ViewScans over a materialized view.

    ``columns`` is the schema of the subexpression being replaced, which
    is the schema the view was built with: both are the one strict
    signature's.  ``recurring`` is that subexpression's recurring
    signature.
    """
    return ViewScan(
        signature=view.signature,
        view_path=view.path,
        columns=tuple(columns),
        rows=view.row_count,
        size_bytes=view.size_bytes,
        recurring=recurring,
    )
