"""The full optimization pipeline applied to every compiled job.

Order mirrors the SCOPE + CloudViews flow:

1. logical rewrites (constant folding, filter pushdown);
2. normalization (the "some normalization" behind signature matching);
3. core search with top-down **view matching**;
4. follow-up **view buildout** (bottom-up spool insertion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.common.errors import LintError
from repro.optimizer.context import OptimizerContext
from repro.optimizer.rules import apply_rewrites
from repro.optimizer.view_buildout import BuildProposal, insert_spools
from repro.optimizer.view_matching import ViewMatch, match_views
from repro.plan.logical import LogicalPlan
from repro.plan.normalize import normalize


@dataclass
class OptimizedPlan:
    """Final plan plus the reuse decisions taken along the way."""

    plan: LogicalPlan
    logical: LogicalPlan          # normalized plan before reuse rewrites
    matches: List[ViewMatch] = field(default_factory=list)
    proposals: List[BuildProposal] = field(default_factory=list)
    estimated_cost: float = 0.0
    estimated_cost_without_reuse: float = 0.0

    @property
    def reused_views(self) -> int:
        return len(self.matches)

    @property
    def built_views(self) -> int:
        return len(self.proposals)


def optimize(plan: LogicalPlan, ctx: OptimizerContext, now: float = 0.0,
             normalized: bool = False) -> OptimizedPlan:
    """Run rewrites, normalization, view matching, and view buildout.

    ``normalized`` says steps 1-2 would hand ``plan`` back unchanged (the
    engine has just run them); they are then skipped, or in debug mode run
    to check that claim.
    """
    logical = plan if normalized and not ctx.debug_checks \
        else normalize(apply_rewrites(plan))
    if normalized and logical is not plan:
        raise LintError("optimize() was told an unnormalized plan is "
                        f"normalized:\n{plan.explain()}")
    cost_without = ctx.cost_model.plan_cost(logical, ctx.estimator)

    match_span = ctx.recorder.start_span(
        "view.match", trace_id=ctx.trace_id, at=now, parent=ctx.compile_span)
    matched = match_views(logical, ctx, now)
    match_span.annotate("matches", len(matched.matches)).finish(at=now)
    # The claims hold pins until compilation is done, so buildout and
    # costing never see a claimed view swept or re-begun by a concurrent
    # GC sweep or producer (see ``MatchOutcome.release_claims``).
    try:
        build_span = ctx.recorder.start_span(
            "view.buildout", trace_id=ctx.trace_id, at=now,
            parent=ctx.compile_span)
        built = insert_spools(matched.plan, ctx, now)
        build_span.annotate("proposals", len(built.proposals)).finish(at=now)
        final_cost = ctx.cost_model.plan_cost(built.plan, ctx.estimator)
    finally:
        matched.release_claims(ctx.view_store)
    return OptimizedPlan(
        plan=built.plan,
        logical=logical,
        matches=matched.matches,
        proposals=built.proposals,
        estimated_cost=final_cost,
        estimated_cost_without_reuse=cost_without,
    )
