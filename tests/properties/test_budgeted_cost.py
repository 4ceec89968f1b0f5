"""A compile costs only its hits, and a hit's cost check may stop early.

``CostModel.plan_cost(plan, estimator, budget)`` returns once a partial
sum exceeds ``budget``.  These properties hold it to the full costing it
stands in for -- over generated plans, the budgeted answer exceeds the
budget exactly when the full cost does, and is the full cost bit for bit
otherwise -- and guard what that buys: a reuse-off compile builds no
estimator, and a compile with hits estimates only the subtrees its hits
replace and the ViewScans that replace them.
"""

import math

from hypothesis import event, given
from hypothesis import strategies as st

import pytest

from repro.catalog import schema_of
from repro.common.errors import LintError
from repro.engine import ScopeEngine
from repro.engine import engine as engine_module
from repro.optimizer import match_views
from repro.optimizer.context import Annotation
from repro.optimizer.cost import CostModel
from repro.plan.logical import ViewScan
from repro.signatures import enumerate_subexpressions, strict_signature
from tests.properties.test_signature_cache import (
    SETTINGS,
    matching_context,
    plans,
    reusable,
    seal_view_of,
)


def subtree_costs(plan, model, estimator):
    """Every subtree's full cost: the partial sums a budget can cut at."""
    return [model.plan_cost(node, estimator) for node in plan.walk()]


@given(plan=plans, data=st.data())
@SETTINGS
def test_a_budget_decides_as_the_full_cost_and_never_changes_it(plan, data):
    model, estimator = CostModel(), matching_context("s").estimator
    full = model.plan_cost(plan, estimator)
    near = [full, math.nextafter(full, 0.0), math.nextafter(full, math.inf)]
    budget = data.draw(st.one_of(
        st.sampled_from(near + subtree_costs(plan, model, estimator)),
        st.floats(min_value=0.0, max_value=2 * full + 1.0)))
    budgeted = model.plan_cost(plan, estimator, budget)
    assert (budgeted > budget) == (full > budget)
    if full <= budget:
        assert budgeted == full   # the same float, not just close
    assert budgeted <= full


def estimated_nodes(ctx):
    return [node for node, _ in ctx.estimator._memo.values()]


@given(plan=plans, data=st.data())
@SETTINGS
def test_matching_estimates_only_hit_subtrees_and_their_viewscans(plan,
                                                                  data):
    candidates = reusable(plan)
    if not candidates:
        event("skipped: nothing eligible to reuse")
        return
    ctx, chosen = matching_context("s"), data.draw(st.sampled_from(candidates))
    target = strict_signature(chosen, "s")
    seal_view_of(ctx, chosen)
    outcome = match_views(plan, ctx, now=1.0)
    outcome.release_claims(ctx.view_store)
    assert outcome.matches   # a one-row view is cheaper than any operator
    allowed = {id(node) for node in outcome.plan.walk()
               if isinstance(node, ViewScan)}
    for hit in plan.walk():
        if strict_signature(hit, "s") == target:
            allowed.update(id(node) for node in hit.walk())
    assert {id(node) for node in estimated_nodes(ctx)} <= allowed


# --------------------------------------------------------------------- #
# through the engine's compile


VIEW_SQL = "SELECT CustomerId, Price FROM Sales WHERE CustomerId > 5"
QUERY_SQL = ("SELECT CustomerId, SUM(Price) AS s FROM Sales "
             "WHERE CustomerId > 5 GROUP BY CustomerId")


@pytest.fixture
def engine(monkeypatch):
    """An engine with a sealed view of VIEW_SQL's Filter over the Scan,
    and the list every later compile appends its optimizer context to."""
    eng = ScopeEngine()
    eng.register_table(
        schema_of("Sales", [("CustomerId", "int"), ("Price", "float")]),
        [dict(CustomerId=i % 30, Price=float(i)) for i in range(120)])
    plan, _, _ = eng.logical_plan(VIEW_SQL, {})
    eng.insights.publish([
        Annotation(sub.recurring, sub.tag)
        for sub in enumerate_subexpressions(plan, eng.signature_salt)
        if sub.eligible and sub.height >= 1])
    assert eng.run_sql(VIEW_SQL).compiled.built_views == 1
    contexts, real = [], engine_module.optimize
    monkeypatch.setattr(
        engine_module, "optimize",
        lambda plan, ctx, **kw: contexts.append(ctx) or real(plan, ctx, **kw))
    return eng, contexts


def test_a_reuse_off_compile_builds_no_estimator(engine):
    engine, contexts = engine
    compiled = engine.compile(QUERY_SQL, now=1.0, reuse_enabled=False)
    assert not compiled.optimized.matches
    assert "estimator" not in vars(contexts[-1])


def test_a_compile_with_a_hit_estimates_only_what_the_hit_replaces(engine):
    engine, contexts = engine
    compiled = engine.compile(QUERY_SQL, now=1.0)
    [match] = compiled.optimized.matches
    [replaced] = [node for node in compiled.optimized.logical.walk()
                  if strict_signature(node, engine.signature_salt)
                  == match.signature]
    [scan] = [node for node in compiled.plan.walk()
              if isinstance(node, ViewScan)]
    nodes = estimated_nodes(contexts[-1])
    assert {id(node) for node in nodes} \
        <= {id(node) for node in replaced.walk()} | {id(scan)}
    assert any(node is scan for node in nodes)


def test_debug_checks_refuse_a_budgeted_decision_full_costing_disputes(
        engine, monkeypatch):
    engine, _ = engine
    engine.config.debug_checks = True
    real = CostModel.plan_cost
    monkeypatch.setattr(
        CostModel, "plan_cost",
        lambda self, plan, estimator, budget=math.inf:
        0.0 if budget < math.inf else real(self, plan, estimator))
    with pytest.raises(LintError, match="budgeted costing"):
        engine.compile(QUERY_SQL, now=1.0)
