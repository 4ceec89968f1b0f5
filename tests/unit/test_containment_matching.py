"""Matching is hash equality; containment is a verdict beside it (Section 5.3).

The production matcher answers a subexpression only from a view of its own
strict signature (Section 2.3).  A more general view that contains the
query stays unused by ``match_views``; ``ContainmentChecker.contains``
says whether it could answer it, and a compensating filter over its rows
then gives the query's rows.
"""

import pytest

from repro.catalog import Catalog, schema_of
from repro.executor import Executor
from repro.extensions import ContainmentChecker
from repro.optimizer import OptimizerContext, match_views
from repro.plan import Filter, PlanBuilder, Scan, ViewScan, normalize
from repro.optimizer.rules import apply_rewrites
from repro.signatures import recurring_signature, strict_signature
from repro.sql import parse
from repro.storage import DataStore, ViewStore


@pytest.fixture
def env():
    catalog = Catalog()
    store = DataStore()
    version = catalog.register(
        schema_of("Sales", [("CustomerId", "int"), ("Price", "float")]), 200)
    store.put(version.guid,
              [dict(CustomerId=i % 40, Price=float(i)) for i in range(200)])
    return catalog, store


def plan_for(catalog, sql):
    return normalize(apply_rewrites(PlanBuilder(catalog).build(parse(sql))))


def filter_subplan(plan):
    return next(n for n in plan.walk() if isinstance(n, Filter))


def materialize(ctx, store, executor, view_plan, now=0.0):
    signature = strict_signature(view_plan)
    rows = executor.execute(view_plan).rows
    path = f"views/{signature}"
    store.put(path, rows)
    ctx.view_store.begin_materialize(
        signature, path, view_plan.schema, "vc", now,
        recurring_signature=recurring_signature(view_plan),
        definition=view_plan)
    ctx.view_store.seal(signature, now, len(rows), len(rows) * 16)
    return signature


class TestContainmentMatching:
    def test_contained_query_answered_with_compensation(self, env):
        catalog, store = env
        executor = Executor(store)
        view_plan = filter_subplan(plan_for(
            catalog, "SELECT CustomerId, Price FROM Sales "
                     "WHERE CustomerId > 5"))
        query = filter_subplan(plan_for(
            catalog, "SELECT CustomerId, Price FROM Sales "
                     "WHERE CustomerId > 10"))
        assert ContainmentChecker().contains(view_plan.predicate,
                                             query.predicate)
        # The query's own predicate, re-applied over the view's rows.
        compensated = Filter(view_plan, query.predicate)
        assert sorted(map(repr, executor.execute(compensated).rows)) == \
            sorted(map(repr, executor.execute(query).rows))

    def test_a_match_replaces_the_filter_over_the_scan(self, env):
        catalog, store = env
        executor = Executor(store)
        ctx = OptimizerContext(catalog=catalog, view_store=ViewStore())
        materialize(ctx, store, executor, filter_subplan(plan_for(
            catalog, "SELECT CustomerId FROM Sales WHERE CustomerId > 5")))
        exact = materialize(ctx, store, executor, filter_subplan(plan_for(
            catalog, "SELECT CustomerId FROM Sales WHERE CustomerId > 30")))
        outcome = match_views(plan_for(
            catalog, "SELECT CustomerId FROM Sales WHERE CustomerId > 30"),
            ctx, now=1.0)
        [match] = outcome.matches
        assert match.signature == exact
        [replaced] = [node for node in outcome.plan.walk()
                      if isinstance(node, (Filter, ViewScan))]
        assert isinstance(replaced, ViewScan)
        assert replaced.signature == exact
        assert not any(isinstance(node, Scan)
                       for node in outcome.plan.walk())

    def test_non_contained_query_not_rewritten(self, env):
        catalog, store = env
        executor = Executor(store)
        ctx = OptimizerContext(catalog=catalog, view_store=ViewStore())
        view_plan = filter_subplan(plan_for(
            catalog, "SELECT CustomerId, Price FROM Sales "
                     "WHERE CustomerId > 20"))
        materialize(ctx, store, executor, view_plan)
        query = plan_for(catalog,
                         "SELECT CustomerId, Price FROM Sales "
                         "WHERE CustomerId > 10")  # wider than the view
        assert not ContainmentChecker().contains(
            view_plan.predicate, filter_subplan(query).predicate)
        assert not match_views(query, ctx, now=1.0).reused

    def test_a_general_view_is_never_matched(self, env):
        """A view that contains the query still does not answer it."""
        catalog, store = env
        executor = Executor(store)
        ctx = OptimizerContext(catalog=catalog, view_store=ViewStore())
        view_plan = filter_subplan(plan_for(
            catalog, "SELECT CustomerId, Price FROM Sales "
                     "WHERE CustomerId > 5"))
        materialize(ctx, store, executor, view_plan)
        query = plan_for(catalog,
                         "SELECT CustomerId, Price FROM Sales "
                         "WHERE CustomerId > 10")
        assert ContainmentChecker().contains(
            view_plan.predicate, filter_subplan(query).predicate)
        assert not match_views(query, ctx, now=1.0).reused

    def test_exact_match_preferred_over_containment(self, env):
        catalog, store = env
        executor = Executor(store)
        ctx = OptimizerContext(catalog=catalog, view_store=ViewStore())
        general = filter_subplan(plan_for(
            catalog, "SELECT CustomerId, Price FROM Sales "
                     "WHERE CustomerId > 5"))
        exact = filter_subplan(plan_for(
            catalog, "SELECT CustomerId, Price FROM Sales "
                     "WHERE CustomerId > 10"))
        materialize(ctx, store, executor, general)
        exact_sig = materialize(ctx, store, executor, exact, now=0.5)
        query = plan_for(catalog,
                         "SELECT CustomerId, Price FROM Sales "
                         "WHERE CustomerId > 10")
        outcome = match_views(query, ctx, now=1.0)
        assert [match.signature for match in outcome.matches] == [exact_sig]

    def test_stale_general_view_ignored(self, env):
        catalog, store = env
        executor = Executor(store)
        ctx = OptimizerContext(catalog=catalog,
                               view_store=ViewStore(ttl_seconds=10.0))
        for bound in (5, 10):  # a general view and the exact one
            materialize(ctx, store, executor, filter_subplan(plan_for(
                catalog, "SELECT CustomerId, Price FROM Sales "
                         f"WHERE CustomerId > {bound}")))
        query = plan_for(catalog,
                         "SELECT CustomerId, Price FROM Sales "
                         "WHERE CustomerId > 10")
        assert match_views(query, ctx, now=1.0).reused
        assert not match_views(query, ctx, now=100.0).reused
