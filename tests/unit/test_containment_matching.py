"""Unit tests for the optional containment-based matching (Section 5.3)."""

import pytest

from repro.catalog import Catalog, schema_of
from repro.executor import Executor
from repro.optimizer import OptimizerContext, match_views
from repro.plan import Filter, PlanBuilder, ViewScan, normalize
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
        ctx = OptimizerContext(catalog=catalog, view_store=ViewStore(),
                               enable_containment=True)
        view_plan = filter_subplan(plan_for(
            catalog, "SELECT CustomerId, Price FROM Sales "
                     "WHERE CustomerId > 5"))
        materialize(ctx, store, executor, view_plan)

        query = plan_for(catalog,
                         "SELECT CustomerId, Price FROM Sales "
                         "WHERE CustomerId > 10")
        outcome = match_views(query, ctx, now=1.0)
        assert outcome.reused
        # Compensating filter over the view scan.
        assert any(isinstance(n, ViewScan) for n in outcome.plan.walk())
        rewritten_rows = executor.execute(outcome.plan).rows
        expected_rows = executor.execute(query).rows
        assert sorted(map(repr, rewritten_rows)) == \
            sorted(map(repr, expected_rows))

    def test_a_match_counts_the_operators_it_replaces(self, env):
        catalog, store = env
        executor = Executor(store)
        ctx = OptimizerContext(catalog=catalog, view_store=ViewStore(),
                               enable_containment=True)
        materialize(ctx, store, executor, filter_subplan(plan_for(
            catalog, "SELECT CustomerId FROM Sales WHERE CustomerId > 5")))
        exact = materialize(ctx, store, executor, filter_subplan(plan_for(
            catalog, "SELECT CustomerId FROM Sales WHERE CustomerId > 30")))
        # The Filter over the Scan, answered from the general view with a
        # compensating filter, and from the exact one as it is.
        for bound, exactly in ((10, False), (30, True)):
            outcome = match_views(plan_for(
                catalog, "SELECT CustomerId FROM Sales "
                         f"WHERE CustomerId > {bound}"), ctx, now=1.0)
            [match] = outcome.matches
            assert (match.signature == exact) is exactly
            assert match.replaced_operators == 2

    def test_non_contained_query_not_rewritten(self, env):
        catalog, store = env
        executor = Executor(store)
        ctx = OptimizerContext(catalog=catalog, view_store=ViewStore(),
                               enable_containment=True)
        view_plan = filter_subplan(plan_for(
            catalog, "SELECT CustomerId, Price FROM Sales "
                     "WHERE CustomerId > 20"))
        materialize(ctx, store, executor, view_plan)
        query = plan_for(catalog,
                         "SELECT CustomerId, Price FROM Sales "
                         "WHERE CustomerId > 10")  # wider than the view
        assert not match_views(query, ctx, now=1.0).reused

    def test_flag_off_means_no_containment(self, env):
        catalog, store = env
        executor = Executor(store)
        ctx = OptimizerContext(catalog=catalog, view_store=ViewStore(),
                               enable_containment=False)
        view_plan = filter_subplan(plan_for(
            catalog, "SELECT CustomerId, Price FROM Sales "
                     "WHERE CustomerId > 5"))
        materialize(ctx, store, executor, view_plan)
        query = plan_for(catalog,
                         "SELECT CustomerId, Price FROM Sales "
                         "WHERE CustomerId > 10")
        assert not match_views(query, ctx, now=1.0).reused

    def test_exact_match_preferred_over_containment(self, env):
        catalog, store = env
        executor = Executor(store)
        ctx = OptimizerContext(catalog=catalog, view_store=ViewStore(),
                               enable_containment=True)
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
        assert outcome.reused
        assert outcome.matches[0].signature == exact_sig

    def test_stale_general_view_ignored(self, env):
        catalog, store = env
        executor = Executor(store)
        ctx = OptimizerContext(catalog=catalog,
                               view_store=ViewStore(ttl_seconds=10.0),
                               enable_containment=True)
        view_plan = filter_subplan(plan_for(
            catalog, "SELECT CustomerId, Price FROM Sales "
                     "WHERE CustomerId > 5"))
        materialize(ctx, store, executor, view_plan)
        query = plan_for(catalog,
                         "SELECT CustomerId, Price FROM Sales "
                         "WHERE CustomerId > 10")
        assert not match_views(query, ctx, now=100.0).reused
