"""Unit tests for rewrite rules, cardinality estimation, and costing."""

import pytest

from repro.catalog import Catalog, schema_of
from repro.optimizer import (
    CardinalityEstimator,
    CostModel,
    StatisticsCatalog,
    apply_rewrites,
    fold_constants,
    push_filters,
)
from repro.plan import (
    Filter,
    GroupBy,
    Join,
    Literal,
    PlanBuilder,
    Project,
    Scan,
    Union,
    ViewScan,
    normalize,
)
from repro.signatures import recurring_signature, strict_signature
from repro.sql import parse


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(schema_of("Sales", [
        ("CustomerId", "int"), ("PartId", "int"), ("Price", "float"),
        ("Day", "str")]), 1000)
    cat.register(schema_of("Customer", [
        ("CustomerId", "int"), ("MktSegment", "str")]), 100)
    cat.register(schema_of("Parts", [
        ("PartId", "int"), ("Brand", "str")]), 50)
    return cat


def build(catalog, sql, params=None):
    return PlanBuilder(catalog, params).build(parse(sql))


class TestFilterPushdown:
    def test_filter_sinks_below_join(self, catalog):
        plan = push_filters(build(
            catalog,
            "SELECT CustomerId FROM Sales JOIN Customer "
            "WHERE MktSegment = 'Asia'"))
        join = next(n for n in plan.walk() if isinstance(n, Join))
        # The segment predicate must now live under the join's right side.
        right_filters = [n for n in join.right.walk() if isinstance(n, Filter)]
        assert right_filters

    def test_left_side_predicate_sinks_left(self, catalog):
        plan = push_filters(build(
            catalog,
            "SELECT CustomerId FROM Sales JOIN Customer WHERE Price > 5"))
        join = next(n for n in plan.walk() if isinstance(n, Join))
        assert any(isinstance(n, Filter) for n in join.left.walk())

    def test_mixed_predicate_splits(self, catalog):
        plan = push_filters(build(
            catalog,
            "SELECT CustomerId FROM Sales JOIN Customer "
            "WHERE Price > 5 AND MktSegment = 'Asia'"))
        join = next(n for n in plan.walk() if isinstance(n, Join))
        assert any(isinstance(n, Filter) for n in join.left.walk())
        assert any(isinstance(n, Filter) for n in join.right.walk())

    def test_right_push_blocked_for_left_join(self, catalog):
        plan = push_filters(build(
            catalog,
            "SELECT s.CustomerId FROM Sales s "
            "LEFT JOIN Customer c ON s.CustomerId = c.CustomerId "
            "WHERE MktSegment = 'Asia'"))
        # The predicate over the nullable side must stay above the join.
        assert isinstance(plan.child if isinstance(plan, Project) else plan,
                          (Filter, Project)) or True
        join = next(n for n in plan.walk() if isinstance(n, Join))
        assert not any(isinstance(n, Filter) for n in join.right.walk())

    def test_push_through_project_substitutes(self, catalog):
        plan = build(catalog,
                     "SELECT n FROM (SELECT Price * 2 AS n FROM Sales) t "
                     "WHERE n > 10")
        pushed = push_filters(plan)
        filters = [n for n in pushed.walk() if isinstance(n, Filter)]
        assert len(filters) == 1
        assert isinstance(filters[0].child, Scan)
        assert "Price" in filters[0].predicate.to_sql()

    def test_push_into_union(self, catalog):
        plan = build(catalog,
                     "SELECT Brand AS n FROM Parts "
                     "UNION ALL SELECT MktSegment AS n FROM Customer")
        pushed = push_filters(Filter(plan, parse_pred(catalog)))
        union = next(n for n in pushed.walk() if isinstance(n, Union))
        assert all(any(isinstance(m, Filter) for m in child.walk())
                   for child in union.inputs)

    def test_push_below_group_by_keys_only(self, catalog):
        plan = build(catalog,
                     "SELECT CustomerId, SUM(Price) AS s FROM Sales "
                     "GROUP BY CustomerId")
        from repro.plan.expressions import BinaryOp, ColumnRef
        pred = BinaryOp("=", ColumnRef("CustomerId"), Literal(1))
        pushed = push_filters(Filter(plan, pred))
        group = next(n for n in pushed.walk() if isinstance(n, GroupBy))
        assert isinstance(group.child, Filter)

    def test_aggregate_filter_not_pushed_below_group(self, catalog):
        plan = build(catalog,
                     "SELECT CustomerId, SUM(Price) AS s FROM Sales "
                     "GROUP BY CustomerId")
        from repro.plan.expressions import BinaryOp, ColumnRef
        pred = BinaryOp(">", ColumnRef("s"), Literal(10))
        pushed = push_filters(Filter(plan, pred))
        # The filter may slide through the projection (s -> its aggregate
        # column), but never below the GroupBy that computes it.
        group = next(n for n in pushed.walk() if isinstance(n, GroupBy))
        assert not any(isinstance(n, Filter) for n in group.child.walk())
        assert any(isinstance(n, Filter) for n in pushed.walk())

    def test_key_filter_above_a_having_sinks_below_the_group(self):
        """A key conjunct stacked on an aggregate one (a WHERE over a
        HAVING) sinks below the group, so a rewritten, normalized plan is
        a fixpoint of pushdown (a hypothesis counter-example once)."""
        from repro.plan.expressions import BinaryOp, ColumnRef, FuncCall
        a, b = ColumnRef("a"), ColumnRef("b")
        group = GroupBy(Scan("S", ("a", "b")), (a,),
                        (FuncCall("SUM", (b,)),), ("a", "b"))
        plan = Filter(Filter(group, BinaryOp("=", b, Literal(0))),
                      BinaryOp("=", a, Literal(0)))
        once = normalize(apply_rewrites(plan))
        assert push_filters(once) is once
        sunk = next(n for n in once.walk() if isinstance(n, GroupBy))
        assert isinstance(sunk.child, Filter)

    def test_pushdown_exposes_fig4_sharing(self, catalog):
        """The paper's Figure 4: after pushdown, the Sales-Customer
        fragment is identical across differently-shaped queries."""
        q1 = ("SELECT CustomerId, AVG(Price) FROM Sales JOIN Customer "
              "WHERE MktSegment = 'Asia' GROUP BY CustomerId")
        q2 = ("SELECT Brand, COUNT(*) FROM Sales JOIN Customer JOIN Parts "
              "WHERE MktSegment = 'Asia' GROUP BY Brand")
        p1 = normalize(apply_rewrites(build(catalog, q1)))
        p2 = normalize(apply_rewrites(build(catalog, q2)))
        sigs1 = {strict_signature(n) for n in p1.walk()}
        shared_joins = [n for n in p2.walk() if isinstance(n, Join)
                        and strict_signature(n) in sigs1]
        assert shared_joins


def parse_pred(catalog):
    from repro.plan.expressions import BinaryOp, ColumnRef
    return BinaryOp("<>", ColumnRef("n"), Literal("zzz"))


class TestConstantFolding:
    def test_folds_literal_arithmetic(self, catalog):
        plan = fold_constants(build(
            catalog, "SELECT CustomerId FROM Sales WHERE Price > 2 + 3"))
        flt = next(n for n in plan.walk() if isinstance(n, Filter))
        assert flt.predicate.right == Literal(5)

    def test_param_literals_never_folded(self, catalog):
        plan = build(catalog,
                     "SELECT CustomerId FROM Sales WHERE Day = @run",
                     params={"run": "d1"})
        folded = fold_constants(plan)
        flt = next(n for n in folded.walk() if isinstance(n, Filter))
        assert flt.predicate.right.param_name == "run"

    def test_folding_and_normalization_unify_spellings(self, catalog):
        a = normalize(apply_rewrites(build(
            catalog, "SELECT CustomerId FROM Sales WHERE Price > 6")))
        b = normalize(apply_rewrites(build(
            catalog, "SELECT CustomerId FROM Sales WHERE Price > 2 * 3")))
        assert strict_signature(a) == strict_signature(b)

    def test_apply_rewrites_reaches_fixpoint(self, catalog):
        plan = build(catalog,
                     "SELECT CustomerId FROM Sales JOIN Customer "
                     "WHERE MktSegment = 'Asia' AND Price > 1 + 1")
        once = apply_rewrites(plan)
        twice = apply_rewrites(once)
        assert once == twice


class TestCardinalityEstimation:
    def test_scan_uses_catalog(self, catalog):
        estimator = CardinalityEstimator(catalog)
        plan = build(catalog, "SELECT CustomerId FROM Sales")
        scan = next(n for n in plan.walk() if isinstance(n, Scan))
        assert estimator.estimate(scan) == 1000.0

    def test_filter_reduces_estimate(self, catalog):
        estimator = CardinalityEstimator(catalog)
        plan = build(catalog, "SELECT CustomerId FROM Sales WHERE Price > 5")
        flt = next(n for n in plan.walk() if isinstance(n, Filter))
        assert estimator.estimate(flt) < estimator.estimate(flt.child)

    def test_join_overestimation_bias(self, catalog):
        low = CardinalityEstimator(catalog, overestimate=1.0)
        high = CardinalityEstimator(catalog, overestimate=3.0)
        plan = build(catalog, "SELECT CustomerId FROM Sales JOIN Customer")
        join = next(n for n in plan.walk() if isinstance(n, Join))
        assert high.estimate(join) > low.estimate(join)

    def test_viewscan_estimate_is_exact(self, catalog):
        estimator = CardinalityEstimator(catalog, overestimate=5.0)
        view = ViewScan("sig", "path", ("a",), rows=42)
        assert estimator.estimate(view) == 42.0

    def test_history_overrides_formula(self, catalog):
        history = StatisticsCatalog()
        plan = normalize(build(
            catalog, "SELECT CustomerId FROM Sales WHERE Price > 5"))
        history.record(strict_signature(plan), recurring_signature(plan),
                       rows=7, size=56)
        estimator = CardinalityEstimator(catalog, history)
        assert estimator.estimate(plan) == 7.0

    def test_recurring_history_fallback(self, catalog):
        history = StatisticsCatalog()
        plan = normalize(build(
            catalog, "SELECT CustomerId FROM Sales WHERE Day = @r",
            params={"r": "d1"}))
        history.record("other-strict", recurring_signature(plan),
                       rows=13, size=100)
        estimator = CardinalityEstimator(catalog, history)
        assert estimator.estimate(plan) == 13.0

    def test_limit_caps_estimate(self, catalog):
        estimator = CardinalityEstimator(catalog)
        plan = build(catalog, "SELECT CustomerId FROM Sales LIMIT 5")
        assert estimator.estimate(plan) == 5.0

    def test_statistics_catalog_smoothing(self):
        history = StatisticsCatalog()
        history.record("s", "r", rows=100, size=800)
        history.record("s", "r", rows=0, size=0)
        assert history.rows_for_strict("s") == 50
        assert history.rows_for_recurring("r") == 50


class TestOneEstimatePerNode:
    """One estimator per compile, each node object estimated once -- and
    every cost the identical float a fresh estimator per call gives."""

    SQL = ("SELECT MktSegment, SUM(Price) AS total FROM Sales JOIN Customer "
           "JOIN Parts WHERE Day = @d AND Brand = 'b1' GROUP BY MktSegment")

    def test_each_node_is_estimated_once(self, catalog, monkeypatch):
        plan = normalize(apply_rewrites(build(catalog, self.SQL,
                                              {"d": "d1"})))
        estimator = CardinalityEstimator(catalog, StatisticsCatalog())
        calls = []
        real = estimator._estimate
        monkeypatch.setattr(
            estimator, "_estimate",
            lambda node: calls.append(node) or real(node))
        model = CostModel()
        first = model.plan_cost(plan, estimator)
        assert model.plan_cost(plan, estimator) == first
        nodes = list(plan.walk())
        assert len(calls) == len(nodes)
        assert {id(node) for node in calls} == {id(node) for node in nodes}

    def test_costs_equal_a_fresh_estimator_per_call(self, catalog):
        history = StatisticsCatalog()
        plan = normalize(apply_rewrites(build(catalog, self.SQL,
                                              {"d": "d1"})))
        join = next(n for n in plan.walk() if isinstance(n, Join))
        history.record(strict_signature(join), recurring_signature(join),
                       rows=17, size=100)
        shared = CardinalityEstimator(catalog, history)
        model = CostModel()
        for node in plan.walk():
            fresh = CardinalityEstimator(catalog, history)
            assert model.plan_cost(node, shared) \
                == model.plan_cost(node, fresh)
            assert shared.estimate(node) == fresh.estimate(node)

    def test_memo_is_by_object_and_short_lived_nodes_do_not_alias(
            self, catalog):
        """The memo holds each node it answered for, so a temporary's
        ``id`` cannot be reused by the next one (``Literal(1) ==
        Literal(True)`` rules out keying by equality instead)."""
        estimator = CardinalityEstimator(catalog)
        for rows in range(200):
            assert estimator.estimate(
                ViewScan("sig", "path", ("a",), rows=rows)) == float(rows)

    def test_context_holds_one_estimator(self, catalog):
        from repro.optimizer import OptimizerContext
        from repro.storage import ViewStore
        ctx = OptimizerContext(catalog=catalog, view_store=ViewStore())
        assert ctx.estimator is ctx.estimator
        other = OptimizerContext(catalog=catalog, view_store=ViewStore())
        assert other.estimator is not ctx.estimator


class TestCostModel:
    def test_viewscan_cheaper_than_big_subtree(self, catalog):
        model = CostModel()
        estimator = CardinalityEstimator(catalog)
        plan = normalize(build(
            catalog,
            "SELECT CustomerId FROM Sales JOIN Customer "
            "WHERE MktSegment = 'Asia'"))
        view = ViewScan("sig", "path", plan.schema, rows=50)
        assert model.plan_cost(view, estimator) < model.plan_cost(plan, estimator)

    def test_huge_view_not_cheaper(self, catalog):
        model = CostModel()
        estimator = CardinalityEstimator(catalog)
        plan = normalize(build(catalog, "SELECT CustomerId FROM Sales"))
        view = ViewScan("sig", "path", plan.schema, rows=10_000_000)
        assert model.plan_cost(view, estimator) > model.plan_cost(plan, estimator)

    def test_spool_adds_materialization_overhead(self, catalog):
        from repro.plan import Spool
        model = CostModel()
        estimator = CardinalityEstimator(catalog)
        plan = normalize(build(catalog, "SELECT CustomerId FROM Sales"))
        spooled = Spool(plan, "sig", "path")
        assert model.plan_cost(spooled, estimator) > model.plan_cost(plan, estimator)

    def test_cost_monotone_in_plan_size(self, catalog):
        model = CostModel()
        estimator = CardinalityEstimator(catalog)
        small = normalize(build(catalog, "SELECT CustomerId FROM Sales"))
        big = normalize(build(
            catalog,
            "SELECT CustomerId, COUNT(*) FROM Sales JOIN Customer "
            "GROUP BY CustomerId"))
        assert model.plan_cost(big, estimator) > model.plan_cost(small, estimator)
