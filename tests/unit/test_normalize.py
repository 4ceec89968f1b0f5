"""Unit tests for plan normalization and logical-plan utilities."""

import pytest

from repro.catalog import Catalog, schema_of
from repro.plan import (
    Filter,
    Join,
    PlanBuilder,
    Project,
    Scan,
    contains_operator,
    normalize,
)
from repro.plan.expressions import BinaryOp, ColumnRef, Literal
from repro.sql import parse


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(schema_of("T", [("a", "int"), ("b", "int"), ("c", "str")]), 10)
    cat.register(schema_of("U", [("a", "int"), ("d", "str")]), 5)
    return cat


def build(catalog, sql):
    return PlanBuilder(catalog).build(parse(sql))


def pred(col, op, value):
    return BinaryOp(op, ColumnRef(col), Literal(value))


class TestNormalize:
    def test_merges_filter_chains(self, catalog):
        scan = Scan("T", ("a", "b", "c"), "g")
        nested = Filter(Filter(scan, pred("a", ">", 1)), pred("b", "<", 5))
        merged = normalize(nested)
        assert isinstance(merged, Filter)
        assert isinstance(merged.child, Scan)

    def test_conjunct_order_canonical(self, catalog):
        scan = Scan("T", ("a", "b", "c"), "g")
        ab = normalize(Filter(scan, BinaryOp(
            "AND", pred("a", ">", 1), pred("b", "<", 5))))
        ba = normalize(Filter(scan, BinaryOp(
            "AND", pred("b", "<", 5), pred("a", ">", 1))))
        assert ab == ba

    def test_duplicate_conjuncts_deduplicated(self, catalog):
        scan = Scan("T", ("a", "b", "c"), "g")
        doubled = Filter(scan, BinaryOp(
            "AND", pred("a", ">", 1), pred("a", ">", 1)))
        merged = normalize(doubled)
        assert merged.predicate == pred("a", ">", 1)

    def test_identity_project_removed(self, catalog):
        scan = Scan("T", ("a", "b", "c"), "g")
        identity = Project(scan, (ColumnRef("a"), ColumnRef("b"),
                                  ColumnRef("c")), ("a", "b", "c"))
        assert normalize(identity) is scan

    def test_renaming_project_kept(self, catalog):
        scan = Scan("T", ("a", "b", "c"), "g")
        renaming = Project(scan, (ColumnRef("a"),), ("x",))
        assert normalize(renaming) == renaming

    def test_reordering_project_kept(self, catalog):
        scan = Scan("T", ("a", "b", "c"), "g")
        reordering = Project(scan, (ColumnRef("b"), ColumnRef("a"),
                                    ColumnRef("c")), ("b", "a", "c"))
        assert isinstance(normalize(reordering), Project)

    def test_join_key_pairs_sorted(self, catalog):
        left = Scan("T", ("a", "b", "c"), "g1")
        right = Scan("U", ("a", "d"), "g2")
        j1 = Join(left, right,
                  (ColumnRef("b"), ColumnRef("a")),
                  (ColumnRef("d"), ColumnRef("a")))
        j2 = Join(left, right,
                  (ColumnRef("a"), ColumnRef("b")),
                  (ColumnRef("a"), ColumnRef("d")))
        assert normalize(j1) == normalize(j2)

    def test_idempotent(self, catalog):
        plan = build(catalog,
                     "SELECT a, COUNT(*) FROM T JOIN U "
                     "WHERE b > 3 AND c = 'x' GROUP BY a")
        once = normalize(plan)
        assert normalize(once) == once


class TestPlanUtilities:
    def test_plan_size(self, catalog):
        plan = build(catalog, "SELECT a FROM T WHERE b > 1")
        assert len(list(plan.walk())) == 3  # Project, Filter, Scan

    def test_contains_operator(self, catalog):
        plan = build(catalog, "SELECT a FROM T JOIN U")
        assert contains_operator(plan, Join)
        from repro.plan import GroupBy
        assert not contains_operator(plan, GroupBy)

    def test_explain_is_indented_tree(self, catalog):
        plan = build(catalog, "SELECT a FROM T WHERE b > 1")
        lines = plan.explain().splitlines()
        assert lines[0].startswith("Project")
        assert lines[1].startswith("  Filter")
        assert lines[2].startswith("    Scan")

    def test_schema_propagation_through_join(self, catalog):
        plan = build(catalog, "SELECT * FROM T JOIN U")
        # Natural join on `a`: the duplicate right copy is dropped.
        assert plan.schema == ("a", "b", "c", "d")

    def test_with_children_arity_checked(self, catalog):
        scan = Scan("T", ("a",), "g")
        from repro.common.errors import PlanError
        with pytest.raises(PlanError):
            scan.with_children([scan])

    def test_invalid_join_type_rejected(self):
        from repro.common.errors import PlanError
        left = Scan("T", ("a",), "g1")
        right = Scan("U", ("a",), "g2")
        with pytest.raises(PlanError):
            Join(left, right, how="full")

    def test_union_arity_mismatch_rejected(self):
        from repro.common.errors import PlanError
        from repro.plan import Union
        one = Scan("T", ("a",), "g1")
        two = Scan("U", ("a", "d"), "g2")
        with pytest.raises(PlanError):
            Union((one, two))

    def test_negative_limit_rejected(self):
        from repro.common.errors import PlanError
        from repro.plan import Limit
        with pytest.raises(PlanError):
            Limit(Scan("T", ("a",), "g"), -1)
