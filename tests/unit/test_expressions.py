"""Unit tests for expression evaluation and canonicalization."""

import pytest

from repro.common.errors import ExecutionError
from repro.plan.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    FuncCall,
    Literal,
    Star,
    UnaryOp,
    conjoin,
    conjuncts,
    rewrite,
)
from repro.plan.logical import Filter, Scan
from repro.signatures import recurring_signature, strict_signature


def col(name):
    return ColumnRef(name)


def lit(value):
    return Literal(value)


class TestEvaluation:
    def test_column_lookup(self):
        assert col("a").evaluate({"a": 5}) == 5

    def test_qualified_column_lookup(self):
        ref = ColumnRef("a", table="t")
        assert ref.evaluate({"t.a": 7}) == 7

    def test_qualified_falls_back_to_plain(self):
        ref = ColumnRef("a", table="t")
        assert ref.evaluate({"a": 7}) == 7

    def test_missing_column_raises(self):
        with pytest.raises(ExecutionError):
            col("missing").evaluate({"a": 1})

    def test_arithmetic(self):
        expr = BinaryOp("+", col("a"), BinaryOp("*", col("b"), lit(2)))
        assert expr.evaluate({"a": 1, "b": 3}) == 7

    def test_division_by_zero_is_null(self):
        assert BinaryOp("/", lit(1), lit(0)).evaluate({}) is None

    def test_null_propagates_through_arithmetic(self):
        assert BinaryOp("+", lit(None), lit(1)).evaluate({}) is None

    def test_comparison_with_null_is_false(self):
        assert BinaryOp("=", lit(None), lit(None)).evaluate({}) is False

    def test_comparisons(self):
        row = {"a": 2}
        assert BinaryOp("<", col("a"), lit(3)).evaluate(row) is True
        assert BinaryOp(">=", col("a"), lit(2)).evaluate(row) is True
        assert BinaryOp("<>", col("a"), lit(2)).evaluate(row) is False

    def test_boolean_connectives(self):
        t, f = lit(True), lit(False)
        assert BinaryOp("AND", t, f).evaluate({}) is False
        assert BinaryOp("OR", f, t).evaluate({}) is True
        assert UnaryOp("NOT", f).evaluate({}) is True

    def test_is_null_operators(self):
        assert UnaryOp("ISNULL", lit(None)).evaluate({}) is True
        assert UnaryOp("ISNOTNULL", lit(None)).evaluate({}) is False

    def test_scalar_functions(self):
        assert FuncCall("UPPER", (lit("abc"),)).evaluate({}) == "ABC"
        assert FuncCall("ABS", (lit(-4),)).evaluate({}) == 4
        assert FuncCall("COALESCE", (lit(None), lit(2))).evaluate({}) == 2
        assert FuncCall("YEAR", (lit("2020-03-01"),)).evaluate({}) == 2020
        assert FuncCall("SUBSTR", (lit("hello"), lit(1), lit(3))).evaluate({}) == "ell"

    def test_unknown_scalar_function_raises(self):
        with pytest.raises(ExecutionError):
            FuncCall("NOPE", (lit(1),)).evaluate({})

    def test_aggregate_cannot_be_evaluated_directly(self):
        with pytest.raises(ExecutionError):
            FuncCall("SUM", (col("a"),)).evaluate({"a": 1})

    def test_star_cannot_be_evaluated(self):
        with pytest.raises(ExecutionError):
            Star().evaluate({})

    def test_case_when(self):
        expr = CaseWhen((BinaryOp(">", col("a"), lit(0)),),
                        (lit("pos"),), lit("neg"))
        assert expr.evaluate({"a": 5}) == "pos"
        assert expr.evaluate({"a": -5}) == "neg"

    def test_case_without_default_yields_null(self):
        expr = CaseWhen((lit(False),), (lit(1),))
        assert expr.evaluate({}) is None


class TestCanonical:
    def test_commutative_equality(self):
        ab = BinaryOp("=", col("a"), col("b"))
        ba = BinaryOp("=", col("b"), col("a"))
        assert ab.canonical() == ba.canonical()

    def test_comparison_flip(self):
        lt = BinaryOp("<", col("b"), col("a"))
        gt = BinaryOp(">", col("a"), col("b"))
        assert lt.canonical() == gt.canonical()

    def test_non_commutative_preserved(self):
        ab = BinaryOp("-", col("a"), col("b"))
        ba = BinaryOp("-", col("b"), col("a"))
        assert ab.canonical() != ba.canonical()

    def test_literal_type_matters(self):
        assert lit(1).canonical() != lit("1").canonical()

    def test_param_literal_recurring_form(self):
        """The recurring signature keeps the parameter's name and drops
        its value; the strict one keeps the value."""
        def over(literal):
            return Filter(Scan("T", ("d",)), BinaryOp("=", col("d"), literal))

        march = over(Literal("2020-03-01", param_name="runDate"))
        april = over(Literal("2020-04-01", param_name="runDate"))
        assert recurring_signature(march) == recurring_signature(april)
        assert strict_signature(march) != strict_signature(april)
        assert recurring_signature(march) != recurring_signature(
            over(Literal("2020-03-01", param_name="endDate")))
        assert recurring_signature(march) != recurring_signature(
            over(Literal("2020-03-01")))


class TestHelpers:
    def test_conjuncts_flatten(self):
        pred = BinaryOp("AND", BinaryOp("AND", lit(1), lit(2)), lit(3))
        assert [c.value for c in conjuncts(pred)] == [1, 2, 3]

    def test_conjoin_round_trip(self):
        parts = [lit(1), lit(2), lit(3)]
        assert conjuncts(conjoin(parts)) == parts

    def test_conjoin_empty_is_none(self):
        assert conjoin([]) is None

    def test_rewrite_replaces_nodes(self):
        expr = BinaryOp("+", col("a"), col("b"))
        result = rewrite(
            expr, lambda e: lit(0) if isinstance(e, ColumnRef) else None)
        assert result == BinaryOp("+", lit(0), lit(0))

    def test_rewrite_identity_returns_same_tree(self):
        expr = BinaryOp("+", col("a"), col("b"))
        assert rewrite(expr, lambda e: None) is expr

    def test_columns_traversal(self):
        expr = BinaryOp("+", col("a"), FuncCall("ABS", (col("b"),)))
        assert sorted(expr.columns()) == ["a", "b"]

    def test_is_aggregate_detection(self):
        assert FuncCall("SUM", (col("a"),)).is_aggregate()
        assert BinaryOp("+", FuncCall("MAX", (col("a"),)), lit(1)).is_aggregate()
        assert not FuncCall("UPPER", (col("a"),)).is_aggregate()

    def test_output_names(self):
        assert col("a").output_name() == "a"
        assert FuncCall("AVG", (col("Price"),)).output_name() == "avg_Price"
