"""Compiled expression closures against the reference interpretation.

``Expr.evaluate`` is the semantics; ``Expr.compile`` is what the executor
runs per row.  Over generated expression trees and NULL-heavy rows of
mixed types the two must agree on every outcome: the value (and its
type -- ``True`` is not ``1``), or the exception's type and message.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.plan.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    FuncCall,
    InList,
    Like,
    Literal,
    Star,
    UnaryOp,
)

SETTINGS = settings(max_examples=400, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

NAN = float("nan")

values = st.one_of(
    st.none(), st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, 1.0, -2.5, NAN, math.inf]),
    st.sampled_from(["", "a", "ab", "a.b", "A%", "2021-03-04"]),
)

#: Plain columns, ``t.x`` reachable only by suffix, and ``q`` held by two
#: tables (an ambiguous suffix).
COLUMNS = ("a", "b", "s", "t.x", "t.q", "u.q")
rows = st.fixed_dictionaries({name: values for name in COLUMNS})

columns = st.sampled_from([
    ColumnRef("a"), ColumnRef("b"), ColumnRef("s"),
    ColumnRef("x", "t"),        # held under its qualified key
    ColumnRef("x"),             # resolved by suffix
    ColumnRef("x", "z"),        # wrong qualifier, still a unique suffix
    ColumnRef("q"),             # ambiguous suffix
    ColumnRef("missing"),
])
literals = values.map(Literal)

BINARY_OPS = ["AND", "OR", "=", "<>", "<", "<=", ">", ">=",
              "+", "-", "*", "/", "%", "^"]
UNARY_OPS = ["NOT", "-", "ISNULL", "ISNOTNULL", "~"]
FUNCTIONS = ["UPPER", "LEN", "ABS", "ROUND", "FLOOR", "YEAR", "SUBSTR",
             "COALESCE", "IFNULL", "NOPE", "SUM"]
PATTERNS = ["", "%", "_", "a%", "%b", "a.b", "a_b", "A\\%"]


def _extend(children):
    pairs = st.lists(st.tuples(children, children), min_size=1, max_size=2)
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from(BINARY_OPS), children, children),
        st.builds(UnaryOp, st.sampled_from(UNARY_OPS), children),
        st.builds(FuncCall, st.sampled_from(FUNCTIONS),
                  st.lists(children, max_size=3).map(tuple)),
        st.builds(InList, children,
                  st.lists(literals, max_size=3).map(tuple), st.booleans()),
        st.builds(Like, children, st.sampled_from(PATTERNS), st.booleans()),
        st.builds(
            lambda branches, default: CaseWhen(
                tuple(c for c, _ in branches), tuple(r for _, r in branches),
                default),
            pairs, st.none() | children),
    )


expressions = st.recursive(columns | literals, _extend, max_leaves=8)


def outcome(function, row):
    try:
        return ("value", function(row))
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return ("error", type(error), str(error))


def same(left, right):
    if left[0] != right[0] or left[0] == "error":
        return left == right
    a, b = left[1], right[1]
    if type(a) is not type(b):
        return False
    return a == b or (a != a and b != b)


def assert_compiled_matches(expr, row):
    expected = outcome(expr.evaluate, dict(row))
    actual = outcome(expr.compile(), dict(row))
    assert same(expected, actual), (expr.to_sql(), row, expected, actual)
    return expected


@SETTINGS
@given(expressions, rows)
def test_compiled_closure_is_evaluate(expr, row):
    assert_compiled_matches(expr, row)


@SETTINGS
@given(expressions, st.lists(rows, min_size=2, max_size=4))
def test_one_closure_serves_every_row(expr, many):
    compiled = expr.compile()
    for row in many:
        assert same(outcome(expr.evaluate, row), outcome(compiled, row))


#: Values that tell ``==`` from identity and from hashing.
tricky = st.sampled_from([NAN, True, False, 1, 0, 1.0, None, "1"])


@SETTINGS
@given(st.lists(tricky.map(Literal), max_size=4).map(tuple), st.booleans(),
       st.fixed_dictionaries({"a": tricky}))
def test_in_list_compares_by_equality(candidates, negated, row):
    assert_compiled_matches(InList(ColumnRef("a"), candidates, negated), row)


ROW = {"a": 1, "b": None, "s": "ab", "n": NAN, "t.x": 7, "t.q": 1, "u.q": 2}


@pytest.mark.parametrize("expr, expected", [
    # IN compares with ==: a NaN never finds itself, True finds 1.
    (InList(ColumnRef("n"), (Literal(NAN),)), False),
    (InList(ColumnRef("n"), (Literal(NAN),), negated=True), True),
    (InList(ColumnRef("a"), (Literal(True),)), True),
    (InList(Literal(True), (Literal(0), Literal(1))), True),
    (InList(ColumnRef("b"), (Literal(None),)), False),
    # A zero divisor is NULL, whatever its type.
    (BinaryOp("/", ColumnRef("a"), Literal(0)), None),
    (BinaryOp("%", ColumnRef("a"), Literal(0.0)), None),
    (BinaryOp("/", ColumnRef("a"), Literal(False)), None),
    (BinaryOp("/", ColumnRef("a"), Literal(2)), 0.5),
    # Comparisons with NULL are false, in either position.
    (BinaryOp("=", ColumnRef("b"), Literal(1)), False),
    (BinaryOp("<>", Literal(1), ColumnRef("b")), False),
    (BinaryOp("=", ColumnRef("a"), Literal(None)), False),
    # Qualified names: by key, by suffix, by suffix past a wrong qualifier.
    (ColumnRef("x", "t"), 7),
    (ColumnRef("x"), 7),
    (ColumnRef("x", "z"), 7),
    (BinaryOp(">", ColumnRef("x"), Literal(3)), True),
    # CASE without ELSE falls through to NULL.
    (CaseWhen((BinaryOp("=", ColumnRef("a"), Literal(2)),),
              (Literal("two"),)), None),
    (Like(ColumnRef("s"), "a_"), True),
    (Like(ColumnRef("b"), "%", negated=True), False),
])
def test_named_values(expr, expected):
    kind, value = assert_compiled_matches(expr, ROW)
    assert kind == "value"
    assert same(("value", value), ("value", expected))


@pytest.mark.parametrize("expr, message", [
    (ColumnRef("q"), "column 'q' not found in row"),
    (ColumnRef("missing", "t"), "column 't.missing' not found in row"),
    (BinaryOp("=", ColumnRef("missing"), Literal(1)),
     "column 'missing' not found in row"),
    (FuncCall("NOPE", (ColumnRef("a"),)), "unknown scalar function 'NOPE'"),
    (FuncCall("SUM", (ColumnRef("a"),)),
     "aggregate SUM must be evaluated by a GroupBy operator"),
    (BinaryOp("^", ColumnRef("a"), Literal(1)), "unknown binary operator '^'"),
    (UnaryOp("~", ColumnRef("a")), "unknown unary operator '~'"),
    (Star(), "* must be expanded before execution"),
])
def test_named_errors(expr, message):
    compiled = expr.compile()        # compiling never raises; a row does
    kind, error_type, text = assert_compiled_matches(expr, ROW)
    assert (kind, error_type) == ("error", ExecutionError)
    assert text.startswith(message)
    with pytest.raises(ExecutionError):
        compiled(ROW)


def test_unknown_operator_over_null_is_null_not_an_error():
    expr = BinaryOp("^", ColumnRef("b"), Literal(1))
    assert assert_compiled_matches(expr, ROW) == ("value", None)
