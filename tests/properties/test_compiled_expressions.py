"""Expressions compiled over a batch against the reference interpretation.

``Expr.evaluate`` is the semantics, row by row; ``Expr.compile`` is what
the executor runs, once over a whole batch of columns.  Over generated
expression trees and NULL-heavy rows of mixed types the two must agree at
every position on the value (and its type -- ``True`` is not ``1``).  A
batch raises exactly when some row's ``evaluate`` raises, with that row's
exception type and message; a batch of one row is ``evaluate`` outright.
``AND`` / ``OR`` / ``CASE`` must not evaluate an arm over a position an
earlier arm decided, and an empty batch must evaluate nothing.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.plan import expressions as expressions_module
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
from repro.storage.batch import Columns
from tests.batches import evaluate_batch

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


def outcome(function, argument):
    try:
        return ("value", function(argument))
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return ("error", type(error), str(error))


def same_value(a, b):
    return type(a) is type(b) and (a == b or (a != a and b != b))


def same(left, right):
    if left[0] != right[0] or left[0] == "error":
        return left == right
    return same_value(left[1], right[1])


def assert_batch_matches(expr, rows):
    """``expr`` over ``rows`` as one batch against ``evaluate`` per row."""
    expected = [outcome(expr.evaluate, dict(row)) for row in rows]
    actual = outcome(lambda many: evaluate_batch(expr, many),
                     [dict(row) for row in rows])
    errors = [each for each in expected if each[0] == "error"]
    context = (expr.to_sql(), rows, expected, actual)
    if errors:
        # Which failing row a batch reports is its own business; that it
        # fails, and as one of them does, is not.
        assert actual in errors, context
    else:
        assert actual[0] == "value", context
        assert len(actual[1]) == len(rows), context
        assert all(same_value(want[1], got)
                   for want, got in zip(expected, actual[1])), context
    return expected, actual


def assert_compiled_matches(expr, row):
    """One row: the batch is ``evaluate``, errors included."""
    (expected,), actual = assert_batch_matches(expr, [row])
    if expected[0] == "value":
        actual = ("value", actual[1][0])
    assert same(expected, actual), (expr.to_sql(), row, expected, actual)
    return expected


@SETTINGS
@given(expressions, rows)
def test_compiled_closure_is_evaluate(expr, row):
    assert_compiled_matches(expr, row)


@SETTINGS
@given(expressions, st.lists(rows, min_size=2, max_size=6))
def test_one_closure_serves_every_row(expr, many):
    assert_batch_matches(expr, many)


@SETTINGS
@given(expressions)
def test_an_empty_batch_evaluates_nothing(expr):
    """No row, no error -- whatever column or function is missing."""
    assert expr.compile()(Columns({}), 0) == []
    assert evaluate_batch(expr, []) == []


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
        compiled(Columns({name: [value] for name, value in ROW.items()}),
                 1)
    assert compiled(Columns({}), 0) == []


def test_unknown_operator_over_null_is_null_not_an_error():
    expr = BinaryOp("^", ColumnRef("b"), Literal(1))
    assert assert_compiled_matches(expr, ROW) == ("value", None)


# --------------------------------------------------------------------- #
# what batches get wrong first

#: Raises for any row it is evaluated over.
BOOM = ColumnRef("missing")
A, B = ColumnRef("a"), ColumnRef("b")
ROWS = [{"a": 1, "b": None}, {"a": None, "b": 2}, {"a": 0, "b": 0},
        {"a": 2, "b": "x"}]


@pytest.mark.parametrize("expr, expected", [
    # An erroring right-hand side behind an arm that decides every row.
    (BinaryOp("AND", UnaryOp("ISNULL", Literal(1)), BOOM), [False] * 4),
    (BinaryOp("OR", UnaryOp("ISNOTNULL", Literal(1)), BOOM), [True] * 4),
    (CaseWhen((Literal(True),), (A,), BOOM), [1, None, 0, 2]),
    (CaseWhen((Literal(False),), (BOOM,), B), [None, 2, 0, "x"]),
    # ... and behind one that decides only the rows it would fail on:
    # ``b < 1`` raises for the string, which ``a < 2`` keeps it from.
    (BinaryOp("AND", BinaryOp("<", A, Literal(2)),
              BinaryOp("<", B, Literal(1))), [False, False, True, False]),
    (BinaryOp("OR", BinaryOp(">=", A, Literal(2)),
              BinaryOp("<", B, Literal(1))), [False, False, True, True]),
    (CaseWhen((BinaryOp(">=", A, Literal(2)),), (Literal("big"),),
              BinaryOp("+", B, Literal(1))), [None, 3, 1, "big"]),
    # 3VL: a NULL comparison is false, so NOT of it is true.
    (UnaryOp("NOT", BinaryOp("=", A, B)), [True, True, False, True]),
    (BinaryOp("<>", A, B), [False, False, False, True]),
    # AND / OR yield booleans, whatever their arms hold.
    (BinaryOp("AND", A, B), [False, False, False, True]),
    (BinaryOp("OR", A, B), [True, True, False, True]),
    # Zero divisors, per position.
    (BinaryOp("/", A, A), [1.0, None, None, 1.0]),
    (BinaryOp("%", Literal(5), A), [0, None, None, 1]),
])
def test_named_batches(expr, expected):
    wanted, actual = assert_batch_matches(expr, ROWS)
    assert [each[1] for each in wanted] == expected
    assert all(same_value(want, got)
               for want, got in zip(expected, actual[1]))


def test_mixed_type_ordering_raises_as_the_row_does():
    expr = BinaryOp("<", A, B)
    _, actual = assert_batch_matches(expr, ROWS)
    assert actual == ("error", TypeError,
                      "'<' not supported between instances of 'int' and 'str'")


def test_suffix_and_ambiguity_resolve_once_per_batch():
    rows = [{"t.x": 1, "t.q": 2, "u.q": 3}, {"t.x": None, "t.q": 4, "u.q": 5}]
    assert evaluate_batch(ColumnRef("x"), rows) == [1, None]
    assert evaluate_batch(ColumnRef("x", "z"), rows) == [1, None]
    _, actual = assert_batch_matches(ColumnRef("q"), rows)
    assert actual == ("error", ExecutionError,
                      "column 'q' not found in row ['t.q', 't.x', 'u.q']")


def test_the_short_circuit_rule_is_what_the_property_checks(monkeypatch):
    """With the connective running its right arm over every position,
    the property fails: the oracle is sharp."""
    def eager(left, right, is_or):
        def connective(columns, n):
            first, second = left(columns, n), right(columns, n)
            return [bool(a) or bool(b) if is_or else bool(a) and bool(b)
                    for a, b in zip(first, second)]
        return connective

    expr = BinaryOp("AND", UnaryOp("ISNULL", Literal(1)), BOOM)
    assert_batch_matches(expr, ROWS)
    monkeypatch.setattr(expressions_module, "_connective", eager)
    with pytest.raises(AssertionError):
        assert_batch_matches(expr, ROWS)


def test_the_empty_batch_rule_is_what_the_property_checks():
    """The kernel under ``compile``'s guard does raise on no rows."""
    with pytest.raises(ExecutionError):
        BOOM._kernel()(Columns({}), 0)
    assert BOOM.compile()(Columns({}), 0) == []
