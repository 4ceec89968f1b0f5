"""Scalar and aggregate expression trees.

Expressions appear in filters, projections, join conditions, and aggregate
lists of logical plans.  They are immutable; rewrites build new nodes.

Two representations matter for CloudViews:

* :meth:`Expr.canonical` -- a deterministic string used for plan
  normalization and signature hashing.  Commutative operators order their
  operands canonically here, so ``a = b`` and ``b = a`` produce the same
  strict signature (Section 2.3: per-operator *syntactic* equivalence with
  "some normalization").
* :meth:`Expr.evaluate` -- direct interpretation over a row ``dict``: the
  reference semantics (constant folding and the tests use it), and the only
  per-row evaluator.
* :meth:`Expr.compile` -- the same semantics over a whole *batch* (its
  :class:`~repro.storage.batch.Columns` plus a length): one list of values,
  built by a comprehension or a C-level ``map`` per node.  The executor
  compiles each expression once per operator execution; columns are
  resolved once per batch, and ``AND`` / ``OR`` / ``CASE`` evaluate a
  branch only over the positions the earlier ones left undecided -- the
  batch's columns at those positions, ``columns.at(positions)``, a pending
  gather of which a column is built only if the branch reads it -- so an
  error behind a short-circuit surfaces exactly when
  :meth:`Expr.evaluate` would raise it.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.common.errors import ExecutionError, PlanError

Row = Dict[str, object]


class BatchColumns(Protocol):
    """What a compiled expression reads a batch through -- the executor
    hands it a :class:`~repro.storage.batch.Columns`: a column by name,
    the names in order, and ``at``, the columns at some positions, which
    ``AND`` / ``OR`` / ``CASE`` narrow a later arm with.  A plain ``dict``
    has no ``at`` and is not one."""

    def __getitem__(self, name: str) -> list: ...

    def __contains__(self, name: object) -> bool: ...

    def __iter__(self) -> Iterator[str]: ...

    def at(self, positions: Sequence[int]) -> "BatchColumns": ...


#: What :meth:`Expr.compile` returns: a function of a batch -- its columns
#: and its length -- to one value per row.
Compiled = Callable[[BatchColumns, int], list]

#: Operators for which operand order does not change the result.
COMMUTATIVE_OPS = {"=", "<>", "+", "*", "AND", "OR"}

#: Mapping used to flip a comparison when normalization swaps its operands.
_FLIPPED = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}

AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}

#: Three-valued comparison of two columns: NULL on either side is false.
_COMPARISONS: Dict[str, Callable[[list, list], list]] = {
    "=": lambda ls, rs: [a is not None and b is not None and a == b
                         for a, b in zip(ls, rs)],
    "<>": lambda ls, rs: [a is not None and b is not None and a != b
                          for a, b in zip(ls, rs)],
    "<": lambda ls, rs: [a is not None and b is not None and a < b
                         for a, b in zip(ls, rs)],
    "<=": lambda ls, rs: [a is not None and b is not None and a <= b
                          for a, b in zip(ls, rs)],
    ">": lambda ls, rs: [a is not None and b is not None and a > b
                         for a, b in zip(ls, rs)],
    ">=": lambda ls, rs: [a is not None and b is not None and a >= b
                          for a, b in zip(ls, rs)],
}

#: The same against one non-NULL constant: the common filter shape.
_TO_CONSTANT: Dict[str, Callable[[list, object], list]] = {
    "=": lambda xs, c: [x is not None and x == c for x in xs],
    "<>": lambda xs, c: [x is not None and x != c for x in xs],
    "<": lambda xs, c: [x is not None and x < c for x in xs],
    "<=": lambda xs, c: [x is not None and x <= c for x in xs],
    ">": lambda xs, c: [x is not None and x > c for x in xs],
    ">=": lambda xs, c: [x is not None and x >= c for x in xs],
}

#: Arithmetic over two columns; NULL operands and zero divisors yield NULL.
_ARITHMETIC: Dict[str, Callable[[list, list], list]] = {
    "+": lambda ls, rs: [None if a is None or b is None else a + b
                         for a, b in zip(ls, rs)],
    "-": lambda ls, rs: [None if a is None or b is None else a - b
                         for a, b in zip(ls, rs)],
    "*": lambda ls, rs: [None if a is None or b is None else a * b
                         for a, b in zip(ls, rs)],
    "/": lambda ls, rs: [None if a is None or b is None or b == 0 else a / b
                         for a, b in zip(ls, rs)],
    "%": lambda ls, rs: [None if a is None or b is None or b == 0 else a % b
                         for a, b in zip(ls, rs)],
}


def _scalar_registry() -> Dict[str, Callable[..., object]]:
    """Built-in scalar functions available to queries and UDO-free plans."""

    def _substr(s: object, start: object, length: object = None) -> object:
        if s is None:
            return None
        text = str(s)
        begin = int(start)
        if length is None:
            return text[begin:]
        return text[begin:begin + int(length)]

    return {
        "UPPER": lambda s: None if s is None else str(s).upper(),
        "LOWER": lambda s: None if s is None else str(s).lower(),
        "LEN": lambda s: None if s is None else len(str(s)),
        "ABS": lambda x: None if x is None else abs(x),
        "ROUND": lambda x, n=0: None if x is None else round(x, int(n)),
        "FLOOR": lambda x: None if x is None else float(int(x // 1)),
        "YEAR": lambda d: None if d is None else int(str(d)[:4]),
        "MONTH": lambda d: None if d is None else int(str(d)[5:7]),
        "SUBSTR": _substr,
        "COALESCE": lambda *args: next((a for a in args if a is not None), None),
        "IFNULL": lambda a, b: b if a is None else a,
    }


SCALAR_FUNCTIONS = _scalar_registry()


@dataclass(frozen=True)
class Expr:
    """Base class for all expression nodes."""

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def with_children(self, children: Sequence["Expr"]) -> "Expr":
        """Rebuild this node with replacement children (same arity)."""
        if children:
            raise PlanError(f"{type(self).__name__} takes no children")
        return self

    def evaluate(self, row: Row) -> object:
        raise NotImplementedError

    def compile(self) -> Compiled:
        """The expression over a batch: position by position exactly
        :meth:`evaluate`'s values, and an error only if some row's
        ``evaluate`` raises one.  An empty batch evaluates nothing -- a
        missing column or unknown function raises only when there is a
        row."""
        kernel = self._kernel()
        return lambda columns, n: kernel(columns, n) if n else []

    def _kernel(self) -> Compiled:
        """:meth:`compile` for a batch known to hold a row.

        Nodes override this to do their dispatch (on operator, function
        name, pattern) once, here; whatever a node cannot specialise --
        an unknown operator or function, whose error must still surface
        only when a row is evaluated -- falls back to ``evaluate`` over
        the batch's rows.
        """
        evaluate = self.evaluate
        return lambda columns, n: list(map(evaluate, _rows(columns, n)))

    def canonical(self) -> str:
        """Deterministic, normalization-aware string form."""
        raise NotImplementedError

    def to_sql(self) -> str:
        """Human-readable SQL-ish rendering (no normalization)."""
        raise NotImplementedError

    def output_name(self) -> str:
        """Default column name when this expression is projected unaliased."""
        return self.to_sql()

    def columns(self) -> Iterator[str]:
        """All column names referenced anywhere in this tree."""
        for child in self.children():
            yield from child.columns()

    def is_aggregate(self) -> bool:
        """True if this tree contains an aggregate function call."""
        return any(child.is_aggregate() for child in self.children())

    def walk(self) -> Iterator["Expr"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_sql()


@dataclass(frozen=True)
class ColumnRef(Expr):
    """Reference to a column, optionally table-qualified."""

    name: str
    table: Optional[str] = None

    @property
    def key(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name

    def evaluate(self, row: Row) -> object:
        key = self.key
        if key in row:
            return row[key]
        return self._resolve(row)

    def _resolve(self, row: Row) -> object:
        """The column of a row that does not hold it under ``key``."""
        if self.name in row:
            return row[self.name]
        # Fall back to a suffix match for qualified rows (t.col).
        suffix = "." + self.name
        matches = [k for k in row if k.endswith(suffix)]
        if len(matches) == 1:
            return row[matches[0]]
        raise ExecutionError(
            f"column {self.key!r} not found in row {sorted(row)!r}")

    def _kernel(self) -> Compiled:
        key, resolve = self.key, self._resolve

        def column(columns: BatchColumns, n: int) -> list:
            try:
                return columns[key]
            except KeyError:
                return resolve(columns)  # resolves a batch as it does a row

        return column

    def canonical(self) -> str:
        return f"col:{self.name}"

    def to_sql(self) -> str:
        return self.key

    def output_name(self) -> str:
        return self.name

    def columns(self) -> Iterator[str]:
        yield self.name


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value.

    ``param_name`` marks literals that were bound from a job parameter
    (e.g. the date of a recurring run).  Strict signatures include the
    value; *recurring* signatures replace it with the parameter name, which
    is how the paper's recurring signatures "discard time varying attributes
    like parameter values" (Section 2.3).
    """

    value: object
    param_name: Optional[str] = None

    def evaluate(self, row: Row) -> object:
        return self.value

    def _kernel(self) -> Compiled:
        value = self.value
        return lambda columns, n: [value] * n

    def canonical(self) -> str:
        return f"lit:{type(self.value).__name__}:{self.value!r}"

    def to_sql(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if self.value is None:
            return "NULL"
        return str(self.value)


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Binary operator: arithmetic, comparison, or boolean connective."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Expr]) -> "BinaryOp":
        left, right = children
        return BinaryOp(self.op, left, right)

    def evaluate(self, row: Row) -> object:
        op = self.op
        if op == "AND":
            return bool(self.left.evaluate(row)) and bool(self.right.evaluate(row))
        if op == "OR":
            return bool(self.left.evaluate(row)) or bool(self.right.evaluate(row))
        lhs = self.left.evaluate(row)
        rhs = self.right.evaluate(row)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            if lhs is None or rhs is None:
                return False
            if op == "=":
                return lhs == rhs
            if op == "<>":
                return lhs != rhs
            if op == "<":
                return lhs < rhs
            if op == "<=":
                return lhs <= rhs
            if op == ">":
                return lhs > rhs
            return lhs >= rhs
        if lhs is None or rhs is None:
            return None
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if rhs == 0:
                return None
            return lhs / rhs
        if op == "%":
            if rhs == 0:
                return None
            return lhs % rhs
        raise ExecutionError(f"unknown binary operator {op!r}")

    def _kernel(self) -> Compiled:
        op = self.op
        left, right = self.left._kernel(), self.right._kernel()
        if op in ("AND", "OR"):
            return _connective(left, right, op == "OR")
        if op in _COMPARISONS:
            literal = self.right
            if isinstance(literal, Literal) and literal.value is not None:
                to_constant, constant = _TO_CONSTANT[op], literal.value
                return lambda columns, n: to_constant(left(columns, n),
                                                      constant)
            apply = _COMPARISONS[op]
        elif op in _ARITHMETIC:
            apply = _ARITHMETIC[op]
        else:
            return super()._kernel()
        return lambda columns, n: apply(left(columns, n), right(columns, n))

    def canonical(self) -> str:
        left = self.left.canonical()
        right = self.right.canonical()
        op = self.op
        if op in COMMUTATIVE_OPS and right < left:
            left, right = right, left
        elif op in _FLIPPED and right < left:
            # a < b  ==  b > a ; order operands, flip the comparison.
            left, right = right, left
            op = _FLIPPED[op]
        return f"({op} {left} {right})"

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary operator: NOT, or arithmetic negation."""

    op: str
    operand: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, children: Sequence[Expr]) -> "UnaryOp":
        (operand,) = children
        return UnaryOp(self.op, operand)

    def evaluate(self, row: Row) -> object:
        value = self.operand.evaluate(row)
        if self.op == "NOT":
            return not bool(value)
        if self.op == "-":
            return None if value is None else -value
        if self.op == "ISNULL":
            return value is None
        if self.op == "ISNOTNULL":
            return value is not None
        raise ExecutionError(f"unknown unary operator {self.op!r}")

    def _kernel(self) -> Compiled:
        op = self.op
        operand = self.operand._kernel()
        if op == "NOT":
            return lambda columns, n: list(map(operator.not_,
                                               operand(columns, n)))
        if op == "ISNULL":
            return lambda columns, n: [v is None for v in operand(columns, n)]
        if op == "ISNOTNULL":
            return lambda columns, n: [v is not None
                                       for v in operand(columns, n)]
        if op != "-":
            return super()._kernel()
        return lambda columns, n: [None if v is None else -v
                                   for v in operand(columns, n)]

    def canonical(self) -> str:
        return f"({self.op} {self.operand.canonical()})"

    def to_sql(self) -> str:
        if self.op == "ISNULL":
            return f"({self.operand.to_sql()} IS NULL)"
        if self.op == "ISNOTNULL":
            return f"({self.operand.to_sql()} IS NOT NULL)"
        return f"({self.op} {self.operand.to_sql()})"


@dataclass(frozen=True)
class FuncCall(Expr):
    """Scalar or aggregate function call."""

    name: str
    args: Tuple[Expr, ...] = field(default_factory=tuple)
    distinct: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.upper())
        object.__setattr__(self, "args", tuple(self.args))

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def with_children(self, children: Sequence[Expr]) -> "FuncCall":
        return FuncCall(self.name, tuple(children), self.distinct)

    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS or super().is_aggregate()

    def evaluate(self, row: Row) -> object:
        if self.name in AGGREGATE_FUNCTIONS:
            raise ExecutionError(
                f"aggregate {self.name} must be evaluated by a GroupBy operator")
        func = SCALAR_FUNCTIONS.get(self.name)
        if func is None:
            raise ExecutionError(f"unknown scalar function {self.name!r}")
        return func(*(arg.evaluate(row) for arg in self.args))

    def _kernel(self) -> Compiled:
        func = SCALAR_FUNCTIONS.get(self.name)
        if func is None or self.name in AGGREGATE_FUNCTIONS:
            return super()._kernel()
        args = [arg._kernel() for arg in self.args]
        if not args:
            return lambda columns, n: [func() for _ in range(n)]
        return lambda columns, n: list(map(
            func, *[arg(columns, n) for arg in args]))

    def canonical(self) -> str:
        inner = " ".join(a.canonical() for a in self.args)
        distinct = "distinct " if self.distinct else ""
        return f"(fn:{self.name} {distinct}{inner})"

    def to_sql(self) -> str:
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name}({prefix}{', '.join(a.to_sql() for a in self.args)})"

    def output_name(self) -> str:
        if len(self.args) == 1 and isinstance(self.args[0], ColumnRef):
            return f"{self.name.lower()}_{self.args[0].name}"
        return self.name.lower()


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)`` over literal values.

    Values are canonically sorted so ``IN (2, 1)`` and ``IN (1, 2)``
    produce the same signature.
    """

    operand: Expr
    values: Tuple[Literal, ...]
    negated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,) + self.values

    def with_children(self, children: Sequence[Expr]) -> "InList":
        operand = children[0]
        values = tuple(children[1:])
        return InList(operand, values, self.negated)

    def evaluate(self, row: Row) -> object:
        value = self.operand.evaluate(row)
        if value is None:
            return False
        found = any(value == literal.value for literal in self.values)
        return (not found) if self.negated else found

    def _kernel(self) -> Compiled:
        operand = self.operand._kernel()
        # ``==`` against each value in turn, as ``evaluate`` does: ``in``
        # on a tuple would also match by identity (a NaN finds itself).
        candidates = [literal.value for literal in self.values]
        negated = self.negated

        def in_list(columns: BatchColumns, n: int) -> list:
            values = operand(columns, n)
            found = [False] * n
            for candidate in candidates:
                found = [f or v == candidate for f, v in zip(found, values)]
            return [v is not None and bool(f) != negated
                    for v, f in zip(values, found)]

        return in_list

    def canonical(self) -> str:
        inner = " ".join(sorted(v.canonical() for v in self.values))
        negation = "not-" if self.negated else ""
        return f"({negation}in {self.operand.canonical()} [{inner}])"

    def to_sql(self) -> str:
        values = ", ".join(v.to_sql() for v in self.values)
        negation = " NOT" if self.negated else ""
        return f"({self.operand.to_sql()}{negation} IN ({values}))"


@dataclass(frozen=True)
class Like(Expr):
    """``expr [NOT] LIKE 'pattern'`` with ``%`` and ``_`` wildcards."""

    operand: Expr
    pattern: str
    negated: bool = False

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, children: Sequence[Expr]) -> "Like":
        (operand,) = children
        return Like(operand, self.pattern, self.negated)

    def evaluate(self, row: Row) -> object:
        value = self.operand.evaluate(row)
        if value is None:
            return False
        matched = _like_match(str(value), self.pattern)
        return (not matched) if self.negated else matched

    def _kernel(self) -> Compiled:
        operand = self.operand._kernel()
        fullmatch = _like_regex(self.pattern).fullmatch
        negated = self.negated
        return lambda columns, n: [
            v is not None and (fullmatch(str(v)) is not None) != negated
            for v in operand(columns, n)]

    def canonical(self) -> str:
        negation = "not-" if self.negated else ""
        return f"({negation}like {self.operand.canonical()} {self.pattern!r})"

    def to_sql(self) -> str:
        escaped = self.pattern.replace("'", "''")
        negation = " NOT" if self.negated else ""
        return f"({self.operand.to_sql()}{negation} LIKE '{escaped}')"


@lru_cache(maxsize=256)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    """A LIKE pattern as a regex, built once per pattern: ``%`` any run,
    ``_`` any single character."""
    return re.compile("".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in pattern))


def _like_match(text: str, pattern: str) -> bool:
    """SQL LIKE semantics over :func:`_like_regex`."""
    return _like_regex(pattern).fullmatch(text) is not None


@dataclass(frozen=True)
class Star(Expr):
    """``*`` in a select list (expanded by the plan builder)."""

    table: Optional[str] = None

    def evaluate(self, row: Row) -> object:
        raise ExecutionError("* must be expanded before execution")

    def canonical(self) -> str:
        return "star"

    def to_sql(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class CaseWhen(Expr):
    """``CASE WHEN cond THEN value ... ELSE default END``."""

    conditions: Tuple[Expr, ...]
    results: Tuple[Expr, ...]
    default: Optional[Expr] = None

    def __post_init__(self) -> None:
        if len(self.conditions) != len(self.results):
            raise PlanError("CASE requires matching WHEN/THEN lists")
        object.__setattr__(self, "conditions", tuple(self.conditions))
        object.__setattr__(self, "results", tuple(self.results))

    def children(self) -> Tuple[Expr, ...]:
        extra = (self.default,) if self.default is not None else ()
        return self.conditions + self.results + extra

    def with_children(self, children: Sequence[Expr]) -> "CaseWhen":
        n = len(self.conditions)
        conditions = tuple(children[:n])
        results = tuple(children[n:2 * n])
        default = children[2 * n] if len(children) > 2 * n else None
        return CaseWhen(conditions, results, default)

    def evaluate(self, row: Row) -> object:
        for cond, result in zip(self.conditions, self.results):
            if cond.evaluate(row):
                return result.evaluate(row)
        return self.default.evaluate(row) if self.default is not None else None

    def _kernel(self) -> Compiled:
        branches = [(cond._kernel(), result._kernel())
                    for cond, result in zip(self.conditions, self.results)]
        if self.default is not None:
            # ELSE takes every position no WHEN decided.
            branches.append((Literal(True)._kernel(), self.default._kernel()))

        def case(columns: BatchColumns, n: int) -> list:
            out: list = [None] * n
            undecided, open_columns = range(n), columns
            for cond, result in branches:
                hit = cond(open_columns, len(undecided))
                taken = list(compress(undecided, hit))
                if taken:
                    values = result(columns.at(taken) if len(taken) < n
                                    else columns, len(taken))
                    for position, value in zip(taken, values):
                        out[position] = value
                    undecided = list(compress(
                        undecided, map(operator.not_, hit)))
                    if not undecided:
                        break
                    open_columns = columns.at(undecided)
            return out

        return case

    def canonical(self) -> str:
        pairs = " ".join(
            f"[{c.canonical()} {r.canonical()}]"
            for c, r in zip(self.conditions, self.results))
        default = self.default.canonical() if self.default else "null"
        return f"(case {pairs} {default})"

    def to_sql(self) -> str:
        parts = ["CASE"]
        for cond, result in zip(self.conditions, self.results):
            parts.append(f"WHEN {cond.to_sql()} THEN {result.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return " ".join(parts)

    def output_name(self) -> str:
        return "case"


def _connective(left: Compiled, right: Compiled, is_or: bool) -> Compiled:
    """``AND`` / ``OR``: ``left`` decides where it can (a false ``AND``
    arm, a true ``OR`` arm); ``right`` runs over the rest only."""

    def connective(columns: BatchColumns, n: int) -> list:
        first = left(columns, n)
        undecided = list(compress(
            range(n), map(operator.not_, first) if is_or else first))
        if len(undecided) == n:
            return list(map(bool, right(columns, n)))
        out = [is_or] * n
        if undecided:
            second = right(columns.at(undecided), len(undecided))
            for position, value in zip(undecided, second):
                out[position] = bool(value)
        return out

    return connective


def _rows(columns: BatchColumns, n: int) -> List[Row]:
    """The rows of a batch, for what only ``evaluate`` can answer."""
    names = list(columns)
    if not names:
        return [{} for _ in range(n)]
    return [dict(zip(names, values))
            for values in zip(*[columns[name] for name in names])]


def conjuncts(predicate: Optional[Expr]) -> List[Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if predicate is None:
        return []
    if isinstance(predicate, BinaryOp) and predicate.op == "AND":
        return conjuncts(predicate.left) + conjuncts(predicate.right)
    return [predicate]


def conjoin(predicates: Sequence[Expr]) -> Optional[Expr]:
    """Combine predicates with AND; returns ``None`` for an empty list."""
    result: Optional[Expr] = None
    for pred in predicates:
        result = pred if result is None else BinaryOp("AND", result, pred)
    return result


def rewrite(expr: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Bottom-up rewrite: apply ``fn`` to each node; ``None`` keeps the node."""
    children = expr.children()
    if children:
        new_children = [rewrite(child, fn) for child in children]
        if any(n is not o for n, o in zip(new_children, children)):
            expr = expr.with_children(new_children)
    replaced = fn(expr)
    return expr if replaced is None else replaced
