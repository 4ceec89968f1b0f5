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
  reference semantics (constant folding and the tests use it).
* :meth:`Expr.compile` -- the same semantics as a closure specialised on
  node type and operator.  The executor compiles each expression once per
  operator execution and calls only the closure per row.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError, PlanError

Row = Dict[str, object]

#: What :meth:`Expr.compile` returns.
Compiled = Callable[[Row], object]

#: Operators for which operand order does not change the result.
COMMUTATIVE_OPS = {"=", "<>", "+", "*", "AND", "OR"}

#: Mapping used to flip a comparison when normalization swaps its operands.
_FLIPPED = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}

AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}

_COMPARISONS: Dict[str, Callable[[object, object], object]] = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}

#: Arithmetic over two non-NULL operands; a zero divisor yields NULL.
_ARITHMETIC: Dict[str, Callable[[object, object], object]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": lambda lhs, rhs: None if rhs == 0 else lhs / rhs,
    "%": lambda lhs, rhs: None if rhs == 0 else lhs % rhs,
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
        """A closure with exactly :meth:`evaluate`'s results and errors.

        Nodes override this to do their dispatch (on operator, function
        name, pattern) once, here, instead of once per row; whatever a
        node cannot specialise -- an unknown operator or function, whose
        error must still surface only when a row is evaluated -- stays
        the bound ``evaluate``.
        """
        return self.evaluate

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

    def compile(self) -> Compiled:
        key, resolve = self.key, self._resolve

        def column(row: Row) -> object:
            try:
                return row[key]
            except KeyError:
                return resolve(row)

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

    def compile(self) -> Compiled:
        value = self.value
        return lambda row: value

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

    def compile(self) -> Compiled:
        op = self.op
        left, right = self.left.compile(), self.right.compile()
        if op == "AND":
            return lambda row: bool(left(row)) and bool(right(row))
        if op == "OR":
            return lambda row: bool(left(row)) or bool(right(row))
        compare = _COMPARISONS.get(op)
        if compare is not None:
            return self._compile_comparison(compare, left, right)
        apply = _ARITHMETIC.get(op)
        if apply is None:
            return self.evaluate

        def arithmetic(row: Row) -> object:
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return None
            return apply(lhs, rhs)

        return arithmetic

    def _compile_comparison(self, compare, left: Compiled,
                            right: Compiled) -> Compiled:
        """Three-valued comparison (NULL on either side is false), with
        the common ``column <op> constant`` shapes flattened into one
        closure."""
        if isinstance(self.right, Literal) and self.right.value is not None:
            rhs = self.right.value
            if isinstance(self.left, ColumnRef):
                key, resolve = self.left.key, self.left._resolve

                def column_to_constant(row: Row) -> object:
                    try:
                        lhs = row[key]
                    except KeyError:
                        lhs = resolve(row)
                    return False if lhs is None else compare(lhs, rhs)

                return column_to_constant

            def to_constant(row: Row) -> object:
                lhs = left(row)
                return False if lhs is None else compare(lhs, rhs)

            return to_constant

        def comparison(row: Row) -> object:
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return False
            return compare(lhs, rhs)

        return comparison

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

    def compile(self) -> Compiled:
        op = self.op
        operand = self.operand.compile()
        if op == "NOT":
            return lambda row: not operand(row)
        if op == "ISNULL":
            return lambda row: operand(row) is None
        if op == "ISNOTNULL":
            return lambda row: operand(row) is not None
        if op != "-":
            return self.evaluate

        def negate(row: Row) -> object:
            value = operand(row)
            return None if value is None else -value

        return negate

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

    def compile(self) -> Compiled:
        func = SCALAR_FUNCTIONS.get(self.name)
        if func is None or self.name in AGGREGATE_FUNCTIONS:
            return self.evaluate
        args = [arg.compile() for arg in self.args]
        if len(args) == 1:
            (only,) = args
            return lambda row: func(only(row))
        return lambda row: func(*[arg(row) for arg in args])

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

    def compile(self) -> Compiled:
        operand = self.operand.compile()
        # ``==`` against each value in turn, as ``evaluate`` does: ``in``
        # on a tuple would also match by identity (a NaN finds itself).
        values = [literal.value for literal in self.values]
        negated = self.negated

        def in_list(row: Row) -> object:
            value = operand(row)
            if value is None:
                return False
            for candidate in values:
                if value == candidate:
                    return not negated
            return negated

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

    def compile(self) -> Compiled:
        operand = self.operand.compile()
        fullmatch = _like_regex(self.pattern).fullmatch
        negated = self.negated

        def like(row: Row) -> object:
            value = operand(row)
            if value is None:
                return False
            return (fullmatch(str(value)) is not None) != negated

        return like

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

    def compile(self) -> Compiled:
        branches = [(cond.compile(), result.compile())
                    for cond, result in zip(self.conditions, self.results)]
        default = (self.default.compile() if self.default is not None
                   else lambda row: None)

        def case(row: Row) -> object:
            for cond, result in branches:
                if cond(row):
                    return result(row)
            return default(row)

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
