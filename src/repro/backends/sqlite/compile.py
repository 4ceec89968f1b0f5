"""Logical plan -> SQLite SQL lowering.

The lowering is *semantics-preserving with respect to the in-memory
interpreter*, not merely SQL-correct: the differential harness asserts
byte-equal results between backends, so every place where SQLite's
semantics differ from the interpreter's Python semantics is compiled
around explicitly.

The load-bearing decisions, in one place:

* **Three-valued logic.**  Python comparisons return ``False`` when
  either side is ``None``; SQL returns ``NULL``.  Every comparison is
  wrapped ``COALESCE(l op r, 0)`` so it is two-valued, and ``AND`` /
  ``OR`` / ``NOT`` operate on *predicate-wrapped* (never-NULL) operands,
  matching ``bool(x)`` coercion in the interpreter.
* **Truthiness.**  Predicate positions coerce with Python truthiness,
  chosen by the operand's inferred class: booleans ``COALESCE(e, 0)``,
  strings ``length(e) > 0`` (empty string is falsy; SQL would call
  ``'' <> 0`` true), numbers ``e <> 0``, unknown a ``typeof`` dispatch.
* **Join keys match like hash keys.**  The in-memory executor hashes
  every join, so keys of any count match by Python ``==``: ``None``
  matches ``None`` and ``1 == 1.0 == True``.  Equi-keys lower to the
  SQL ``IS`` operator, which is ``=`` with NULL-matches-NULL (booleans
  are stored as 0/1, so the numeric rule is the same).
* **Arithmetic.**  ``/`` is Python true division -> ``CAST(l AS REAL)``
  (division by zero is NULL on both sides); ``%`` keeps Python's sign
  convention via the ``py_mod`` UDF; ``+`` on two string-class operands
  is concatenation (``||``).
* **Scalar functions run the same code.**  Every function in
  ``SCALAR_FUNCTIONS`` is registered on the connection as a ``py_*``
  UDF, so ``ROUND`` (banker's rounding), ``UPPER`` (unicode), ``YEAR``
  (string slicing) cannot drift.  Only ``COALESCE``/``IFNULL`` lower
  natively -- their SQL semantics are identical.
* **No type affinity.**  Tables are created with typeless columns, so
  values come back exactly as bound (no ``'5'`` -> ``5`` coercion);
  booleans round-trip as 0/1 and are re-coerced to ``bool`` on fetch
  using the compiler's static class inference.
* **Byte accounting.**  Per-operator output bytes use the same width
  rule as :func:`repro.storage.batch.measure` (string = length,
  boolean = 1, everything else = 8), evaluated in SQL -- which is what
  keeps per-node statistics and the view-catalog digest backend-
  invariant.  :meth:`CompiledQuery.width_sql` is the one place the rule
  is written in SQL, a term per column, so that a measurement is
  ``(rows, {column: bytes})`` and can be carried through a rename or a
  column pruning instead of being taken again.  A column measured to
  hold no text (:attr:`CompiledQuery.textfree`) needs no term unless it
  is a boolean: every value weighs 8 bytes.

Known, accepted divergences (all order- or mixed-type-related, none
reachable from the bundled workloads): tie order under ``Limit`` with
no covering ``Sort``, relative order of booleans vs. numbers in one
sort column, and byte widths for union arms whose column classes
disagree.  Not lowered at all: a ``Process`` (UDO) node raises
:class:`~repro.common.errors.ExecutionError` -- SQLite cannot host an
arbitrary Python row operator -- and a NaN is stored as NULL.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, FrozenSet, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.common.errors import ExecutionError, StorageError
from repro.plan.expressions import (
    AGGREGATE_FUNCTIONS,
    SCALAR_FUNCTIONS,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    Like,
    Literal,
    UnaryOp,
)
from repro.plan.logical import (
    Distinct,
    Filter,
    GroupBy,
    Join,
    Limit,
    LogicalPlan,
    Process,
    Project,
    Scan,
    Sort,
    Spool,
    Union,
    ViewScan,
)

# Static column classes used for truthiness, concatenation, boolean
# round-tripping, and byte widths.
BOOL = "bool"
NUM = "num"
STR = "str"
UNKNOWN = "unknown"

_DTYPE_CLASS = {"bool": BOOL, "int": NUM, "float": NUM,
                "str": STR, "date": STR}

#: Inferred result class for registered scalar functions.
_FUNC_CLASS = {"UPPER": STR, "LOWER": STR, "SUBSTR": STR,
               "LEN": NUM, "ABS": NUM, "ROUND": NUM, "FLOOR": NUM,
               "YEAR": NUM, "MONTH": NUM}


def quote_ident(name: str) -> str:
    """Double-quote an identifier, escaping embedded quotes."""
    return '"' + name.replace('"', '""') + '"'


def quote_literal(value: object) -> str:
    """Render a Python constant as a SQLite literal, exactly.

    Floats use ``repr`` (shortest round-tripping form); infinities use
    the out-of-range literal ``9e999``; NaN becomes NULL (SQLite has no
    NaN -- and NaN compares false to everything in Python too).
    """
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float):
        if value != value:
            return "NULL"
        if value == float("inf"):
            return "9e999"
        if value == float("-inf"):
            return "-9e999"
        return repr(value)
    if isinstance(value, int):
        return str(value)
    raise ExecutionError(f"cannot lower literal {value!r} to SQL")


def physical_name(prefix: str, key: str) -> str:
    """Deterministic SQL table name for a GUID or view path."""
    slug = re.sub(r"[^A-Za-z0-9_]+", "_", key).strip("_")[:40]
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:10]
    return f"{prefix}_{slug}_{digest}" if slug else f"{prefix}_{digest}"


@dataclass(frozen=True)
class TableInfo:
    """One physical SQLite table backing a stream or a view."""

    table: str
    columns: Tuple[str, ...]
    classes: Mapping[str, str] = field(default_factory=dict)

    def query(self, textfree: FrozenSet[str] = frozenset()
              ) -> "CompiledQuery":
        """Every stored column, in stored order."""
        select = ", ".join(quote_ident(c) for c in self.columns)
        return CompiledQuery(
            f"SELECT {select} FROM {quote_ident(self.table)}",
            self.columns, dict(self.classes), textfree=textfree)


@dataclass(frozen=True)
class CompiledQuery:
    """A lowered plan: SQL text plus output shape."""

    sql: str
    columns: Tuple[str, ...]
    classes: Mapping[str, str]
    #: Output column -> the child column it hands on unchanged, when
    #: every output is one (a ``Project`` of bare ``ColumnRef``s): the
    #: rename a measurement is carried through instead of taken again.
    renames: Optional[Mapping[str, str]] = None
    #: Output columns that copy, unchanged, values of stored columns
    #: measured to hold no text (or are NULL): each weighs 8 bytes a row
    #: unless its class is ``BOOL``.
    textfree: FrozenSet[str] = frozenset()

    def scope(self) -> "_Scope":
        return _Scope.plain(self.columns, self.classes)

    def select_list(self) -> str:
        return ", ".join(quote_ident(c) for c in self.columns)

    def bool_columns(self) -> Tuple[str, ...]:
        """Columns to coerce back to Python ``bool`` on fetch."""
        return tuple(c for c in self.columns
                     if self.classes.get(c) == BOOL)

    def width_sql(self, columns: Optional[Sequence[str]] = None) -> List[str]:
        """Per-row byte width of each of ``columns`` (all, by default),
        in order, by ``repro.storage.batch.measure``'s rule."""
        terms = []
        for c in self.columns if columns is None else columns:
            q = quote_ident(c)
            if self.classes.get(c) == BOOL:
                terms.append(
                    f"(CASE WHEN {q} IS NULL THEN 8 ELSE 1 END)")
            else:
                terms.append(
                    f"(CASE WHEN typeof({q}) = 'text'"
                    f" THEN MAX(1, LENGTH({q})) ELSE 8 END)")
        return terms

    def probed(self) -> Tuple[str, ...]:
        """The columns a measurement sums: all but the text-free ones
        that are not ``BOOL``, whose width is known to be 8."""
        return tuple(c for c in self.columns if c not in self.textfree
                     or self.classes.get(c) == BOOL)

    def sizes(self, rows: int, sums: Sequence) -> Dict[str, int]:
        """Each column's byte size, from the row count and the sums of
        the ``probed`` columns (NULL over no rows)."""
        summed = dict(zip(self.probed(), sums))
        return {c: (summed[c] or 0) if c in summed else 8 * rows
                for c in self.columns}

    def stats_sql(self, count_text: bool = False) -> str:
        """One row: the row count, then each ``probed`` column's byte
        size -- the measuring statement -- and with ``count_text`` each
        column's count of text values after them."""
        terms = self.width_sql(self.probed())
        if count_text:
            terms += [f"typeof({quote_ident(c)}) = 'text'"
                      for c in self.columns]
        sums = "".join(f", SUM({term})" for term in terms)
        return f"SELECT COUNT(*){sums} FROM ({self.sql})"


class _Scope:
    """Column environment for expression lowering under one operator."""

    def __init__(self, refs: Dict[str, str], classes: Mapping[str, str]):
        self.refs = refs          # column name -> SQL reference
        self.classes = classes    # column name -> static class

    @classmethod
    def plain(cls, columns, classes) -> "_Scope":
        return cls({c: quote_ident(c) for c in columns}, classes)

    def resolve(self, ref: ColumnRef) -> str:
        """Mirror ``ColumnRef.evaluate``: key, bare name, suffix match."""
        if ref.key in self.refs:
            return ref.key
        if ref.name in self.refs:
            return ref.name
        suffix = "." + ref.name
        matches = [c for c in self.refs if c.endswith(suffix)]
        if len(matches) == 1:
            return matches[0]
        raise ExecutionError(
            f"column {ref.key!r} not found in {sorted(self.refs)!r}")


def _dedup(pairs: List[Tuple[str, str, str]]):
    """Dict-like dedup of ``(name, sql, class)`` select items.

    Matches row-dict construction in the interpreter: the *first*
    occurrence fixes the position, the *last* fixes the value.
    """
    order: List[str] = []
    sql: Dict[str, str] = {}
    classes: Dict[str, str] = {}
    for name, expr_sql, cls in pairs:
        if name not in sql:
            order.append(name)
        sql[name] = expr_sql
        classes[name] = cls
    return order, sql, classes


class PlanCompiler:
    """Compiles logical plans to SQLite SQL over registered tables.

    ``tables`` maps stream GUIDs and ``views`` maps view paths to their
    physical :class:`TableInfo`.  Both mappings are read live, so a
    Spool registered mid-execution is visible to later lowerings.

    A compiler serves one ``execute``: a node is lowered once and
    remembered by identity, so the plans it is given must outlive it
    (lowering a tree node by node is otherwise quadratic in its depth).

    ``text_free`` is the executing backend's measurement of a table's
    columns that hold no text; without it the lowering is the plain
    one.  With it, each lowering records its ``textfree`` columns, and a
    keyed ``GroupBy`` over an input that is not a table measures that
    input as it aggregates it: ``HAVING py_tap(key, COUNT(*), SUM(width)
    ...)``, one sum per ``probed`` input column, under the key ``taps``
    keeps by the node's identity.
    """

    def __init__(self, tables: Mapping[str, TableInfo],
                 views: Mapping[str, TableInfo],
                 text_free: Optional[Callable[[TableInfo], FrozenSet[str]]]
                 = None):
        self.tables = tables
        self.views = views
        self.text_free = text_free or (lambda info: frozenset())
        self.taps: Optional[Dict[int, int]] = text_free and {}
        self._lowered: Dict[int, CompiledQuery] = {}

    # ------------------------------------------------------------------ #
    # operators

    def lower(self, plan: LogicalPlan) -> CompiledQuery:
        found = self._lowered.get(id(plan))
        if found is None:
            handler = _OP_HANDLERS.get(type(plan))
            if handler is None:
                raise ExecutionError(
                    f"no SQL lowering for operator {type(plan).__name__}")
            found = self._lowered[id(plan)] = handler(self, plan)
        return found

    def _scan(self, plan: Scan) -> CompiledQuery:
        if plan.stream_guid is None:
            raise ExecutionError(
                f"scan of {plan.dataset!r} was not bound to a stream GUID")
        info = self.tables.get(plan.stream_guid)
        if info is None:
            raise StorageError(
                f"no data stored under key {plan.stream_guid!r}")
        pairs = []
        for c in plan.columns:
            if c in info.columns:
                pairs.append((c, quote_ident(c), info.classes.get(c, UNKNOWN)))
            else:
                # The interpreter projects missing columns to None.
                pairs.append((c, "NULL", UNKNOWN))
        order, sql, classes = _dedup(pairs)
        select = ", ".join(f"{sql[c]} AS {quote_ident(c)}" for c in order)
        # A column the table lacks is NULL: no text either.
        free = self.text_free(info)
        return CompiledQuery(
            f"SELECT {select} FROM {quote_ident(info.table)}",
            tuple(order), classes, textfree=frozenset(
                c for c in order if c in free or c not in info.columns))

    def _view_scan(self, plan: ViewScan) -> CompiledQuery:
        info = self.views.get(plan.view_path)
        if info is None:
            raise StorageError(
                f"no data stored under key {plan.view_path!r}")
        # The interpreter returns the stored rows verbatim, so select the
        # stored schema (which view matching guarantees equals
        # ``plan.columns``).
        return info.query(self.text_free(info))

    def _spool(self, plan: Spool) -> CompiledQuery:
        info = self.views.get(plan.view_path)
        if info is None:
            # The backend materializes every Spool (post-order) before
            # lowering consumers, so this indicates a harness bug.
            raise ExecutionError(
                f"spool table for {plan.view_path!r} was not materialized")
        return info.query(self.text_free(info))

    def _filter(self, plan: Filter) -> CompiledQuery:
        child = self.lower(plan.child)
        pred = self._pred(plan.predicate, child.scope())
        return _over(child, f"SELECT {child.select_list()} "
                            f"FROM ({child.sql}) WHERE {pred}")

    def _project(self, plan: Project) -> CompiledQuery:
        child = self.lower(plan.child)
        scope = child.scope()
        pairs = []
        for expr, name in zip(plan.exprs, plan.names):
            sql, cls = self._value(expr, scope)
            pairs.append((name, sql, cls))
        order, sql, classes = _dedup(pairs)
        select = ", ".join(f"{sql[c]} AS {quote_ident(c)}" for c in order)
        # As ``_dedup``: of two outputs under one name the last counts.
        sources = {name: scope.resolve(expr)
                   if isinstance(expr, ColumnRef) else None
                   for expr, name in zip(plan.exprs, plan.names)}
        return CompiledQuery(
            f"SELECT {select} FROM ({child.sql})", tuple(order), classes,
            None if None in sources.values() else sources,
            frozenset(out for out, source in sources.items()
                      if source in child.textfree))

    def _join(self, plan: Join) -> CompiledQuery:
        left = self.lower(plan.left)
        right = self.lower(plan.right)
        dropped = set(plan.drop_right)
        right_kept = [c for c in right.columns if c not in dropped]

        left_scope = _Scope(
            {c: f"L.{quote_ident(c)}" for c in left.columns}, left.classes)
        right_scope = _Scope(
            {c: f"R.{quote_ident(c)}" for c in right.columns}, right.classes)
        # Merged-row scope: right-kept columns overwrite left ones,
        # mirroring the interpreter's row merge.
        merged_refs = dict(left_scope.refs)
        merged_classes = dict(left.classes)
        for c in right_kept:
            merged_refs[c] = f"R.{quote_ident(c)}"
            merged_classes[c] = right.classes.get(c, UNKNOWN)
        merged_scope = _Scope(merged_refs, merged_classes)

        conds = []
        for lk, rk in zip(plan.left_keys, plan.right_keys):
            lsql, _ = self._value(lk, left_scope)
            rsql, _ = self._value(rk, right_scope)
            # IS, not =: the interpreter matches hash keys with Python
            # ``==`` over tuples, where None pairs with None.
            conds.append(f"({lsql} IS {rsql})")
        if plan.residual is not None:
            conds.append(self._pred(plan.residual, merged_scope))
        on = " AND ".join(conds) if conds else "1"

        pairs = [(c, merged_refs[c], merged_classes.get(c, UNKNOWN))
                 for c in tuple(left.columns) + tuple(right_kept)]
        order, sql, classes = _dedup(pairs)
        select = ", ".join(f"{sql[c]} AS {quote_ident(c)}" for c in order)
        join_kw = "LEFT JOIN" if plan.how == "left" else "JOIN"
        # A left join's NULL extension is no text either.
        textfree = (left.textfree.difference(right_kept)
                    | right.textfree.intersection(right_kept))
        return CompiledQuery(
            f"SELECT {select} FROM ({left.sql}) AS L "
            f"{join_kw} ({right.sql}) AS R ON {on}",
            tuple(order), classes, textfree=textfree)

    def _group_by(self, plan: GroupBy) -> CompiledQuery:
        child = self.lower(plan.child)
        scope = child.scope()
        pairs = []
        group_refs = []
        free = {}
        for key in plan.keys:
            name = scope.resolve(key)
            ref = scope.refs[name]
            group_refs.append(ref)
            # The interpreter names key outputs after the ColumnRef, not
            # the GroupBy names list.
            pairs.append((key.name, ref, scope.classes.get(name, UNKNOWN)))
            free[key.name] = name in child.textfree
        agg_names = plan.names[len(plan.keys):]
        for name, agg in zip(agg_names, plan.aggregates):
            sql, cls = self._aggregate(agg, scope)
            pairs.append((name, sql, cls))
            free[name] = agg.name == "COUNT"
        order, sql, classes = _dedup(pairs)
        select = ", ".join(f"{sql[c]} AS {quote_ident(c)}" for c in order)
        group = f" GROUP BY {', '.join(group_refs)}" if group_refs else ""
        if (self.taps is not None and group_refs
                and not isinstance(plan.child, (Scan, ViewScan, Spool))):
            key = self.taps[id(plan)] = len(self.taps)
            sums = "".join(f", SUM({term})"
                           for term in child.width_sql(child.probed()))
            group += f" HAVING py_tap({key}, COUNT(*){sums})"
        return CompiledQuery(
            f"SELECT {select} FROM ({child.sql}){group}", tuple(order),
            classes, textfree=frozenset(c for c in order if free[c]))

    def _union(self, plan: Union, tagged: bool = False) -> CompiledQuery:
        """``tagged``: every row ends in its arm's index, one unnamed
        column past ``columns`` (:meth:`lower_arms`)."""
        schema = plan.schema
        arms = []
        arm_classes: List[Mapping[str, str]] = []
        textfree = set(schema)
        for child in plan.inputs:
            lowered = self.lower(child)
            pairs = [(s, quote_ident(c), lowered.classes.get(c, UNKNOWN))
                     for s, c in zip(schema, lowered.columns)]
            order, sql, classes = _dedup(pairs)
            select = ", ".join(
                f"{sql[c]} AS {quote_ident(c)}" for c in order)
            tag = f", {len(arms)}" if tagged else ""
            arms.append(f"SELECT {select}{tag} FROM ({lowered.sql})")
            arm_classes.append(classes)
            textfree -= {s for s, c in zip(schema, lowered.columns)
                         if c not in lowered.textfree}
        out_order = list(dict.fromkeys(schema))
        classes = {}
        for c in out_order:
            kinds = {ac.get(c, UNKNOWN) for ac in arm_classes}
            classes[c] = kinds.pop() if len(kinds) == 1 else UNKNOWN
        # The interpreter ignores the DISTINCT flag on Union, so the
        # lowering is always UNION ALL.
        return CompiledQuery(
            " UNION ALL ".join(arms), tuple(out_order), classes,
            textfree=frozenset(textfree))

    def lower_arms(self, plan: Union) -> CompiledQuery:
        """A statement-level ``Union`` that tells its arms apart: the
        SQL returns one more column than ``columns`` names, the index of
        the input the row came from.  The extra column has no name, so
        it cannot collide with one of the plan's; only the statement
        that is fetched may carry it."""
        return self._union(plan, tagged=True)

    def _distinct(self, plan: Distinct) -> CompiledQuery:
        child = self.lower(plan.child)
        return _over(child, f"SELECT DISTINCT {child.select_list()} "
                            f"FROM ({child.sql})")

    def _sort(self, plan: Sort) -> CompiledQuery:
        child = self.lower(plan.child)
        scope = child.scope()
        keys = []
        for key, asc in zip(plan.keys, plan.ascending):
            ref = scope.refs[scope.resolve(key)]
            keys.append(f"{ref} {'ASC' if asc else 'DESC'}")
        return _over(child, f"SELECT {child.select_list()} "
                            f"FROM ({child.sql}) ORDER BY {', '.join(keys)}")

    def _limit(self, plan: Limit) -> CompiledQuery:
        # Inline Limit(Sort(x)) so the LIMIT applies to the ordered
        # stream; a bare subquery's order is not guaranteed to survive.
        child = self.lower(plan.child)
        if isinstance(plan.child, Sort):
            return _over(child, f"{child.sql} LIMIT {plan.count}")
        return _over(child, f"SELECT {child.select_list()} "
                            f"FROM ({child.sql}) LIMIT {plan.count}")

    def _process(self, plan: Process) -> CompiledQuery:
        raise ExecutionError(
            f"the SQLite backend cannot execute Process (UDO "
            f"{plan.udo_name!r}); run this job on the in-memory backend")

    # ------------------------------------------------------------------ #
    # expressions

    def _value(self, expr: Expr, scope: _Scope) -> Tuple[str, str]:
        """Lower an expression in value position -> ``(sql, class)``."""
        if isinstance(expr, ColumnRef):
            name = scope.resolve(expr)
            return scope.refs[name], scope.classes.get(name, UNKNOWN)
        if isinstance(expr, Literal):
            return quote_literal(expr.value), _literal_class(expr.value)
        if isinstance(expr, BinaryOp):
            return self._binary(expr, scope)
        if isinstance(expr, UnaryOp):
            return self._unary(expr, scope)
        if isinstance(expr, FuncCall):
            return self._func(expr, scope)
        if isinstance(expr, InList):
            return self._in_list(expr, scope)
        if isinstance(expr, Like):
            negated = "1" if expr.negated else "0"
            operand, _ = self._value(expr.operand, scope)
            pattern = quote_literal(expr.pattern)
            return f"py_like({operand}, {pattern}, {negated})", BOOL
        if isinstance(expr, CaseWhen):
            return self._case(expr, scope)
        raise ExecutionError(
            f"cannot lower expression {type(expr).__name__} to SQL")

    def _pred(self, expr: Expr, scope: _Scope) -> str:
        """Lower in predicate position: Python truthiness, never NULL."""
        sql, cls = self._value(expr, scope)
        if cls == BOOL:
            return f"COALESCE({sql}, 0)"
        if cls == STR:
            return f"(COALESCE(LENGTH({sql}), 0) > 0)"
        if cls == NUM:
            return f"(COALESCE({sql}, 0) <> 0)"
        return (f"(CASE WHEN {sql} IS NULL THEN 0"
                f" WHEN typeof({sql}) = 'text' THEN LENGTH({sql}) > 0"
                f" ELSE {sql} <> 0 END)")

    def _binary(self, expr: BinaryOp, scope: _Scope) -> Tuple[str, str]:
        op = expr.op
        if op in ("AND", "OR"):
            left = self._pred(expr.left, scope)
            right = self._pred(expr.right, scope)
            return f"({left} {op} {right})", BOOL
        left, lcls = self._value(expr.left, scope)
        right, rcls = self._value(expr.right, scope)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            # Python comparisons are False when either side is None.
            return f"COALESCE({left} {op} {right}, 0)", BOOL
        if op == "+":
            if lcls == STR and rcls == STR:
                return f"({left} || {right})", STR
            return f"({left} + {right})", NUM
        if op in ("-", "*"):
            return f"({left} {op} {right})", NUM
        if op == "/":
            # Python true division: always real, /0 -> None (SQL NULL).
            return f"(CAST({left} AS REAL) / {right})", NUM
        if op == "%":
            # Python's sign convention, None/zero-safe.
            return f"py_mod({left}, {right})", NUM
        raise ExecutionError(f"unknown binary operator {op!r}")

    def _unary(self, expr: UnaryOp, scope: _Scope) -> Tuple[str, str]:
        if expr.op == "NOT":
            return f"(NOT {self._pred(expr.operand, scope)})", BOOL
        operand, _ = self._value(expr.operand, scope)
        if expr.op == "-":
            return f"(-{operand})", NUM
        if expr.op == "ISNULL":
            return f"({operand} IS NULL)", BOOL
        if expr.op == "ISNOTNULL":
            return f"({operand} IS NOT NULL)", BOOL
        raise ExecutionError(f"unknown unary operator {expr.op!r}")

    def _func(self, expr: FuncCall, scope: _Scope) -> Tuple[str, str]:
        if expr.name in AGGREGATE_FUNCTIONS:
            raise ExecutionError(
                f"aggregate {expr.name} must be evaluated by a GroupBy "
                f"operator")
        if expr.name not in SCALAR_FUNCTIONS:
            raise ExecutionError(f"unknown scalar function {expr.name!r}")
        args = [self._value(a, scope) for a in expr.args]
        arg_sql = ", ".join(sql for sql, _ in args)
        if expr.name in ("COALESCE", "IFNULL"):
            cls = next((cls for _, cls in args if cls != UNKNOWN), UNKNOWN)
            if len(args) == 0:
                return "NULL", UNKNOWN
            if len(args) == 1:
                return args[0][0], cls
            fn = "COALESCE" if expr.name == "COALESCE" else "IFNULL"
            return f"{fn}({arg_sql})", cls
        # Everything else runs the *same Python callable* as the
        # interpreter, registered as a deterministic UDF.
        cls = _FUNC_CLASS.get(expr.name, UNKNOWN)
        return f"py_{expr.name.lower()}({arg_sql})", cls

    def _aggregate(self, agg: FuncCall, scope: _Scope) -> Tuple[str, str]:
        name = agg.name
        if name not in AGGREGATE_FUNCTIONS:
            raise ExecutionError(f"unknown aggregate {name!r}")
        if name == "COUNT" and not agg.args:
            # The interpreter counts all rows before the DISTINCT check.
            return "COUNT(*)", NUM
        if not agg.args:
            raise ExecutionError(f"aggregate {name} requires an argument")
        arg_sql, arg_cls = self._value(agg.args[0], scope)
        prefix = "DISTINCT " if agg.distinct else ""
        cls = arg_cls if name in ("MIN", "MAX") else NUM
        return f"{name}({prefix}{arg_sql})", cls

    def _in_list(self, expr: InList, scope: _Scope) -> Tuple[str, str]:
        operand, _ = self._value(expr.operand, scope)
        # NULL literals can never match (Python: value == None is False
        # for non-None value; a None operand short-circuits to False).
        values = [quote_literal(v.value) for v in expr.values
                  if v.value is not None]
        found, missed = ("0", "1") if expr.negated else ("1", "0")
        if values:
            sql = (f"(CASE WHEN {operand} IS NULL THEN 0"
                   f" WHEN {operand} IN ({', '.join(values)}) THEN {found}"
                   f" ELSE {missed} END)")
        else:
            sql = (f"(CASE WHEN {operand} IS NULL THEN 0"
                   f" ELSE {missed} END)")
        return sql, BOOL

    def _case(self, expr: CaseWhen, scope: _Scope) -> Tuple[str, str]:
        parts = ["CASE"]
        classes = []
        for cond, result in zip(expr.conditions, expr.results):
            pred = self._pred(cond, scope)
            value, cls = self._value(result, scope)
            classes.append(cls)
            parts.append(f"WHEN {pred} THEN {value}")
        if expr.default is not None:
            value, cls = self._value(expr.default, scope)
            classes.append(cls)
            parts.append(f"ELSE {value}")
        parts.append("END")
        cls = next((c for c in classes if c != UNKNOWN), UNKNOWN)
        return f"({' '.join(parts)})", cls


def _over(child: CompiledQuery, sql: str) -> CompiledQuery:
    """An operator that hands on a subset of its child's rows, columns
    unchanged."""
    return replace(child, sql=sql, renames=None)


def _literal_class(value: object) -> str:
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, str):
        return STR
    if isinstance(value, (int, float)):
        return NUM
    return UNKNOWN


def classes_from_schema(schema) -> Dict[str, str]:
    """Column classes from a catalog :class:`TableSchema`'s dtypes."""
    return {col.name: _DTYPE_CLASS.get(col.dtype, UNKNOWN)
            for col in schema.columns}


_OP_HANDLERS = {
    Scan: PlanCompiler._scan,
    ViewScan: PlanCompiler._view_scan,
    Spool: PlanCompiler._spool,
    Filter: PlanCompiler._filter,
    Project: PlanCompiler._project,
    Join: PlanCompiler._join,
    GroupBy: PlanCompiler._group_by,
    Union: PlanCompiler._union,
    Distinct: PlanCompiler._distinct,
    Sort: PlanCompiler._sort,
    Limit: PlanCompiler._limit,
    Process: PlanCompiler._process,
}
