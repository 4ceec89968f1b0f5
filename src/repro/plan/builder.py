"""Lowering from SQL AST to logical plans, with name binding.

The builder resolves dataset names against the catalog (binding the current
stream GUID into each :class:`Scan`, which is what makes strict signatures
input-version specific), resolves column references, decomposes join
conditions into equi-key/residual form, and lowers aggregation into
GroupBy + Project.

Joins written without ``ON`` are *natural joins* on the column names common
to both sides, matching the paper's Figure 4 queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.common.errors import BindError, PlanError
from repro.plan.expressions import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    Star,
    conjoin,
    conjuncts,
    rewrite,
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
    Union,
)
from repro.sql.ast import (
    JoinClause,
    Query,
    Relation,
    SelectStmt,
    SubqueryRef,
    TableRef,
)


@dataclass
class _Scope:
    """Name-resolution scope for one FROM clause.

    ``bindings`` maps a table alias to {column name -> key in the plan
    schema}.  Keys equal plain column names unless a collision forced a
    qualified rename (``alias.column``).
    """

    bindings: Dict[str, Dict[str, str]] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)  # schema keys, in order

    def add(self, binding: str, columns: Sequence[str],
            keys: Sequence[str]) -> None:
        if binding in self.bindings:
            raise BindError(f"duplicate table alias {binding!r}")
        self.bindings[binding] = dict(zip(columns, keys))
        self.order.extend(keys)

    def resolve(self, ref: ColumnRef) -> str:
        if ref.table is not None:
            mapping = self.bindings.get(ref.table)
            if mapping is None:
                raise BindError(f"unknown table alias {ref.table!r}")
            key = mapping.get(ref.name)
            if key is None:
                raise BindError(
                    f"no column {ref.name!r} in table {ref.table!r}")
            return key
        hits = [m[ref.name] for m in self.bindings.values() if ref.name in m]
        if not hits:
            raise BindError(f"unknown column {ref.name!r}")
        if len(set(hits)) > 1:
            raise BindError(f"ambiguous column {ref.name!r}; qualify it")
        return hits[0]

    def all_keys(self, table: Optional[str] = None) -> List[str]:
        if table is not None:
            mapping = self.bindings.get(table)
            if mapping is None:
                raise BindError(f"unknown table alias {table!r}")
            return [k for k in self.order if k in mapping.values()]
        return list(self.order)


class PlanBuilder:
    """Builds bound logical plans from parsed queries."""

    def __init__(self, catalog: Catalog,
                 params: Optional[Dict[str, object]] = None):
        self.catalog = catalog
        self.params = dict(params or {})

    # ------------------------------------------------------------------ #
    # entry points

    def build(self, query: Query) -> LogicalPlan:
        plans = [self._build_select(stmt) for stmt in query.selects]
        plan = plans[0]
        if len(plans) > 1:
            plan = Union(tuple(plans), all=query.union_all)
            if not query.union_all:
                plan = Distinct(plan)
        if query.order_by:
            schema = plan.schema
            keys = []
            for item in query.order_by:
                if item.column.name not in schema:
                    raise BindError(
                        f"ORDER BY column {item.column.name!r} not in output")
                keys.append(ColumnRef(item.column.name))
            plan = Sort(plan, tuple(keys),
                        tuple(i.ascending for i in query.order_by))
        if query.limit is not None:
            plan = Limit(plan, query.limit)
        return plan

    # ------------------------------------------------------------------ #
    # SELECT lowering

    def _build_select(self, stmt: SelectStmt) -> LogicalPlan:
        plan, scope = self._build_from(stmt)
        if stmt.where is not None:
            predicate = self._bind_expr(stmt.where, scope)
            if predicate.is_aggregate():
                raise PlanError("aggregates are not allowed in WHERE")
            plan = Filter(plan, predicate)
        plan = self._build_projection(stmt, plan, scope)
        if stmt.distinct:
            plan = Distinct(plan)
        if stmt.process is not None:
            plan = Process(
                plan,
                udo_name=stmt.process.udo_name,
                output_columns=plan.schema,
                deterministic=stmt.process.deterministic,
                dependency_depth=stmt.process.dependency_depth,
            )
        return plan

    def _build_from(self, stmt: SelectStmt) -> Tuple[LogicalPlan, _Scope]:
        scope = _Scope()
        plan = self._build_relation(stmt.relation, scope)
        for clause in stmt.joins:
            plan = self._build_join(plan, clause, scope)
        return plan, scope

    def _build_relation(self, relation: Relation, scope: _Scope) -> LogicalPlan:
        if isinstance(relation, TableRef):
            schema = self.catalog.schema(relation.name)
            plan: LogicalPlan = Scan(relation.name, schema.column_names,
                                     self.catalog.current_guid(relation.name))
            columns = list(schema.column_names)
        elif isinstance(relation, SubqueryRef):
            plan = self.build(relation.query)
            columns = list(plan.schema)
        else:  # pragma: no cover - exhaustive over Relation
            raise PlanError(f"unknown relation type {type(relation).__name__}")
        binding = relation.binding_name
        # Rename any column that collides with one already in scope, so
        # every key in the merged schema stays unique.
        taken = set(scope.order)
        keys: List[str] = []
        renames: List[Tuple[str, str]] = []
        for col in columns:
            if col in taken:
                key = f"{binding}.{col}"
                renames.append((col, key))
            else:
                key = col
            keys.append(key)
        if renames:
            exprs = tuple(ColumnRef(c) for c in columns)
            plan = Project(plan, exprs, tuple(keys))
        scope.add(binding, columns, keys)
        return plan

    def _build_join(self, left: LogicalPlan, clause: JoinClause,
                    scope: _Scope) -> LogicalPlan:
        left_keys_in_scope = set(scope.order)
        right = self._build_relation(clause.relation, scope)
        right_schema = set(right.schema)

        if clause.condition is None:
            # Natural join: equate columns common to both sides.  The
            # renamed right-side duplicates are exactly the shared names.
            binding = clause.relation.binding_name
            mapping = scope.bindings[binding]
            shared = sorted(
                col for col, key in mapping.items()
                if key != col and col in left_keys_in_scope)
            if not shared:
                return Join(left, right, how=clause.how)  # cross join
            lkeys = tuple(ColumnRef(col) for col in shared)
            rkeys = tuple(ColumnRef(mapping[col]) for col in shared)
            drop = tuple(mapping[col] for col in shared)
            # Dropped keys disappear from the scope's schema but the
            # binding still resolves them to the surviving left copy.
            for col in shared:
                scope.order.remove(mapping[col])
                mapping[col] = col
            return Join(left, right, lkeys, rkeys, None, clause.how, drop)

        predicate = self._bind_expr(clause.condition, scope)
        lkeys: List[Expr] = []
        rkeys: List[Expr] = []
        residual: List[Expr] = []
        for conjunct in conjuncts(predicate):
            pair = self._equi_pair(conjunct, left_keys_in_scope, right_schema)
            if pair is not None:
                lkeys.append(pair[0])
                rkeys.append(pair[1])
            else:
                residual.append(conjunct)
        return Join(left, right, tuple(lkeys), tuple(rkeys),
                    conjoin(residual), clause.how)

    @staticmethod
    def _equi_pair(conjunct: Expr, left_cols: set,
                   right_cols: set) -> Optional[Tuple[Expr, Expr]]:
        """Split ``a = b`` into (left-side, right-side) key expressions."""
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            return None

        def side(expr: Expr) -> Optional[str]:
            cols = list(expr.columns())
            if not cols:
                return None
            if all(c in left_cols for c in cols):
                return "left"
            if all(c in right_cols for c in cols):
                return "right"
            return None

        lhs_side, rhs_side = side(conjunct.left), side(conjunct.right)
        if lhs_side == "left" and rhs_side == "right":
            return conjunct.left, conjunct.right
        if lhs_side == "right" and rhs_side == "left":
            return conjunct.right, conjunct.left
        return None

    # ------------------------------------------------------------------ #
    # projection / aggregation

    def _build_projection(self, stmt: SelectStmt, plan: LogicalPlan,
                          scope: _Scope) -> LogicalPlan:
        exprs: List[Expr] = []
        names: List[str] = []
        for item in stmt.items:
            if isinstance(item.expr, Star):
                for key in scope.all_keys(item.expr.table):
                    exprs.append(ColumnRef(key))
                    names.append(key)
                continue
            bound = self._bind_expr(item.expr, scope)
            exprs.append(bound)
            # Name from the *unbound* expression so qualified references
            # keep their bare column name (``c.CustomerId`` -> CustomerId).
            names.append(item.alias or item.expr.output_name())
        if len(set(names)) != len(names):
            names = _dedupe(names)

        group_keys = tuple(
            ColumnRef(scope.resolve(ref)) for ref in stmt.group_by)
        has_aggregates = any(e.is_aggregate() for e in exprs)
        having = (self._bind_expr(stmt.having, scope)
                  if stmt.having is not None else None)

        if not group_keys and not has_aggregates:
            if having is not None:
                raise PlanError("HAVING requires GROUP BY or aggregates")
            return Project(plan, tuple(exprs), tuple(names))

        # Collect every distinct aggregate call in the select list + HAVING.
        agg_calls: List[FuncCall] = []
        agg_names: Dict[FuncCall, str] = {}

        def collect(expr: Expr) -> None:
            for node in expr.walk():
                if isinstance(node, FuncCall) and node.is_aggregate() \
                        and node not in agg_names:
                    agg_names[node] = f"__agg{len(agg_calls)}"
                    agg_calls.append(node)

        for expr in exprs:
            collect(expr)
        if having is not None:
            collect(having)

        key_names = tuple(k.name for k in group_keys)
        group = GroupBy(plan, group_keys, tuple(agg_calls),
                        key_names + tuple(agg_names[a] for a in agg_calls))

        def replace_aggs(expr: Expr) -> Optional[Expr]:
            if isinstance(expr, FuncCall) and expr in agg_names:
                return ColumnRef(agg_names[expr])
            return None

        result: LogicalPlan = group
        if having is not None:
            result = Filter(result, rewrite(having, replace_aggs))
        final_exprs = tuple(rewrite(e, replace_aggs) for e in exprs)
        for expr in final_exprs:
            for col in expr.columns():
                if col not in group.schema:
                    raise PlanError(
                        f"column {col!r} must appear in GROUP BY or an aggregate")
        return Project(result, final_exprs, tuple(names))

    # ------------------------------------------------------------------ #
    # expression binding

    def _bind_expr(self, expr: Expr, scope: _Scope) -> Expr:
        def bind(node: Expr) -> Optional[Expr]:
            if isinstance(node, ColumnRef):
                return ColumnRef(scope.resolve(node))
            if isinstance(node, Literal) and node.param_name is not None \
                    and node.value is None and node.param_name in self.params:
                return Literal(self.params[node.param_name], node.param_name)
            return None

        return rewrite(expr, bind)


def _dedupe(names: Sequence[str]) -> List[str]:
    """Make output column names unique by suffixing duplicates."""
    seen: Dict[str, int] = {}
    result: List[str] = []
    for name in names:
        count = seen.get(name, 0)
        seen[name] = count + 1
        result.append(name if count == 0 else f"{name}_{count}")
    return result
