"""Logical rewrite rules applied before signature computation.

Two rules matter for computation reuse:

* **Filter pushdown** moves predicates as close to their scans as possible.
  This is what exposes the paper's Figure 4 sharing: the
  ``MktSegment = 'Asia'`` filter sinks below the upper joins, so all three
  analyst queries contain the identical ``Filter(Scan Customer)`` /
  ``Join(Sales, ...)`` fragments.
* **Constant folding** collapses literal arithmetic so trivially different
  spellings normalize to the same plan.  Literals bound from job parameters
  are never folded -- folding would erase the parameter provenance that
  recurring signatures depend on.
"""

from __future__ import annotations

from typing import List, Optional

from repro.plan.expressions import (
    BinaryOp,
    ColumnRef,
    Expr,
    Literal,
    UnaryOp,
    conjoin,
    conjuncts,
    rewrite as rewrite_expr,
)
from repro.plan.logical import (
    Filter,
    GroupBy,
    Join,
    LogicalPlan,
    Project,
    Union,
)


def apply_rewrites(plan: LogicalPlan) -> LogicalPlan:
    """Run all rewrite rules to a fixpoint (bounded).

    Every rule returns its input *object* when it changes nothing, so the
    fixpoint is an identity test and rewriting an already rewritten plan
    allocates no nodes (and keeps the signatures cached on them).
    """
    for _ in range(10):
        rewritten = push_filters(fold_constants(plan))
        if rewritten is plan:
            return plan
        plan = rewritten
    return plan


# --------------------------------------------------------------------- #
# constant folding


def fold_constants(plan: LogicalPlan) -> LogicalPlan:
    children = plan.children()
    if children:
        new_children = [fold_constants(child) for child in children]
        if any(n is not o for n, o in zip(new_children, children)):
            plan = plan.with_children(new_children)
    if isinstance(plan, Filter):
        folded = _fold_expr(plan.predicate)
        if folded is not plan.predicate:
            plan = Filter(plan.child, folded)
    if isinstance(plan, Project):
        exprs = tuple(_fold_expr(e) for e in plan.exprs)
        if exprs != plan.exprs:
            plan = Project(plan.child, exprs, plan.names)
    return plan


def _fold_expr(expr: Expr) -> Expr:
    def fold(node: Expr) -> Optional[Expr]:
        if isinstance(node, BinaryOp) \
                and _foldable(node.left) and _foldable(node.right) \
                and node.op not in ("AND", "OR"):
            try:
                return Literal(node.evaluate({}))
            except Exception:
                return None
        if isinstance(node, UnaryOp) and node.op == "-" \
                and _foldable(node.operand):
            return Literal(node.evaluate({}))
        return None

    return rewrite_expr(expr, fold)


def _foldable(expr: Expr) -> bool:
    return isinstance(expr, Literal) and expr.param_name is None


# --------------------------------------------------------------------- #
# filter pushdown


def push_filters(plan: LogicalPlan) -> LogicalPlan:
    children = plan.children()
    if children:
        new_children = [push_filters(child) for child in children]
        if any(n is not o for n, o in zip(new_children, children)):
            plan = plan.with_children(new_children)
    if isinstance(plan, Filter):
        pushed = _push_one(plan)
        if pushed is not plan:
            return push_filters(pushed)
    return plan


def _push_one(plan: Filter) -> LogicalPlan:
    child = plan.child
    if isinstance(child, Filter):
        # One filter: a conjunct above may sink past what stopped the one
        # below (a key above a group's HAVING), as ``normalize`` would let it.
        return Filter(child.child, conjoin(
            conjuncts(child.predicate) + conjuncts(plan.predicate)))
    if isinstance(child, Join):
        return _push_into_join(plan, child)
    if isinstance(child, Project):
        return _push_through_project(plan, child)
    if isinstance(child, Union):
        return _push_into_union(plan, child)
    if isinstance(child, GroupBy):
        return _push_through_groupby(plan, child)
    return plan


def _push_into_join(plan: Filter, join: Join) -> LogicalPlan:
    left_cols = set(join.left.schema)
    # Right-side columns as seen *above* the join exclude dropped ones, but
    # predicates can only reference surviving columns anyway.
    right_cols = set(join.right.schema) - set(join.drop_right)
    to_left: List[Expr] = []
    to_right: List[Expr] = []
    keep: List[Expr] = []
    for conjunct in conjuncts(plan.predicate):
        cols = set(conjunct.columns())
        if cols and cols <= left_cols:
            to_left.append(conjunct)
        elif cols and cols <= right_cols and join.how == "inner":
            # Pushing below the null-producing side of a LEFT join would
            # change semantics, so only inner joins push right.
            to_right.append(conjunct)
        else:
            keep.append(conjunct)
    if not to_left and not to_right:
        return plan
    left = Filter(join.left, conjoin(to_left)) if to_left else join.left
    right = Filter(join.right, conjoin(to_right)) if to_right else join.right
    new_join = Join(left, right, join.left_keys, join.right_keys,
                    join.residual, join.how, join.drop_right)
    remaining = conjoin(keep)
    return Filter(new_join, remaining) if remaining is not None else new_join


def _push_through_project(plan: Filter, project: Project) -> LogicalPlan:
    """Substitute projection definitions into the predicate and sink it."""
    mapping = dict(zip(project.names, project.exprs))

    ok = True

    def substitute(node: Expr) -> Optional[Expr]:
        nonlocal ok
        if isinstance(node, ColumnRef):
            replacement = mapping.get(node.key)
            if replacement is None:
                ok = False
                return None
            if replacement.is_aggregate():
                ok = False
                return None
            return replacement
        return None

    substituted = rewrite_expr(plan.predicate, substitute)
    if not ok:
        return plan
    return Project(Filter(project.child, substituted),
                   project.exprs, project.names)


def _push_into_union(plan: Filter, union: Union) -> LogicalPlan:
    schema = union.schema
    inputs = []
    for child in union.inputs:
        predicate = plan.predicate
        child_schema = child.schema
        if child_schema != schema:
            renames = dict(zip(schema, child_schema))

            def rename(node: Expr, table=renames) -> Optional[Expr]:
                if isinstance(node, ColumnRef) and node.key in table:
                    return ColumnRef(table[node.key])
                return None

            predicate = rewrite_expr(predicate, rename)
        inputs.append(Filter(child, predicate))
    return Union(tuple(inputs), union.all)


def _push_through_groupby(plan: Filter, group: GroupBy) -> LogicalPlan:
    """Push conjuncts that reference only grouping keys below the group."""
    key_names = {k.name for k in group.keys}
    below: List[Expr] = []
    keep: List[Expr] = []
    for conjunct in conjuncts(plan.predicate):
        cols = set(conjunct.columns())
        if cols and cols <= key_names:
            below.append(conjunct)
        else:
            keep.append(conjunct)
    if not below:
        return plan
    pushed = GroupBy(Filter(group.child, conjoin(below)),
                     group.keys, group.aggregates, group.names)
    remaining = conjoin(keep)
    return Filter(pushed, remaining) if remaining is not None else pushed
