"""Plan normalization for signature stability.

CloudViews "considers only the same logical query subexpressions (with some
normalization) for reuse" (Section 1).  Normalization makes syntactically
different but trivially equivalent plans hash to the same signature:

* nested filters are merged and their conjuncts canonically ordered;
* join equi-key pairs are canonically ordered;
* identity projections are removed;
* commutative expression operands are ordered (handled inside
  :meth:`Expr.canonical`, which signatures use).

Anything beyond this -- true logical equivalence or containment -- is out of
scope for the production path (Section 5.3) and lives in
:mod:`repro.extensions.generalized`.
"""

from __future__ import annotations

from typing import List

from repro.plan.expressions import ColumnRef, Expr, conjoin, conjuncts
from repro.plan.logical import Filter, Join, LogicalPlan, Project


def normalize(plan: LogicalPlan) -> LogicalPlan:
    """Return the canonical form of ``plan`` (bottom-up, non-destructive).

    A plan that is already canonical comes back as the same object.
    """
    children = plan.children()
    if children:
        new_children = [normalize(child) for child in children]
        if any(n is not o for n, o in zip(new_children, children)):
            plan = plan.with_children(new_children)
    return normalize_node(plan)


def normalize_node(plan: LogicalPlan) -> LogicalPlan:
    """The canonical form of ``plan`` whose children are canonical already.

    It reads literal values only through the node's *own* expressions
    (``canonical()`` orders and de-duplicates a filter's conjuncts and a
    join's key pairs); the rest is structural.
    """
    if isinstance(plan, Filter):
        return _normalize_filter(plan)
    if isinstance(plan, Join):
        return _normalize_join(plan)
    if isinstance(plan, Project):
        return _strip_identity_project(plan)
    return plan


def _normalize_filter(plan: Filter) -> LogicalPlan:
    """Merge filter chains and canonically order conjuncts."""
    predicates: List[Expr] = []
    node: LogicalPlan = plan
    while isinstance(node, Filter):
        predicates.extend(conjuncts(node.predicate))
        node = node.child
    unique = {p.canonical(): p for p in predicates}
    ordered = [unique[key] for key in sorted(unique)]
    merged = conjoin(ordered)
    if merged is None:  # pragma: no cover - Filter always has a predicate
        return node
    if node is plan.child and merged == plan.predicate:
        return plan  # already canonical: keep the node (and its signatures)
    return Filter(node, merged)


def _normalize_join(plan: Join) -> Join:
    """Order equi-key pairs canonically (they are an unordered set)."""
    if len(plan.left_keys) <= 1:
        return plan
    pairs = sorted(
        zip(plan.left_keys, plan.right_keys),
        key=lambda pair: (pair[0].canonical(), pair[1].canonical()))
    left_keys = tuple(p[0] for p in pairs)
    right_keys = tuple(p[1] for p in pairs)
    if left_keys == plan.left_keys and right_keys == plan.right_keys:
        return plan
    return Join(plan.left, plan.right, left_keys, right_keys,
                plan.residual, plan.how, plan.drop_right)


def _strip_identity_project(plan: Project) -> LogicalPlan:
    """Remove a projection that passes every child column through unchanged."""
    child_schema = plan.child.schema
    if plan.names != child_schema:
        return plan
    for expr, name in zip(plan.exprs, plan.names):
        if not (isinstance(expr, ColumnRef) and expr.key == name):
            return plan
    return plan.child
