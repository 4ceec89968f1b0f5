"""Cardinality estimation with workload-history feedback.

SCOPE "often ends up overestimating cardinalities and thus over-partitioning
the intermediate outputs, leading to many more containers getting
instantiated" (Section 3.5).  The estimator reproduces that bias with a
configurable per-operator over-estimation factor.

CloudViews counters the bias two ways, both modelled here:

* the :class:`StatisticsCatalog` records *observed* row counts per strict
  and recurring signature from past executions ("by considering only the
  same logical subexpressions for reuse, CloudViews is able to leverage the
  actual runtime statistics seen in the past instances", Section 2.4);
* a :class:`~repro.plan.logical.ViewScan` carries the materialized view's
  true row count, which then flows upward through the rest of the plan
  ("computation reuse further helps feed more accurate statistics from the
  previously materialized subexpressions to the rest of the query plan",
  Section 3.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.plan.expressions import BinaryOp, Expr, InList, Like, UnaryOp
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
from repro.signatures.signature import recurring_signature, strict_signature

#: Default multiplicative over-estimation applied at joins and aggregations.
DEFAULT_OVERESTIMATE = 2.0

_EQUALITY_SELECTIVITY = 0.1
_RANGE_SELECTIVITY = 0.3
_DEFAULT_SELECTIVITY = 0.25


@dataclass
class ObservedStats:
    """Runtime numbers recorded for one subexpression signature."""

    rows: int
    bytes: int
    occurrences: int = 1

    def merge(self, rows: int, size: int) -> None:
        # Exponentially-smoothed history keeps recent behaviour dominant.
        self.rows = int(0.5 * self.rows + 0.5 * rows)
        self.bytes = int(0.5 * self.bytes + 0.5 * size)
        self.occurrences += 1


class StatisticsCatalog:
    """Observed runtime statistics keyed by subexpression signature."""

    def __init__(self) -> None:
        self._by_strict: Dict[str, ObservedStats] = {}
        self._by_recurring: Dict[str, ObservedStats] = {}

    def record(self, strict: str, recurring: str, rows: int, size: int) -> None:
        for table, key in ((self._by_strict, strict),
                           (self._by_recurring, recurring)):
            entry = table.get(key)
            if entry is None:
                table[key] = ObservedStats(rows=rows, bytes=size)
            else:
                entry.merge(rows, size)

    def rows_for_strict(self, signature: str) -> Optional[int]:
        entry = self._by_strict.get(signature)
        return entry.rows if entry else None

    def rows_for_recurring(self, signature: str) -> Optional[int]:
        entry = self._by_recurring.get(signature)
        return entry.rows if entry else None

    def __len__(self) -> int:
        return len(self._by_recurring)


class CardinalityEstimator:
    """Estimates output rows for each operator of a logical plan.

    Short-lived (one compilation, one stage graph): each node object is
    estimated once and the answer kept for the estimator's lifetime.
    """

    def __init__(self, catalog: Catalog,
                 history: Optional[StatisticsCatalog] = None,
                 overestimate: float = DEFAULT_OVERESTIMATE,
                 salt: str = ""):
        self.catalog = catalog
        self.history = history
        self.overestimate = max(1.0, overestimate)
        self.salt = salt
        #: id(node) -> (node, rows); holding the node keeps its id its own.
        self._memo: Dict[int, Tuple[LogicalPlan, float]] = {}

    def estimate(self, plan: LogicalPlan) -> float:
        """Estimated output rows for ``plan`` (history-aware)."""
        known = self._memo.get(id(plan))
        if known is None:
            known = self._memo[id(plan)] = (plan, self._estimate(plan))
        return known[1]

    def _estimate(self, plan: LogicalPlan) -> float:
        if self.history is not None:
            observed = self.history.rows_for_strict(
                strict_signature(plan, self.salt))
            if observed is not None:
                return float(observed)
            observed = self.history.rows_for_recurring(
                recurring_signature(plan, self.salt))
            if observed is not None:
                return float(observed)
        return self._formula(plan)

    # ------------------------------------------------------------------ #
    # formula-based fallbacks (deliberately biased upward)

    def _formula(self, plan: LogicalPlan) -> float:
        kind = type(plan)
        if kind is Scan:
            if self.catalog.has(plan.dataset):
                return float(self.catalog.current_version(plan.dataset).row_count)
            return 1000.0
        if kind is ViewScan:
            # Views carry their *actual* row count: accurate by design.
            return float(plan.rows if plan.rows is not None else 1000.0)
        if kind is Filter:
            child = self.estimate(plan.child)
            # The over-estimation bias models under-estimated selectivity:
            # SCOPE assumes filters keep more rows than they really do.
            selectivity = min(1.0, _predicate_selectivity(plan.predicate)
                              * self.overestimate)
            return max(1.0, child * selectivity)
        if kind is Project:
            return self.estimate(plan.child)
        if kind is Join:
            return self._join_estimate(plan)
        if kind is GroupBy:
            child = self.estimate(plan.child)
            if not plan.keys:
                return 1.0
            distinct = max(1.0, child ** 0.7)
            return min(child, distinct * self.overestimate)
        if kind is Union:
            return sum(self.estimate(c) for c in plan.inputs)
        if kind is Distinct:
            return max(1.0, self.estimate(plan.child) * 0.6)
        if kind is Sort:
            return self.estimate(plan.child)
        if kind is Limit:
            return min(float(plan.count), self.estimate(plan.child))
        if kind is Process:
            return self.estimate(plan.child)
        if kind is Spool:
            return self.estimate(plan.child)
        return 1000.0

    def _join_estimate(self, plan: Join) -> float:
        left = self.estimate(plan.left)
        right = self.estimate(plan.right)
        if not plan.left_keys:
            if plan.residual is None:
                return left * right  # cross join
            return max(1.0, left * right * _DEFAULT_SELECTIVITY)
        # Classic equi-join estimate: |L| * |R| / max(distinct keys);
        # with distinct ~ the smaller side, this is ~ the larger side.
        base = left * right / max(left, right, 1.0)
        if plan.residual is not None:
            base *= _predicate_selectivity(plan.residual)
        if plan.how == "left":
            base = max(base, left)
        return max(1.0, base * self.overestimate)


def _predicate_selectivity(predicate: Expr) -> float:
    """Crude textbook selectivity, compounding over conjuncts."""
    if isinstance(predicate, BinaryOp):
        if predicate.op == "AND":
            return (_predicate_selectivity(predicate.left)
                    * _predicate_selectivity(predicate.right))
        if predicate.op == "OR":
            lhs = _predicate_selectivity(predicate.left)
            rhs = _predicate_selectivity(predicate.right)
            return min(1.0, lhs + rhs)
        if predicate.op == "=":
            return _EQUALITY_SELECTIVITY
        if predicate.op in ("<", "<=", ">", ">="):
            return _RANGE_SELECTIVITY
        if predicate.op == "<>":
            return 1.0 - _EQUALITY_SELECTIVITY
    if isinstance(predicate, UnaryOp) and predicate.op == "NOT":
        return max(0.05, 1.0 - _predicate_selectivity(predicate.operand))
    if isinstance(predicate, InList):
        base = min(1.0, _EQUALITY_SELECTIVITY * len(predicate.values))
        return 1.0 - base if predicate.negated else base
    if isinstance(predicate, Like):
        return 1.0 - _EQUALITY_SELECTIVITY if predicate.negated \
            else _RANGE_SELECTIVITY
    return _DEFAULT_SELECTIVITY
