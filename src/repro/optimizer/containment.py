"""Containment checking over conjunctive range predicates (Section 5.3).

The paper's own example: a view ``SELECT * FROM Sales WHERE CustomerId > 5``
can answer ``... WHERE CustomerId > 6`` with a compensating filter.
General containment is NP-complete; this module handles the tractable
fragment of conjunctive range/equality predicates over the same relation,
which already covers the recurring-filter patterns of cooked workloads.

A verdict only: view matching stays hash equality on strict signatures
(Section 2.3) and never calls it.  Figure 8's benchmark and the soundness
property use :meth:`ContainmentChecker.contains` through
:mod:`repro.extensions.generalized`, beside the join-set analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.plan.expressions import (
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    Literal,
    conjuncts,
)

# --------------------------------------------------------------------- #
# containment over conjunctive range predicates



@dataclass(frozen=True)
class _Range:
    """Closed-open interval constraint on one column.

    ``members`` (an IN-list) is an alternative finite-set constraint; a
    range with ``members`` set admits exactly those values.
    """

    low: Optional[float] = None
    low_inclusive: bool = True
    high: Optional[float] = None
    high_inclusive: bool = True
    equal: Optional[object] = None
    members: Optional[frozenset] = None

    def contains(self, other: "_Range") -> bool:
        """True if every value satisfying ``other`` satisfies ``self``."""
        if self.members is not None:
            if other.members is not None:
                return other.members <= self.members
            if other.equal is not None:
                return other.equal in self.members
            return False  # a range admits infinitely many values
        if other.members is not None:
            return all(self._admits(value) for value in other.members)
        if self.equal is not None:
            return other.equal is not None and other.equal == self.equal
        if other.equal is not None:
            return self._admits(other.equal)
        if self.low is not None:
            if other.low is None:
                return False
            if other.low < self.low:
                return False
            if other.low == self.low and other.low_inclusive \
                    and not self.low_inclusive:
                return False
        if self.high is not None:
            if other.high is None:
                return False
            if other.high > self.high:
                return False
            if other.high == self.high and other.high_inclusive \
                    and not self.high_inclusive:
                return False
        return True

    def _admits(self, value: object) -> bool:
        try:
            if self.low is not None:
                if value < self.low:
                    return False
                if value == self.low and not self.low_inclusive:
                    return False
            if self.high is not None:
                if value > self.high:
                    return False
                if value == self.high and not self.high_inclusive:
                    return False
        except TypeError:
            return False
        return True


class ContainmentChecker:
    """Decides containment for conjunctions of column-vs-literal predicates.

    ``contains(general, specific)`` is sound but deliberately incomplete:
    if any conjunct cannot be normalized into a range constraint the
    checker answers False (never a wrong True).
    """

    def contains(self, general: Optional[Expr],
                 specific: Optional[Expr]) -> bool:
        general_ranges = self._to_ranges(general)
        if general_ranges is None:
            return False
        if not general_ranges:
            return True  # unconstrained view contains everything
        specific_ranges = self._to_ranges(specific)
        if specific_ranges is None:
            return False
        for column, grange in general_ranges.items():
            srange = specific_ranges.get(column)
            if srange is None:
                return False  # query is looser on this column
            if not grange.contains(srange):
                return False
        return True

    # ------------------------------------------------------------------ #

    def _to_ranges(self, predicate: Optional[Expr]
                   ) -> Optional[Dict[str, _Range]]:
        if predicate is None:
            return {}
        ranges: Dict[str, _Range] = {}
        for conjunct in conjuncts(predicate):
            parsed = self._parse(conjunct)
            if parsed is None:
                return None
            column, new = parsed
            existing = ranges.get(column)
            ranges[column] = _intersect(existing, new) if existing else new
        return ranges

    @staticmethod
    def _parse(conjunct: Expr) -> Optional[Tuple[str, _Range]]:
        if isinstance(conjunct, InList) and not conjunct.negated \
                and isinstance(conjunct.operand, ColumnRef):
            return conjunct.operand.key, _Range(
                members=frozenset(v.value for v in conjunct.values))
        if not isinstance(conjunct, BinaryOp):
            return None
        op, lhs, rhs = conjunct.op, conjunct.left, conjunct.right
        if isinstance(lhs, Literal) and isinstance(rhs, ColumnRef):
            lhs, rhs = rhs, lhs
            op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        if not (isinstance(lhs, ColumnRef) and isinstance(rhs, Literal)):
            return None
        value = rhs.value
        if op == "=":
            return lhs.key, _Range(equal=value)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return None
        if op == ">":
            return lhs.key, _Range(low=float(value), low_inclusive=False)
        if op == ">=":
            return lhs.key, _Range(low=float(value))
        if op == "<":
            return lhs.key, _Range(high=float(value), high_inclusive=False)
        if op == "<=":
            return lhs.key, _Range(high=float(value))
        return None


def _intersect(a: _Range, b: _Range) -> _Range:
    if a.members is not None or b.members is not None:
        if a.members is not None and b.members is not None:
            return _Range(members=a.members & b.members)
        return a if a.members is not None else b
    if a.equal is not None or b.equal is not None:
        return a if a.equal is not None else b
    low, low_inc = a.low, a.low_inclusive
    if b.low is not None and (low is None or b.low > low
                              or (b.low == low and not b.low_inclusive)):
        low, low_inc = b.low, b.low_inclusive
    high, high_inc = a.high, a.high_inclusive
    if b.high is not None and (high is None or b.high < high
                               or (b.high == high and not b.high_inclusive)):
        high, high_inc = b.high, b.high_inclusive
    return _Range(low=low, low_inclusive=low_inc,
                  high=high, high_inclusive=high_inc)
