"""Plan cost model.

Costs are abstract work units (roughly "row touches").  The absolute scale
is irrelevant; what matters is the *comparison* the optimizer makes in
Figure 5: "the plan using a materialized subexpression is chosen only if
its cost is lower than the plan without the materialized subexpression".

A ViewScan charges the I/O of re-reading the materialized rows; a Spool
charges the extra write.  Everything else scales with (estimated) rows in
and out, so reading a small pre-aggregated view beats recomputing a large
join pipeline, while reading a huge view that saved little work does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.optimizer.stats import CardinalityEstimator
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


@dataclass(frozen=True)
class CostModel:
    """Per-row work coefficients."""

    cpu_per_row: float = 1.0
    read_per_row: float = 0.5
    write_per_row: float = 2.0
    udo_per_row: float = 3.0
    operator_startup: float = 10.0

    def plan_cost(self, plan: LogicalPlan, estimator: CardinalityEstimator,
                  budget: float = math.inf) -> float:
        """Total estimated cost of executing ``plan``.

        With a ``budget``, costing stops as soon as a partial sum exceeds
        it.  Operator costs are non-negative and the summation order is
        the unbudgeted one, so a partial sum never exceeds the full cost,
        in floating point too: the result exceeds ``budget`` exactly when
        the full cost does, and is the full cost, bit for bit, otherwise.
        """
        total = self.operator_cost(plan, estimator)
        for child in plan.children():
            if total > budget:
                return total
            total += self.plan_cost(child, estimator, budget)
        return total

    def operator_cost(self, plan: LogicalPlan,
                      estimator: CardinalityEstimator) -> float:
        """Cost of one operator, excluding its children."""
        kind = type(plan)
        rows_out = estimator.estimate(plan)
        if kind is Scan:
            return self.operator_startup + rows_out * self.read_per_row
        if kind is ViewScan:
            return self.operator_startup + rows_out * self.read_per_row
        if kind is Filter:
            rows_in = estimator.estimate(plan.child)
            return self.operator_startup + rows_in * self.cpu_per_row
        if kind is Project:
            rows_in = estimator.estimate(plan.child)
            return self.operator_startup + rows_in * self.cpu_per_row
        if kind is Join:
            left = estimator.estimate(plan.left)
            right = estimator.estimate(plan.right)
            if plan.left_keys:
                build_probe = left + right
            else:
                build_probe = left * right  # nested loops
            return (self.operator_startup
                    + build_probe * self.cpu_per_row
                    + rows_out * self.cpu_per_row * 0.5)
        if kind is GroupBy:
            rows_in = estimator.estimate(plan.child)
            return self.operator_startup + rows_in * self.cpu_per_row * 1.2
        if kind is Union:
            return self.operator_startup
        if kind is Distinct:
            rows_in = estimator.estimate(plan.child)
            return self.operator_startup + rows_in * self.cpu_per_row
        if kind is Sort:
            rows_in = estimator.estimate(plan.child)
            return (self.operator_startup
                    + rows_in * max(1.0, math.log2(max(rows_in, 2.0)))
                    * self.cpu_per_row * 0.2)
        if kind is Limit:
            return self.operator_startup
        if kind is Process:
            rows_in = estimator.estimate(plan.child)
            return self.operator_startup + rows_in * self.udo_per_row
        if kind is Spool:
            # The materialization overhead the first job pays (Section 2.4,
            # "User expectations": the first query slows down).
            return self.operator_startup + rows_out * self.write_per_row
        return self.operator_startup
