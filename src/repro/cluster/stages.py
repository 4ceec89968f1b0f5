"""Stage-graph construction for the cluster simulator.

A SCOPE job executes as a DAG of *stages*, each running as a set of
parallel containers over partitions of its input.  This module lowers an
optimized logical plan (plus the row counts observed by the executor) into
that stage DAG:

* pipelined unary operators (Filter, Project, Limit, Process) fuse into
  their child's stage;
* blocking operators (Join, GroupBy, Sort, Distinct, Union) start a new
  stage that depends on its input stages;
* a :class:`~repro.plan.logical.Spool` puts its *materializing* consumer
  into a separate writer stage that runs in parallel with the rest of the
  job -- "we materialize CloudViews in an online fashion in a separate
  stage that runs in parallel and hence the impact of latency is typically
  less" (Section 3.2).  The job finishes only when the writer finishes
  (the overhead is real processing time), but downstream operators do not
  wait for it.

Two numbers drive the simulation, and they deliberately come from
different sources:

* ``partitions`` (how many containers the stage asks for) comes from
  *compile-time estimates*, reproducing SCOPE's over-partitioning from
  cardinality over-estimation (Section 3.5).  A ViewScan carries its true
  row count, so stages over reused views request fewer containers.
* ``work`` (how much computation the stage actually performs) comes from
  *observed* executor statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.executor.executor import ExecutionResult, OperatorStats
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

#: Rows a single container comfortably processes in one stage.
DEFAULT_ROWS_PER_PARTITION = 25.0
DEFAULT_MAX_PARTITIONS = 64

#: Work units charged per row by operator family (matches the cost model's
#: spirit: UDOs are expensive, spool writes cost extra I/O).
_WORK_IN = {
    "Filter": 1.0, "Project": 1.0, "Join": 1.5, "GroupBy": 1.2,
    "Union": 0.2, "Distinct": 1.0, "Sort": 1.6, "Limit": 0.1,
    "Process": 3.0, "Spool": 2.0, "Scan": 0.0, "ViewScan": 0.0,
}
_WORK_OUT = {
    "Scan": 1.0, "ViewScan": 1.0, "Join": 0.5, "GroupBy": 0.3,
}


@dataclass
class Stage:
    """One schedulable unit of a job."""

    stage_id: int
    dependencies: List[int] = field(default_factory=list)
    work: float = 0.0
    partitions: int = 1
    est_rows: float = 0.0
    actual_rows: int = 0
    is_spool_writer: bool = False
    spool_signature: Optional[str] = None
    operators: List[str] = field(default_factory=list)


@dataclass
class StageGraph:
    """The complete stage DAG of one job."""

    stages: List[Stage] = field(default_factory=list)

    def new_stage(self) -> Stage:
        stage = Stage(stage_id=len(self.stages))
        self.stages.append(stage)
        return stage

    @property
    def total_work(self) -> float:
        return sum(s.work for s in self.stages)

    def roots(self) -> List[Stage]:
        """Stages with no dependencies (runnable at job start)."""
        return [s for s in self.stages if not s.dependencies]


def build_stage_graph(plan: LogicalPlan,
                      result: ExecutionResult,
                      estimator: CardinalityEstimator,
                      rows_per_partition: float = DEFAULT_ROWS_PER_PARTITION,
                      max_partitions: int = DEFAULT_MAX_PARTITIONS) -> StageGraph:
    """Lower an executed plan into its stage DAG."""
    stats = {id(node): s for node, s in result.node_stats}
    graph = StageGraph()
    builder = _Builder(graph, stats, estimator,
                       rows_per_partition, max_partitions)
    builder.lower(plan)
    return graph


class _Builder:
    def __init__(self, graph: StageGraph, stats: Dict[int, OperatorStats],
                 estimator: CardinalityEstimator,
                 rows_per_partition: float, max_partitions: int):
        self.graph = graph
        self.stats = stats
        self.estimator = estimator
        self.rows_per_partition = rows_per_partition
        self.max_partitions = max_partitions

    def lower(self, plan: LogicalPlan) -> Stage:
        kind = type(plan)

        if kind in (Scan, ViewScan):
            stage = self.graph.new_stage()
            self._charge(stage, plan)
            return stage

        if kind is Spool:
            # Pass-through consumer stays in the child's stage; the
            # materializing consumer becomes a parallel writer stage.
            child_stage = self.lower(plan.child)
            writer = self.graph.new_stage()
            writer.dependencies.append(child_stage.stage_id)
            writer.is_spool_writer = True
            writer.spool_signature = plan.signature
            self._charge(writer, plan)
            return child_stage

        if kind in (Filter, Project, Limit, Process):
            stage = self.lower(plan.child)
            self._charge(stage, plan)
            return stage

        # Blocking operators start a new stage.
        stage = self.graph.new_stage()
        for child in plan.children():
            child_stage = self.lower(child)
            stage.dependencies.append(child_stage.stage_id)
        self._charge(stage, plan)
        return stage

    def _charge(self, stage: Stage, plan: LogicalPlan) -> None:
        stats = self.stats.get(id(plan))
        rows_in = stats.rows_in if stats else 0
        rows_out = stats.rows_out if stats else 0
        label = plan.op_label
        stage.work += (rows_in * _WORK_IN.get(label, 1.0)
                       + rows_out * _WORK_OUT.get(label, 0.0)
                       + 1.0)  # per-operator fixed overhead
        stage.actual_rows = max(stage.actual_rows, rows_out)
        est = self.estimator.estimate(plan)
        stage.est_rows = max(stage.est_rows, est)
        stage.partitions = _clamp_partitions(
            stage.est_rows, self.rows_per_partition, self.max_partitions)
        stage.operators.append(label)


def _clamp_partitions(est_rows: float, rows_per_partition: float,
                      max_partitions: int) -> int:
    wanted = math.ceil(max(est_rows, 1.0) / rows_per_partition)
    return max(1, min(max_partitions, wanted))
