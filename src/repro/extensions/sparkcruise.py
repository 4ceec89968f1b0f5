"""SparkCruise-style integration surface (Section 5.5).

SparkCruise brought CloudViews' ideas to Spark *without modifying the
engine*: "we use the optimizer extensions API in Spark to add two
additional rules to the query optimizer -- first for online
materialization, and second for computation reuse.  We also implemented an
event listener for Spark SQL that can log query plans and compute
signature annotations".  Users drive their own feedback loop and can
inspect a *Workload Insights Notebook* before enabling the feature.

This module mirrors that deployment shape over our engine:

* :class:`QueryEventListener` -- passive plan/signature logging attached
  to an engine, building a workload repository from the outside;
* :func:`workload_insights_report` -- the notebook's aggregate statistics
  and redundancy summary that "can convince the users to enable the
  computation reuse feature on their workloads".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.runner import record_job_into
from repro.engine.engine import JobRun, ScopeEngine
from repro.selection.candidates import build_candidates
from repro.selection.greedy import greedy_select
from repro.selection.policies import SelectionPolicy, SelectionResult
from repro.workload.analysis import pipeline_summary
from repro.workload.repository import WorkloadRepository


@dataclass
class QueryEventListener:
    """Logs executed jobs into an application-level workload repository.

    Attach it to user code around :meth:`ScopeEngine.run_sql`; nothing in
    the engine needs to change -- the SparkCruise deployment constraint.
    """

    engine: ScopeEngine
    repository: WorkloadRepository = field(default_factory=WorkloadRepository)
    _full_work: Dict[str, float] = field(default_factory=dict)

    def on_query_end(self, run: JobRun, now: float = 0.0,
                     application_id: str = "spark-app") -> None:
        record_job_into(
            self.repository, run, now,
            virtual_cluster=application_id,
            template_id=run.compiled.sql.strip()[:64],
            pipeline_id=application_id,
            salt=self.engine.signature_salt,
            full_work=self._full_work,
        )


def run_workload_analysis(listener: QueryEventListener,
                          policy: Optional[SelectionPolicy] = None
                          ) -> SelectionResult:
    """The user-scheduled analysis + selection job.

    "We gave the control of the workflow to the end users or the data
    engineers.  The users can schedule the workload analysis and view
    selection job periodically."
    """
    policy = policy or SelectionPolicy()
    candidates = build_candidates(listener.repository)
    result = greedy_select(candidates, policy)
    listener.engine.insights.publish(result.annotations())
    return result


def workload_insights_report(repository: WorkloadRepository) -> Dict[str, object]:
    """The Workload Insights Notebook's headline numbers.

    Redundant work is attributed only to *maximal* candidate occurrences
    (no selected ancestor in the same job), so nested common
    subexpressions are not double-counted.
    """
    from repro.selection.bigsubs import _attribute_utility, _records_by_job

    summary = pipeline_summary(repository)
    candidates = build_candidates(repository)
    total_work = sum(r.work for r in repository.subexpressions
                     if r.parent_node_id is None)
    candidate_set = {c.recurring for c in candidates}
    utility, occurrences, epochs = _attribute_utility(
        _records_by_job(repository), candidate_set, candidate_set)
    redundant_work = 0.0
    for recurring in candidate_set:
        count = occurrences.get(recurring, 0)
        instances = len(epochs.get(recurring, ()))
        if count > instances:
            redundant_work += (utility.get(recurring, 0.0)
                               * (count - instances) / count)
    redundant_work = min(redundant_work, total_work)
    return {
        "jobs": summary["jobs"],
        "subexpressions": summary["subexpressions"],
        "repeated_subexpression_fraction": repository.repeated_fraction(),
        "average_repeat_frequency": repository.average_repeat_frequency(),
        "reuse_candidates": len(candidates),
        "estimated_redundant_work": redundant_work,
        "estimated_total_work": total_work,
        "estimated_savings_fraction": (
            redundant_work / total_work if total_work else 0.0),
    }


def format_insights(report: Dict[str, object]) -> str:
    """Human-readable rendering of the insights report."""
    lines = [
        "Workload Insights",
        "=================",
        f"jobs analyzed:               {report['jobs']}",
        f"query subexpressions:        {report['subexpressions']}",
        f"repeated subexpressions:     "
        f"{report['repeated_subexpression_fraction']:.1%}",
        f"average repeat frequency:    "
        f"{report['average_repeat_frequency']:.1f}",
        f"reuse candidates:            {report['reuse_candidates']}",
        f"estimated redundant work:    "
        f"{report['estimated_redundant_work']:.0f} units "
        f"({report['estimated_savings_fraction']:.1%} of workload)",
    ]
    return "\n".join(lines)
