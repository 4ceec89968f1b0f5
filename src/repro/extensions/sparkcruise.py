"""SparkCruise-style integration surface (Section 5.5).

SparkCruise brought CloudViews' ideas to Spark *without modifying the
engine*: "we use the optimizer extensions API in Spark to add two
additional rules to the query optimizer -- first for online
materialization, and second for computation reuse.  We also implemented an
event listener for Spark SQL that can log query plans and compute
signature annotations".  Users drive their own feedback loop and can
inspect a *Workload Insights Notebook* before enabling the feature.

This module mirrors that deployment shape.  The listener is
:class:`~repro.api.Session` itself -- every job it runs is recorded --
and the user-scheduled analysis is :meth:`Session.analyze_and_publish`;
on top of them sit

* :func:`workload_insights_report` -- the notebook's aggregate statistics
  and redundancy summary that "can convince the users to enable the
  computation reuse feature on their workloads";
* :func:`sparkcruise_tpcds` -- the Section-5.5 flow over the mini TPC-DS
  suite (``repro tpcds``, the TPC-DS half of ``repro lint``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.api import Session
from repro.common.errors import ReproError
from repro.core.controls import DeploymentMode, MultiLevelControls
from repro.engine.engine import ScopeEngine
from repro.history import replay
from repro.scheduler.results import JobResult
from repro.selection.candidates import build_candidates
from repro.selection.policies import SelectionPolicy
from repro.workload.analysis import pipeline_summary
from repro.workload.repository import WorkloadRepository
from repro.workload.tpcds import tpcds_history


@dataclass
class TpcdsRound:
    """Round 2 of one :func:`tpcds_history` replay, keyed by query name,
    and the engine it ran on (whose session is closed)."""

    engine: ScopeEngine
    results: Dict[str, JobResult]

    @property
    def work(self) -> int:
        """The round's "running time" at this scale: observed operator
        work (rows in + rows out across all operators), the currency the
        cluster simulator charges."""
        return sum(stats.rows_in + stats.rows_out
                   for result in self.results.values()
                   for _, stats in result.run.result.node_stats)

    @property
    def built(self) -> int:
        return sum(result.views_built for result in self.results.values())

    @property
    def reused(self) -> int:
        return sum(result.views_reused for result in self.results.values())


def sparkcruise_tpcds(scale_rows: int = 2000,
                      reuse: bool = True) -> TpcdsRound:
    """Replay :func:`tpcds_history` on an opt-out :class:`Session`.

    With ``reuse`` the session records round 1, the user-scheduled
    analysis selects greedily (every candidate eligible: one pass is too
    short to clear a reuse threshold), and round 2 builds and reuses.
    """
    with Session(policy=SelectionPolicy(min_reuses_per_epoch=0.0),
                 controls=MultiLevelControls(mode=DeploymentMode.OPT_OUT)
                 ) as session:
        outcome = replay(tpcds_history(scale_rows, reuse), session)
    if outcome.failures:
        raise ReproError(f"TPC-DS failed: {set(outcome.failures.values())}")
    return TpcdsRound(session.engine, {
        key.split(":", 1)[1]: result
        for key, result in outcome.results.items() if key.startswith("r2:")})


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
