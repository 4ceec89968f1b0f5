"""BigSubs-style interaction-aware view selection.

"By restricting to common subexpressions, CloudViews can run
subexpressions selection to Cosmos scale by running it as a label
propagation problem in a distributed manner" (Section 2.4, citing the
BigSubs algorithm of Jindal et al., VLDB 2018).

BigSubs models selection as a bipartite graph between queries and
candidate subexpressions and alternates between two label-propagation
steps: queries decide which *selected* candidates they would actually use,
and candidates keep or lose their selected label based on the utility the
queries just attributed to them.  The crucial interaction this captures --
and greedy packing does not -- is **nesting**: when a large subexpression
is materialized, the smaller subexpressions inside it stop saving anything
for the queries that reuse the large one.

This implementation is the same alternation, deterministic and
single-process:

1. start with every viable candidate selected;
2. **query step**: for each job, walk its recorded plan tree and attribute
   savings only to *maximal* selected candidates (those with no selected
   ancestor in that job);
3. **candidate step**: re-score candidates on attributed utility, then keep
   the best set under the storage budget;
4. repeat until the selected set stabilizes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set

from repro.obs.recorder import NULL_RECORDER
from repro.selection.candidates import (
    READ_COST_PER_ROW,
    WRITE_COST_PER_ROW,
    ReuseCandidate,
)
from repro.selection.greedy import record_selection
from repro.selection.policies import (
    MIN_BENEFIT,
    SelectionPolicy,
    SelectionResult,
)
from repro.selection.schedule import prefilter_candidates
from repro.workload.repository import SubexpressionRecord, WorkloadRepository

MAX_ITERATIONS = 10


def bigsubs_select(repository: WorkloadRepository,
                   candidates: List[ReuseCandidate],
                   policy: SelectionPolicy,
                   recorder=NULL_RECORDER) -> SelectionResult:
    """Iterative bipartite label propagation over jobs x candidates."""
    result = SelectionResult(considered=len(candidates))
    filtered, rejected = prefilter_candidates(candidates, policy)
    result.rejected_by_schedule = rejected
    by_recurring = {c.recurring: c for c in filtered}

    jobs = _records_by_job(repository)
    selected: Set[str] = {c.recurring for c in filtered
                          if c.benefit > MIN_BENEFIT}

    candidate_set = set(by_recurring)
    for _ in range(MAX_ITERATIONS):
        # Score EVERY candidate against the current selection: selected
        # candidates see their realized utility, deselected ones their
        # potential utility if re-added (so they can win back a slot when
        # e.g. a larger candidate was evicted by the budget).
        utility, occurrences, epochs = _attribute_utility(
            jobs, candidate_set, selected)
        scored: List[tuple] = []
        for recurring in candidate_set:
            candidate = by_recurring[recurring]
            count = occurrences.get(recurring, 0)
            instances = len(epochs.get(recurring, ()))
            if count - instances < 1:
                continue  # never reusable as a maximal candidate
            # Each epoch's first maximal occurrence materializes (pays the
            # write, saves nothing); the rest realize the attributed savings.
            net = (utility.get(recurring, 0.0) * (count - instances) / count
                   - instances * candidate.avg_rows * WRITE_COST_PER_ROW)
            if net <= MIN_BENEFIT:
                continue
            density = net / max(1, candidate.avg_bytes)
            scored.append((-density, recurring, net, candidate))
        scored.sort(key=lambda item: (item[0], item[1]))

        new_selected: Set[str] = set()
        storage = 0
        budget_rejections = 0
        for _, recurring, net, candidate in scored:
            if policy.max_views is not None \
                    and len(new_selected) >= policy.max_views:
                budget_rejections += 1
                continue
            if storage + candidate.avg_bytes > policy.storage_budget_bytes:
                budget_rejections += 1
                continue
            new_selected.add(recurring)
            storage += candidate.avg_bytes
        if new_selected == selected:
            result.rejected_by_budget = budget_rejections
            break
        selected = new_selected

    utility, occurrences, epochs = _attribute_utility(
        jobs, candidate_set, selected)
    result.selected = sorted(
        (by_recurring[r] for r in selected),
        key=lambda c: (-c.density, c.recurring))
    result.storage_used = sum(c.avg_bytes for c in result.selected)
    result.expected_benefit = sum(
        utility.get(c.recurring, 0.0)
        * max(0, occurrences.get(c.recurring, 1)
              - len(epochs.get(c.recurring, ())))
        / max(1, occurrences.get(c.recurring, 1))
        - len(epochs.get(c.recurring, ())) * c.avg_rows * WRITE_COST_PER_ROW
        for c in result.selected)
    return record_selection(recorder, result)


# --------------------------------------------------------------------- #
# internals


def _records_by_job(repository: WorkloadRepository
                    ) -> List[List[SubexpressionRecord]]:
    grouped: Dict[str, List[SubexpressionRecord]] = defaultdict(list)
    for record in repository.subexpressions:
        grouped[record.job_id].append(record)
    return [grouped[job.job_id] for job in repository.jobs
            if job.job_id in grouped]


def _attribute_utility(jobs: List[List[SubexpressionRecord]],
                       candidates: Set[str],
                       selected: Set[str]):
    """Query step: savings go only to *maximal* candidate occurrences.

    An occurrence is maximal when no proper ancestor in the same job is
    currently selected -- those occurrences would read the ancestor's view
    instead, so the nested candidate saves nothing there.  Non-selected
    candidates are scored too (their potential utility if re-added).

    Tracks, per candidate, the total attributed utility, the occurrence
    count, and the distinct input epochs (strict signatures) among the
    maximal occurrences -- reuse only happens within an epoch.
    """
    utility: Dict[str, float] = defaultdict(float)
    occurrences: Dict[str, int] = defaultdict(int)
    epochs: Dict[str, Set[str]] = defaultdict(set)
    for records in jobs:
        by_node: Dict[int, SubexpressionRecord] = {
            r.node_id: r for r in records}
        for record in records:
            if record.recurring not in candidates or not record.eligible:
                continue
            if _has_selected_ancestor(record, by_node, selected):
                continue
            saving = record.work - record.rows * READ_COST_PER_ROW
            utility[record.recurring] += max(0.0, saving)
            occurrences[record.recurring] += 1
            epochs[record.recurring].add(record.strict)
    return utility, occurrences, epochs


def _has_selected_ancestor(record: SubexpressionRecord,
                           by_node: Dict[int, SubexpressionRecord],
                           selected: Set[str]) -> bool:
    parent_id: Optional[int] = record.parent_node_id
    while parent_id is not None:
        parent = by_node.get(parent_id)
        if parent is None:
            return False
        if parent.recurring in selected and parent.eligible:
            return True
        parent_id = parent.parent_node_id
    return False
