"""Greedy density-ordered view selection under a storage budget.

The baseline selector: pack candidates by benefit-per-byte until the
storage budget (and optional view-count cap) is exhausted.  "CloudViews
uses these estimates to select the set of subexpressions to materialize
such that they provide the maximize reuse within a given storage budget."
(Section 1)

Per-VC variants apply individual budgets in a single pass over the
partitioned candidate set -- the paper's answer to running selection for
thousands of virtual clusters without one script per customer (Section 4,
"Per-customer view selection").
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.obs.recorder import NULL_RECORDER
from repro.selection.candidates import ReuseCandidate
from repro.selection.policies import (
    MIN_BENEFIT,
    SelectionPolicy,
    SelectionResult,
)
from repro.selection.schedule import prefilter_candidates


def record_selection(recorder, result: SelectionResult) -> SelectionResult:
    """Mirror one selection run's outcome into the flight recorder.

    Shared by every selector so an operator can watch the feedback loop
    (candidates considered, schedule/budget rejections, bytes committed)
    regardless of which algorithm a deployment runs.
    """
    recorder.inc("selection.runs")
    recorder.inc("selection.candidates.considered", result.considered)
    recorder.inc("selection.candidates.selected", len(result.selected))
    recorder.inc("selection.rejected.schedule", result.rejected_by_schedule)
    recorder.inc("selection.rejected.budget", result.rejected_by_budget)
    recorder.set_gauge("selection.storage_used", result.storage_used)
    recorder.observe("selection.expected_benefit", result.expected_benefit)
    return result


def greedy_select(candidates: List[ReuseCandidate],
                  policy: SelectionPolicy,
                  recorder=NULL_RECORDER) -> SelectionResult:
    """Global greedy packing under the policy's storage budget."""
    result = SelectionResult(considered=len(candidates))
    filtered, rejected = prefilter_candidates(candidates, policy)
    result.rejected_by_schedule = rejected

    ordered = sorted(filtered, key=lambda c: (-c.density, c.recurring))
    for candidate in ordered:
        if candidate.benefit <= MIN_BENEFIT:
            continue
        if policy.max_views is not None \
                and len(result.selected) >= policy.max_views:
            result.rejected_by_budget += 1
            continue
        if result.storage_used + candidate.avg_bytes \
                > policy.storage_budget_bytes:
            result.rejected_by_budget += 1
            continue
        result.selected.append(candidate)
        result.storage_used += candidate.avg_bytes
        result.expected_benefit += candidate.benefit
    return record_selection(recorder, result)


def per_vc_select(candidates: List[ReuseCandidate],
                  policy: SelectionPolicy,
                  recorder=NULL_RECORDER) -> SelectionResult:
    """Partition candidates by virtual cluster; apply per-VC budgets.

    A candidate shared across several VCs competes in each VC with its
    per-VC frequency, and is selected if it wins anywhere -- customers
    "want to benefit from better SLAs and do more processing on a per-VC
    basis" (Section 4).
    """
    result = SelectionResult(considered=len(candidates))
    filtered, rejected = prefilter_candidates(candidates, policy)
    result.rejected_by_schedule = rejected

    by_vc: Dict[str, List[ReuseCandidate]] = defaultdict(list)
    for candidate in filtered:
        for vc in candidate.virtual_clusters:
            by_vc[vc].append(candidate)

    chosen: Dict[str, ReuseCandidate] = {}
    storage_by_vc: Dict[str, int] = defaultdict(int)
    for vc in sorted(by_vc):
        budget = policy.per_vc_budgets.get(vc, policy.storage_budget_bytes)
        ordered = sorted(by_vc[vc], key=lambda c: (-c.density, c.recurring))
        for candidate in ordered:
            vc_frequency = candidate.frequency_in(vc)
            if vc_frequency < 2:
                continue
            if candidate.benefit <= MIN_BENEFIT:
                continue
            if policy.max_views is not None \
                    and len(chosen) >= policy.max_views \
                    and candidate.recurring not in chosen:
                result.rejected_by_budget += 1
                continue
            if storage_by_vc[vc] + candidate.avg_bytes > budget:
                result.rejected_by_budget += 1
                continue
            storage_by_vc[vc] += candidate.avg_bytes
            chosen.setdefault(candidate.recurring, candidate)

    result.selected = sorted(chosen.values(),
                             key=lambda c: (-c.density, c.recurring))
    result.storage_used = sum(c.avg_bytes for c in result.selected)
    result.expected_benefit = sum(c.benefit for c in result.selected)
    return record_selection(recorder, result)
