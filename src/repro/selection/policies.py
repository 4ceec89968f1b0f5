"""Selection policies: constraints and the published result.

"Users can provide storage and other constraints (e.g., maximum number of
views to create) for view selection.  The view selection output is also
made available to customers for insights and expected overall benefits."
(Section 2.3)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.optimizer.context import Annotation
from repro.selection.candidates import ReuseCandidate


#: A candidate is worth selecting only if its net benefit (work saved by
#: its reuses minus the work of writing it) exceeds this.
MIN_BENEFIT = 0.0


@dataclass(frozen=True)
class SelectionPolicy:
    """Constraints for one view-selection run."""

    storage_budget_bytes: int = 10 * 1024 * 1024
    max_views: Optional[int] = None
    #: Per-virtual-cluster storage budgets (Section 4, "Per-customer view
    #: selection"); absent VCs fall back to the global budget.
    per_vc_budgets: Dict[str, int] = field(default_factory=dict)
    #: Schedule-awareness: estimated seconds to materialize a view; reuses
    #: arriving sooner than this after the first instance cannot benefit.
    materialization_lag_seconds: float = 0.0
    #: Minimum average reuses per input epoch.  Candidates reused fewer
    #: times per materialization waste writes on marginal views; the paper
    #: reports ~6 reuses per view in steady state.
    min_reuses_per_epoch: float = 1.0


@dataclass
class SelectionResult:
    """Outcome of a selection run, ready for insights publication."""

    selected: List[ReuseCandidate] = field(default_factory=list)
    storage_used: int = 0
    expected_benefit: float = 0.0
    considered: int = 0
    rejected_by_budget: int = 0
    rejected_by_schedule: int = 0

    def annotations(self) -> List[Annotation]:
        """The tagged signatures handed to the insights service."""
        return [
            Annotation(
                recurring_signature=c.recurring,
                tag=c.tag,
                expected_rows=c.avg_rows,
                expected_bytes=c.avg_bytes,
                virtual_cluster=next(iter(sorted(c.virtual_clusters)), ""),
            )
            for c in self.selected
        ]

    def summary(self) -> str:
        """Customer-facing insight line (expected overall benefits)."""
        return (f"{len(self.selected)} views selected "
                f"({self.storage_used} bytes, "
                f"expected saving {self.expected_benefit:.0f} work units; "
                f"considered {self.considered}, "
                f"budget-rejected {self.rejected_by_budget}, "
                f"schedule-rejected {self.rejected_by_schedule})")
