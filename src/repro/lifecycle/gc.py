"""GC sweeps: expiry, purge collection, budget eviction.

"Our current eviction policies expire each of the views after one week of
creation, thus consuming a fixed amount of storage in the stable state"
(Section 3.1) -- but the serial simulation only evicted at day boundaries,
and nothing ever reclaimed purged entries or enforced an actual byte
budget.  A sweep is a step its caller runs at the caller's simulated
``now`` (:meth:`~repro.lifecycle.manager.LifecycleManager.sweep`):

1. evict expired views (skipping any pinned by an in-flight reader);
2. hard-remove catalog entries whose views were purged (user request or
   invalidation cascade) once no reader pins them;
3. under storage-budget pressure, evict live views in ascending
   cost/benefit order -- following the cloud cost-model framing of
   Perriot et al.: a view earns its storage through reuse, and old, large,
   rarely-reused views go first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.common.clock import SECONDS_PER_DAY
from repro.storage.views import MaterializedView


def gc_score(view: MaterializedView, now: float) -> float:
    """Cost/benefit retention score; the *lowest*-scored view evicts first.

    Benefit grows with observed reuse; cost grows with the bytes held and
    with age (an old view is closer to expiry, so the compute it could
    still save shrinks).  The +1 terms keep fresh, never-reused views from
    dividing by zero without dominating genuinely hot views.
    """
    age_days = max(0.0, now - view.created_at) / SECONDS_PER_DAY
    return (1.0 + view.reuse_count) / ((1.0 + view.size_bytes)
                                       * (1.0 + age_days))


@dataclass
class SweepResult:
    """Outcome of one GC sweep (the benchmark's unit of measurement)."""

    at: float = 0.0
    expired: int = 0
    removed: int = 0
    budget_evicted: int = 0
    #: Bytes of every view whose blob the sweep deleted (expired,
    #: collected or budget-evicted).
    reclaimed_bytes: int = 0
    pinned_skipped: int = 0
    duration_seconds: float = 0.0
    evicted_signatures: List[str] = field(default_factory=list)

    @property
    def total_collected(self) -> int:
        return self.expired + self.removed + self.budget_evicted
