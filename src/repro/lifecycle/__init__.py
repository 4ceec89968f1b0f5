"""View lifecycle subsystem: lineage, invalidation, GC, durable catalog.

The paper treats views as "cheap throwaway views" whose hard problem is
*lifecycle* (Sections 2.4, 4, 5): they expire after a week, they go dark
whenever an input stream's GUID changes (bulk updates, GDPR forget
requests), and a runtime upgrade invalidates every signature at once.
This package is the subsystem that drives those transitions end to end:

* :class:`~repro.lifecycle.lineage.LineageRegistry` records, at
  materialization time, which input streams each view transitively reads;
* :class:`~repro.lifecycle.invalidation.InvalidationBus` carries
  ``stream_guid_changed`` / ``gdpr_forget`` / ``runtime_epoch_bumped``
  events to the :class:`~repro.lifecycle.manager.LifecycleManager`, which
  cascade-purges every dependent view;
* :meth:`~repro.lifecycle.manager.LifecycleManager.sweep` is a GC step
  at the caller's ``now``: it collects expired and purged views and
  evicts under storage-budget pressure using a cost/benefit score;
* :class:`~repro.lifecycle.journal.CatalogJournal` makes the whole
  catalog durable: an append-only JSONL WAL plus periodic snapshots,
  replayed on restart.
"""

from repro.lifecycle.gc import SweepResult, gc_score
from repro.lifecycle.invalidation import (
    GdprForget,
    InvalidationBus,
    RuntimeEpochBumped,
    StreamGuidChanged,
)
from repro.lifecycle.journal import CatalogJournal, RecoveryReport
from repro.lifecycle.lineage import LineageRegistry, extract_inputs
from repro.lifecycle.manager import LifecycleConfig, LifecycleManager

__all__ = [
    "LifecycleConfig",
    "LifecycleManager",
    "LineageRegistry",
    "extract_inputs",
    "InvalidationBus",
    "StreamGuidChanged",
    "GdprForget",
    "RuntimeEpochBumped",
    "CatalogJournal",
    "RecoveryReport",
    "SweepResult",
    "gc_score",
]
