"""Per-shard lifecycle WALs: the catalog journal over remote partitions.

:class:`ShardedCatalogJournal` is the one
:class:`~repro.lifecycle.journal.CatalogJournal` policy over the shard
workers, as the :class:`~repro.shard.router.ShardRouter` is the one
insights service over theirs.  Every catalog mutation routes to the WAL
of the shard that owns the view's strict signature (``epoch`` markers,
which carry no signature, live on shard 0), so each worker process
persists exactly its partition and no WAL is written from two processes.

Because placement is deterministic (:func:`~repro.common.hashing.shard_for`)
the global catalog state is a *merge-on-read*: recovery unions every
shard's recovered partition, after which ``catalog_digest`` over the
rebuilt store equals the unsharded journal's, for any shard count.  The
offline form (:func:`merged_offline_recovery`) folds the ``shard-NN``
directories straight off disk with no processes running; chaos
campaigns use it to prove the on-disk state of a killed deployment
still converges.

Records travel in frames: each commit sends each owning shard one
``journal_append`` RPC carrying every record it owns since the last
commit, in applied order, as ``[line, torn]`` pairs, and the worker
writes the frame with one flush.  Fault draws stay in the parent
process: the journal consults the one session fault runtime at
``journal.append`` (per record, as it is queued) / ``journal.snapshot``
and *commands* a torn write through the record's ``torn`` flag, while
the workers' files see no faults.  One RNG, one firing log -- identical
to the unsharded session's.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.lifecycle.journal import (
    CatalogJournal,
    RecoveryReport,
    open_journal,
)
from repro.lifecycle.lineage import LineageRegistry
from repro.shard.router import ShardRouter
from repro.storage.views import ViewStore


class RemoteJournal:
    """One shard worker's :class:`~repro.lifecycle.journal.JournalFile`,
    reached through the router."""

    def __init__(self, router: ShardRouter, shard_id: int) -> None:
        self.router = router
        self.shard_id = shard_id

    def commit(self, frame: List[List[object]]) -> None:
        self.router.call(self.shard_id, "journal_append", records=frame)

    def snapshot(self, state: Dict[str, object]) -> str:
        return str(self.router.call(self.shard_id, "journal_snapshot",
                                    state=state)["path"])

    def recover(self) -> Dict[str, object]:
        return self.router.call(self.shard_id, "journal_recover")

    def stats(self) -> Dict[str, object]:
        return self.router.call(self.shard_id, "journal_stats")["stats"]

    def close(self) -> None:
        """Worker journals close with their processes; nothing to do."""


class ShardedCatalogJournal(CatalogJournal):
    """The catalog journal whose partitions are the shard workers."""

    def __init__(self, router: ShardRouter,
                 directory: Optional[str] = None) -> None:
        super().__init__(directory, [RemoteJournal(router, shard_id)
                                     for shard_id in range(router.shards)])

    # The name the frozen benchmark tracer wraps on this class.
    append = CatalogJournal.append


def merged_offline_recovery(journal_dir: str, store: ViewStore,
                            lineage: LineageRegistry) -> RecoveryReport:
    """Rebuild the global catalog from the WALs on disk.

    The offline twin of :meth:`ShardedCatalogJournal.recover` -- no
    worker processes involved: the journal over the ``shard-NN``
    directories' files, or over the classic layout's one, so callers can
    point this at either.
    """
    journal = open_journal(journal_dir)
    try:
        return journal.recover(store, lineage)
    finally:
        journal.close()
