"""Per-shard lifecycle WALs behind the single-journal interface.

:class:`ShardedCatalogJournal` is the drop-in the
:class:`~repro.lifecycle.manager.LifecycleManager` journals through when
the session is sharded.  Every catalog mutation routes to the WAL of the
shard that owns the view's strict signature (``epoch`` markers, which
carry no signature, live on shard 0), so each worker process persists
exactly its partition and no WAL is written from two processes.

Because placement is deterministic (:func:`~repro.common.hashing.shard_for`)
the global catalog state is a *merge-on-read*: recovery fans ``recover``
out to every shard, unions the view records and lineage slices (disjoint
by construction), sums the lifecycle counters across shards, and takes
the max epoch -- after which ``catalog_digest`` over the rebuilt store
equals the unsharded journal's, for any shard count.  The offline form
(:func:`merged_offline_recovery`) does the same directly from the
``shard-NN`` directories with no processes running; chaos campaigns use
it to prove the on-disk state of a killed deployment still converges.

Records travel in frames: :meth:`ShardedCatalogJournal.commit` sends
each shard one ``journal_append`` RPC carrying every record it owns since
the last commit, in applied order, as ``[line, torn]`` pairs, and the
worker writes the frame with one flush.  Fault draws stay in the parent
process: the adapter consults the one session fault runtime at
``journal.append`` (per record, as it is queued) / ``journal.snapshot``
and *commands* a torn write through the record's ``torn`` flag, while
the worker journals themselves run with faults disabled.  One RNG, one
firing log -- identical to the unsharded session's.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.common.errors import ReproError, StorageError
from repro.common.hashing import shard_for
from repro.common.sync import RANK_CATALOG, TrackedLock
from repro.faults import points as fault_points
from repro.faults.runtime import NULL_FAULTS
from repro.lifecycle.journal import CatalogJournal, RecoveryReport, draw_record
from repro.lifecycle.lineage import LineageRegistry
from repro.storage.views import ViewStore

if TYPE_CHECKING:  # router -> supervisor -> worker imports this module
    from repro.shard.router import ShardRouter


def shard_for_op(op: str, payload: Dict[str, object], shards: int) -> int:
    """Which shard's WAL owns one journal op.

    Mutations carry the view's strict signature (directly, or inside the
    ``created`` record); global markers like ``epoch`` pin to shard 0.
    """
    if "signature" in payload:
        return shard_for(str(payload["signature"]), shards)
    view = payload.get("view")
    if isinstance(view, dict) and "signature" in view:
        return shard_for(str(view["signature"]), shards)
    return 0


class ShardedCatalogJournal:
    """``CatalogJournal`` duck type that fans out to per-shard WALs."""

    def __init__(self, router: ShardRouter,
                 directory: Optional[str] = None) -> None:
        self.router = router
        self.shards = router.shards
        #: The parent journal directory (``shard-NN`` subdirectories
        #: underneath); informational, for :meth:`stats`.
        self.directory = directory
        #: Installed by the lifecycle manager, like the classic journal.
        self.faults = NULL_FAULTS
        #: ``shard -> [[line, torn], ...]``: each owner's next frame.
        #: The guard is held across a commit's round trips, so it ranks
        #: above the router's pool and the supervisor's restart path, and
        #: below the view store whose mutation feed appends here.
        self._mutex = TrackedLock("shard.journal", RANK_CATALOG + 60)
        self._pending: Dict[int, List[List[object]]] = {}
        self.ops_written = 0
        self.ops_since_snapshot = 0
        self.snapshots_written = 0

    # ------------------------------------------------------------------ #
    # the write-ahead log

    def append(self, op: str, **payload: object) -> None:
        """Queue one mutation for its owning shard's next frame.

        Nothing is sent until :meth:`commit`, which the lifecycle
        manager -- this journal's one writer -- calls when a step's
        commit group closes, or at once outside every group.  The fault
        decision (torn/storage) is drawn *here*, per record, from the
        session runtime; a storage fault queues nothing, a torn one
        queues the record marked torn -- its worker writes the classic
        half-line -- and raises :class:`StorageError` at once, exactly
        like the in-process journal's contract.
        """
        line, torn = draw_record(self.faults, op, payload)
        shard_id = shard_for_op(op, payload, self.shards)
        with self._mutex:
            self._pending.setdefault(shard_id, []).append([line, torn])
            self.ops_since_snapshot += not torn
        if torn:
            raise StorageError(f"injected torn write for op {op!r}")

    def commit(self) -> int:
        """Ship every queued record: one ``journal_append`` frame per
        owning shard, each flushed once by its worker.

        The mutex is held across the round trips, so frames reach each
        WAL in applied order even when two threads commit.  Returns the
        records whose frame failed (they stay out of the WAL until the
        next snapshot writes the live state).
        """
        failed = 0
        with self._mutex:
            frames, self._pending = self._pending, {}
            for shard_id, frame in sorted(frames.items()):
                records = sum(not torn for _, torn in frame)
                try:
                    self.router.call(shard_id, "journal_append", records=frame)
                except ReproError:
                    failed += records
                else:
                    self.ops_written += records
        return failed

    # ------------------------------------------------------------------ #
    # snapshots

    def snapshot(self, state: Dict[str, object]) -> str:
        """Slice the live state by owner and snapshot every shard's part.

        Each shard receives the view records and lineage entries it owns
        plus -- shard 0 only, the others explicit zeros -- the lifetime
        counters, so the merged recovery sums counters to exactly the
        live values.  Sending the *live* slice (not the shard's own
        recovered state) is what heals WAL ops lost to injected torn
        writes, matching the single-journal manager snapshotting the
        live store; each worker writes its slice as it arrives.
        """
        self.faults.fire(fault_points.JOURNAL_SNAPSHOT)
        slices: List[Dict[str, object]] = [
            {**state, "views": [], "lineage": {},
             "counters": (state["counters"] if shard_id == 0
                          else dict.fromkeys(state["counters"], 0))}
            for shard_id in range(self.shards)]
        for record in state["views"]:
            slices[shard_for(record["signature"], self.shards)][
                "views"].append(record)
        for signature, inputs in state["lineage"].items():
            slices[shard_for(signature, self.shards)]["lineage"][
                signature] = inputs
        paths = [self.router.call(shard_id, "journal_snapshot",
                                  state=part)["path"]
                 for shard_id, part in enumerate(slices)]
        self.ops_since_snapshot = 0
        self.snapshots_written += 1
        return str(paths[0])

    # ------------------------------------------------------------------ #
    # recovery

    def recover(self, store: ViewStore,
                lineage: LineageRegistry) -> RecoveryReport:
        """Merge-on-read: union every shard's recovered partition."""
        return _merge_partitions(
            self.router.broadcast("journal_recover"), store, lineage)

    # ------------------------------------------------------------------ #
    # lifecycle

    def stats(self) -> Dict[str, object]:
        merged: Dict[str, object] = {
            "directory": self.directory or "",
            "shards": self.shards,
            "ops_written": self.ops_written,
            "ops_since_snapshot": self.ops_since_snapshot,
            "snapshots_written": self.snapshots_written,
            "wal_bytes": 0,
            "has_snapshot": False,
            "torn_pending": False,
        }
        for reply in self.router.broadcast("journal_stats"):
            stats = reply["stats"]
            if not stats:
                continue
            merged["wal_bytes"] += int(stats["wal_bytes"])
            merged["has_snapshot"] = (merged["has_snapshot"]
                                      or bool(stats["has_snapshot"]))
            merged["torn_pending"] = (merged["torn_pending"]
                                      or bool(stats["torn_pending"]))
        return merged

    def close(self) -> None:
        """Worker journals close with their processes; nothing to do."""


def recover_partition(journal: CatalogJournal) -> Dict[str, object]:
    """Replay one shard's WAL into the record merge-on-read folds: the
    partition's snapshot ``state`` plus the recovery tallies."""
    store = ViewStore()
    lineage = LineageRegistry()
    report = journal.recover(store, lineage)
    return {
        **store.dump(),
        "lineage": lineage.snapshot(),
        "epoch": report.epoch,
        "runtime_version": report.runtime_version,
        "snapshot_views": report.snapshot_views,
        "wal_ops": report.wal_ops,
        "torn_lines": report.torn_lines,
        "skipped": report.skipped,
    }


def _merge_partitions(partitions: Iterable[Dict[str, object]],
                      store: ViewStore,
                      lineage: LineageRegistry) -> RecoveryReport:
    """Fold per-shard recoveries (:func:`recover_partition` records, live
    replies or read off disk alike) into the one global catalog: views
    and lineage union, counters and tallies sum, the epoch is the max
    (and the runtime version the one that came with it)."""
    report = RecoveryReport()
    views: List[Dict[str, object]] = []
    counters: Dict[str, int] = {}
    links: Dict[str, object] = {}
    for part in partitions:
        views += part["views"]
        for name, value in part["counters"].items():
            counters[name] = counters.get(name, 0) + int(value)
        links.update(part["lineage"])
        if part["runtime_version"] and int(part["epoch"]) >= report.epoch:
            report.runtime_version = str(part["runtime_version"])
        report.epoch = max(report.epoch, int(part["epoch"]))
        report.snapshot_views += int(part["snapshot_views"])
        report.wal_ops += int(part["wal_ops"])
        report.torn_lines += int(part["torn_lines"])
        report.skipped.extend([str(a), str(b)] for a, b in part["skipped"])
    store.load({"views": views, "counters": counters})
    lineage.restore(links)
    report.views_restored = len(views)
    return report


def merged_offline_recovery(journal_dir: str, store: ViewStore,
                            lineage: LineageRegistry) -> RecoveryReport:
    """Rebuild the global catalog from ``shard-NN`` WALs on disk.

    The offline twin of :meth:`ShardedCatalogJournal.recover` -- no
    worker processes involved.  A directory with no ``shard-`` children
    is a classic single journal and folds as its one partition, so
    callers can point this at either layout.
    """
    directories = sorted(
        os.path.join(journal_dir, name)
        for name in os.listdir(journal_dir)
        if name.startswith("shard-")
        and os.path.isdir(os.path.join(journal_dir, name))) or [journal_dir]

    def recover_directory(directory: str) -> Dict[str, object]:
        journal = CatalogJournal(directory)
        try:
            return recover_partition(journal)
        finally:
            journal.close()

    return _merge_partitions(map(recover_directory, directories),
                             store, lineage)
