"""Durable catalog journal: append-only JSONL WALs + periodic snapshots.

The in-memory :class:`~repro.storage.views.ViewStore` evaporates on
restart, which no long-running service can afford: every view would be
rebuilt from scratch and the feedback loop's reuse counters would reset.
The journal fixes that with the classic recipe:

* every catalog mutation (create / seal / reuse / purge / evict / ...)
  is appended to ``wal.jsonl`` *in applied order* (the view store invokes
  its listeners in that order); a *commit* writes what was
  appended since the last one as one frame -- one write, one flush.  The
  lifecycle manager commits once per acknowledged step, or at once for
  a record made outside every step (DESIGN §12);
* periodically the whole state -- view records, aggregate counters,
  lineage table, runtime epoch -- is written to ``snapshot.json``
  (atomically, via rename) and the WAL is truncated;
* on restart, :meth:`CatalogJournal.recover` loads the snapshot and
  replays the WAL tail, reproducing the pre-crash catalog exactly --
  verified by comparing ``ViewStore.catalog_digest`` before and after.

It is built the way the insights service is: one policy over
partitions.  :class:`CatalogJournal` holds the policy -- the
``journal.append`` fault draw per record, routing each record to the
partition that owns its signature, one pending frame per partition
committed together, slicing a snapshot by owner, and the
merge-on-read recovery.  A partition owns one directory's *files*: a
:class:`JournalFile` here, or a shard worker's behind
:class:`~repro.shard.journal.RemoteJournal`.  The classic journal is the
one-partition case; the sharded one (``shard-NN/`` under the directory)
is the same journal over the shard workers.

What a record *means* is the store's: the manager journals the records
:meth:`ViewStore.apply` applied, verbatim, replay feeds them back through
the same ``apply``, and a snapshot is the store's ``dump()`` (plus
lineage and epoch) installed again by ``load()``.

View *definitions* (logical subplans) are deliberately not serialized:
restored views carry ``definition=None``, exactly like the paper's views
restored from path-encoded metadata, so the optional containment matcher
simply skips them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TextIO

from repro.common.errors import ConfigError, ReproError, StorageError
from repro.common.hashing import shard_for
from repro.faults import points as fault_points
from repro.faults.runtime import NULL_FAULTS
from repro.lifecycle.lineage import LineageRegistry
from repro.storage.views import DEPARTED, ViewStore

WAL_FILE = "wal.jsonl"
SNAPSHOT_FILE = "snapshot.json"


def shard_for_op(op: str, payload: Dict[str, object], shards: int) -> int:
    """Which partition's WAL owns one journal op.

    Mutations carry the view's strict signature (directly, or inside the
    ``created`` record); global markers like ``epoch`` pin to shard 0.
    """
    if "signature" in payload:
        return shard_for(str(payload["signature"]), shards)
    view = payload.get("view")
    if isinstance(view, dict) and "signature" in view:
        return shard_for(str(view["signature"]), shards)
    return 0


def shard_directories(directory: str) -> List[str]:
    """The ``shard-NN`` WAL directories under ``directory``, in order."""
    if not os.path.isdir(directory):
        return []
    return sorted(os.path.join(directory, name)
                  for name in os.listdir(directory)
                  if name.startswith("shard-")
                  and os.path.isdir(os.path.join(directory, name)))


def open_journal(directory: str) -> CatalogJournal:
    """The journal over whichever layout ``directory`` holds on disk: its
    ``shard-NN`` WALs, read and written in this process, or else the
    classic one."""
    shards = [JournalFile(path) for path in shard_directories(directory)]
    return CatalogJournal(directory, shards or None)


@dataclass
class RecoveryReport:
    """What :meth:`CatalogJournal.recover` reconstructed."""

    snapshot_views: int = 0
    wal_ops: int = 0
    views_restored: int = 0
    epoch: int = 0
    runtime_version: str = ""
    #: Ops the replay could not apply (op, reason) -- should stay empty.
    skipped: List[List[str]] = field(default_factory=list)
    #: WAL lines that failed to decode (a crash mid-append leaves at
    #: most one torn line; every intact op around it still replays).
    torn_lines: int = 0

    @property
    def recovered_anything(self) -> bool:
        return self.snapshot_views > 0 or self.wal_ops > 0


class JournalFile:
    """One directory's WAL and snapshot: a partition of the journal."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._wal: Optional[TextIO] = None
        #: True after an injected torn write: the WAL's final line is a
        #: partial record with no newline.  The next record written
        #: self-heals by starting on a fresh line, exactly as a restarted
        #: process appending after a crash would.
        self._torn_pending = False
        #: Undecodable lines seen by the most recent :meth:`wal_ops` scan.
        self.last_scan_torn = 0

    @property
    def wal_path(self) -> str:
        return os.path.join(self.directory, WAL_FILE)

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.directory, SNAPSHOT_FILE)

    def commit(self, frame: Sequence[Sequence[object]]) -> None:
        """Write ``frame`` -- ``(line, torn)`` pairs in applied order --
        as one write and one flush.

        Each line lands exactly as a lone append would: a torn record
        writes its first half with no newline, and the record after it
        starts on a fresh line -- which is how a restarted process
        appending after a crash heals the file.
        """
        parts = []
        for line, torn in frame:
            if self._torn_pending:
                parts.append("\n")
            parts.append(line[:max(1, len(line) // 2)] if torn
                         else line + "\n")
            self._torn_pending = torn
        if self._wal is None:
            self._wal = open(self.wal_path, "a", encoding="utf-8")
        self._wal.write("".join(parts))
        self._wal.flush()

    def wal_ops(self) -> List[Dict[str, object]]:
        """The current WAL contents, skipping undecodable lines.

        A crash mid-append leaves a torn line (usually, but not always,
        the final one: a process that crashed, healed, and crashed again
        can leave one mid-file).  Each torn line is *skipped* rather than
        treated as end-of-log -- every intact op after it still counts --
        and tallied in :attr:`last_scan_torn`.  The old behavior of
        truncating the replay at the first bad line silently dropped
        every op a healed journal appended afterwards.
        """
        self.last_scan_torn = 0
        if not os.path.exists(self.wal_path):
            return []
        ops: List[Dict[str, object]] = []
        with open(self.wal_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    ops.append(json.loads(line))
                except json.JSONDecodeError:
                    self.last_scan_torn += 1
        return ops

    def snapshot(self, state: Dict[str, object]) -> str:
        """Write ``state`` as the full-state snapshot and truncate the WAL.

        The snapshot lands via write-to-temp + rename so a crash mid-write
        leaves the previous snapshot intact -- which is also why the
        ``journal.snapshot`` fault point (fired before any partition
        writes) only ever costs the *new* snapshot: recovery falls back
        to the previous one plus the still-untruncated WAL.
        """
        tmp = self.snapshot_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(state, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.snapshot_path)
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        open(self.wal_path, "w", encoding="utf-8").close()
        return self.snapshot_path

    def recover(self) -> Dict[str, object]:
        """Replay snapshot + WAL tail into the record recovery folds: the
        partition's ``dump()``, lineage, epoch and the replay tallies.

        What a record means is the store's business: the snapshot goes
        through :meth:`ViewStore.load`, every WAL op through
        :meth:`ViewStore.apply`, on a store of this partition's own.
        """
        store, lineage = ViewStore(), LineageRegistry()
        state: Dict[str, object] = {}
        if os.path.exists(self.snapshot_path):
            with open(self.snapshot_path, "r", encoding="utf-8") as handle:
                state = json.load(handle)
        skipped = [["counters", name] for name in store.load(state)]
        lineage.restore(state.get("lineage", {}))
        epoch = int(state.get("epoch", 0))
        version = str(state.get("runtime_version", ""))
        ops = self.wal_ops()
        for op in ops:
            kind = str(op.get("op"))
            try:
                if kind == "epoch":
                    epoch = int(op.get("epoch", epoch))
                    version = str(op.get("version", version))
                    continue
                view = store.apply(op)
                if kind == "created":
                    lineage.record(view.signature, frozenset(
                        (d, g) for d, g in op.get("lineage", ())))
                elif kind in DEPARTED:
                    lineage.forget(str(op.get("signature", "")))
            except StorageError:
                # An op this version does not know, or one for a view
                # the WAL never created (its creation was the torn line).
                skipped.append([kind, str(op.get("signature", ""))])
            except (KeyError, ValueError, TypeError):
                # A malformed-but-decodable op (half a payload survived
                # the tear) must not abort recovery of everything else.
                skipped.append([kind, "malformed"])
        return {**store.dump(), "lineage": lineage.snapshot(),
                "epoch": epoch, "runtime_version": version,
                "snapshot_views": len(state.get("views", ())),
                "wal_ops": len(ops), "torn_lines": self.last_scan_torn,
                "skipped": skipped}

    def stats(self) -> Dict[str, object]:
        return {
            "wal_bytes": (os.path.getsize(self.wal_path)
                          if os.path.exists(self.wal_path) else 0),
            "has_snapshot": os.path.exists(self.snapshot_path),
            "torn_pending": self._torn_pending,
        }

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None


class CatalogJournal:
    """WAL + snapshot persistence for one view store's lifecycle state,
    over one partition per owner (see the module docstring)."""

    def __init__(self, directory: Optional[str],
                 partitions: Optional[Sequence] = None) -> None:
        #: The journal directory: the classic files, or ``shard-NN/``
        #: subdirectories underneath -- one layout, never both.
        self.directory = directory
        if directory is not None:
            _check_layout(directory, sharded=partitions is not None)
        self.partitions = list(partitions or [JournalFile(directory)])
        #: The session's fault runtime; the lifecycle manager installs a
        #: live one so torn/partial WAL writes can be injected.
        self.faults = NULL_FAULTS
        #: ``(line, torn)`` of every record appended since the last
        #: commit, one frame per owning partition.
        self._pending: Dict[int, List[List[object]]] = {}
        self.ops_written = 0
        self.ops_since_snapshot = 0
        self.snapshots_written = 0

    # ------------------------------------------------------------------ #
    # the write-ahead log

    def append(self, op: str, **payload: object) -> None:
        """:meth:`append_record` with the payload as keywords."""
        self.append_record(op, payload)

    def append_record(self, op: str, payload: Dict[str, object]) -> None:
        """Queue one catalog mutation for its owner's next frame.

        Nothing reaches a file until :meth:`commit`.  The
        ``journal.append`` fault point, drawn here per record, simulates
        a crash mid-write: a ``torn`` fault queues the record to be
        written as a *prefix* (no trailing newline -- the classic torn
        JSONL line) and raises, a ``storage`` fault raises before
        anything is queued.  Either way the caller sees
        :class:`StorageError`; the op is not counted.
        """
        outcome = self.faults.check(fault_points.JOURNAL_APPEND)
        if outcome.kind == "storage":
            raise StorageError(f"injected storage fault writing op {op!r}")
        torn = outcome.kind == "torn"
        owner = shard_for_op(op, payload, len(self.partitions))
        line = json.dumps({"op": op, **payload}, sort_keys=True)
        self._pending.setdefault(owner, []).append([line, torn])
        self.ops_since_snapshot += not torn
        if torn:
            raise StorageError(f"injected torn write for op {op!r}")

    def commit(self) -> int:
        """Write every queued record: one frame per owning partition,
        each flushed once.  Returns the records whose frame failed (they
        stay out of the WAL until the next snapshot writes the live
        state)."""
        failed = 0
        frames, self._pending = self._pending, {}
        for owner, frame in sorted(frames.items()):
            records = sum(not torn for _, torn in frame)
            try:
                self.partitions[owner].commit(frame)
            except ReproError:
                failed += records
            else:
                self.ops_written += records
        return failed

    # ------------------------------------------------------------------ #
    # snapshots

    def snapshot(self, state: Dict[str, object]) -> str:
        """Slice the live state by owner and snapshot every partition.

        ``state`` is plain data: the store's ``dump()`` (``views``,
        ``counters``) plus ``lineage``, ``epoch`` and ``runtime_version``.
        Each partition receives the view records and lineage entries it
        owns plus -- partition 0 only, the others explicit zeros -- the
        lifetime counters, so the merged recovery sums counters to
        exactly the live values.  Writing the *live* slice (not the
        partition's own recovered state) is what heals WAL ops lost to
        injected torn writes.
        """
        self.faults.fire(fault_points.JOURNAL_SNAPSHOT)
        count = len(self.partitions)
        slices: List[Dict[str, object]] = [
            {**state, "views": [], "lineage": {},
             "counters": (state["counters"] if owner == 0
                          else dict.fromkeys(state["counters"], 0))}
            for owner in range(count)]
        for record in state["views"]:
            slices[shard_for(record["signature"], count)]["views"].append(
                record)
        for signature, inputs in state["lineage"].items():
            slices[shard_for(signature, count)]["lineage"][
                signature] = inputs
        paths = [partition.snapshot(part)
                 for partition, part in zip(self.partitions, slices)]
        self.ops_since_snapshot = 0
        self.snapshots_written += 1
        return str(paths[0])

    # ------------------------------------------------------------------ #
    # recovery

    def recover(self, store: ViewStore,
                lineage: LineageRegistry) -> RecoveryReport:
        """Rebuild ``store`` and ``lineage``: merge-on-read over every
        partition's recovery.

        Must run on a *fresh* store, before the journal's own listener is
        attached (or replay would re-journal itself).  Views and lineage
        union (disjoint by construction), counters and tallies sum, the
        epoch is the max and the runtime version the one that came with
        it -- ending in one :meth:`ViewStore.load`.
        """
        report = RecoveryReport()
        views: List[Dict[str, object]] = []
        counters: Dict[str, int] = {}
        links: Dict[str, object] = {}
        for part in (partition.recover() for partition in self.partitions):
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

    # ------------------------------------------------------------------ #
    # lifecycle

    def stats(self) -> Dict[str, object]:
        merged: Dict[str, object] = {
            "directory": self.directory or "",
            "shards": len(self.partitions),
            "ops_written": self.ops_written,
            "ops_since_snapshot": self.ops_since_snapshot,
            "snapshots_written": self.snapshots_written,
            "wal_bytes": 0, "has_snapshot": False, "torn_pending": False,
        }
        for stats in (partition.stats() for partition in self.partitions):
            merged["wal_bytes"] += int(stats["wal_bytes"])
            merged["has_snapshot"] |= bool(stats["has_snapshot"])
            merged["torn_pending"] |= bool(stats["torn_pending"])
        return merged

    def close(self) -> None:
        for partition in self.partitions:
            partition.close()


def _check_layout(directory: str, sharded: bool) -> None:
    """Refuse a directory written under the other layout: reopening it
    would silently recover nothing."""
    shards = [os.path.basename(path) for path in shard_directories(directory)]
    classic = [name for name in (WAL_FILE, SNAPSHOT_FILE)
               if os.path.exists(os.path.join(directory, name))]
    if sharded and classic:
        raise ConfigError(
            f"journal directory {directory!r} holds a classic journal "
            f"({', '.join(classic)}) but a sharded one is configured")
    if not sharded and shards:
        raise ConfigError(
            f"journal directory {directory!r} holds sharded WALs "
            f"({', '.join(shards)}) but a classic journal is configured")
