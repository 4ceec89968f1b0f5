"""Durable catalog journal: append-only JSONL WAL + periodic snapshots.

The in-memory :class:`~repro.storage.views.ViewStore` evaporates on
restart, which no long-running service can afford: every view would be
rebuilt from scratch and the feedback loop's reuse counters would reset.
The journal fixes that with the classic recipe:

* every catalog mutation (create / seal / reuse / purge / evict / ...)
  is appended to ``wal.jsonl`` *in applied order* (the view store invokes
  its listeners under the catalog mutex); a *commit* writes what was
  appended since the last one as one frame -- one write, one flush.  The
  lifecycle manager commits once per acknowledged step, or at once for
  a record made outside every step (DESIGN §12);
* periodically the whole state -- view records, aggregate counters,
  lineage table, runtime epoch -- is written to ``snapshot.json``
  (atomically, via rename) and the WAL is truncated;
* on restart, :meth:`CatalogJournal.recover` loads the snapshot and
  replays the WAL tail, reproducing the pre-crash catalog exactly --
  verified by comparing ``ViewStore.catalog_digest`` before and after.

The journal owns the *file* -- line framing, the flush per commit,
torn-write healing, the atomic snapshot, the ``epoch`` marker, and the
lineage side of a replayed ``created`` / departure.  What a record
*means* is the store's: the manager journals the records
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
from typing import Dict, List, Optional, TextIO, Tuple

from repro.common.errors import StorageError
from repro.common.sync import RANK_LEAF, TrackedLock
from repro.faults import points as fault_points
from repro.faults.runtime import NULL_FAULTS
from repro.lifecycle.lineage import LineageRegistry
from repro.storage.views import DEPARTED, ViewStore

WAL_FILE = "wal.jsonl"
SNAPSHOT_FILE = "snapshot.json"


def draw_record(faults, op: str, payload: Dict[str, object]
                ) -> Tuple[str, bool]:
    """One record's WAL line and whether its ``journal.append`` fault
    tears it; a ``storage`` fault raises before any byte is queued."""
    outcome = faults.check(fault_points.JOURNAL_APPEND)
    if outcome.kind == "storage":
        raise StorageError(f"injected storage fault writing op {op!r}")
    return (json.dumps({"op": op, **payload}, sort_keys=True),
            outcome.kind == "torn")


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


class CatalogJournal:
    """WAL + snapshot persistence for one view store's lifecycle state."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        # Leaf rank: the WAL-handle guard is acquired *under* the view
        # store's mutex (the mutation feed) and under the invalidation
        # bus, and never takes another lock itself.  The file I/O it
        # covers is the one sanctioned I/O-under-lock site in the tree
        # (the named exemption of the census rule in DESIGN §10): frames
        # must hit the WAL in applied order.
        self._mutex = TrackedLock("lifecycle.journal", RANK_LEAF + 10)
        self._wal: Optional[TextIO] = None
        self.ops_written = 0
        self.ops_since_snapshot = 0
        self.snapshots_written = 0
        #: The session's fault runtime; the lifecycle manager installs a
        #: live one so torn/partial WAL writes can be injected.
        self.faults = NULL_FAULTS
        #: ``(line, torn)`` of every record appended since the last commit.
        self._pending: List[Tuple[str, bool]] = []
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

    # ------------------------------------------------------------------ #
    # the write-ahead log

    def append(self, op: str, **payload: object) -> None:
        """Record one catalog mutation, in applied order.

        Nothing reaches the file until :meth:`commit`.  The
        ``journal.append`` fault point, drawn here per record, simulates
        a crash mid-write: a ``torn`` fault queues the record to be
        written as a *prefix* (no trailing newline -- the classic torn
        JSONL line) and raises, a ``storage`` fault raises before
        anything is queued.  Either way the caller sees
        :class:`StorageError`; the op is not counted.
        """
        self.append_record(op, payload)

    def append_record(self, op: str, payload: Dict[str, object]) -> None:
        """:meth:`append` with the payload as one mapping."""
        with self._mutex:
            line, torn = draw_record(self.faults, op, payload)
            self._pending.append((line, torn))
            self.ops_since_snapshot += not torn
        if torn:
            raise StorageError(f"injected torn write for op {op!r}")

    def commit(self, frame: Optional[List[Tuple[str, bool]]] = None
               ) -> int:
        """Write ``frame`` -- by default every record appended since the
        last commit -- as one write and one flush; returns the records
        lost (always 0 here: a failed write raises).

        A frame is ``(line, torn)`` pairs in applied order (the shard
        worker receives its frames over the wire).  Each line lands
        exactly as a lone append would: a torn record writes its first
        half with no newline, and the record after it starts on a fresh
        line -- which is how a restarted process appending after a crash
        heals the file.
        """
        with self._mutex:
            if frame is None:
                frame, self._pending = self._pending, []
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
            self.ops_written += sum(not torn for _, torn in frame)
        return 0

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

    # ------------------------------------------------------------------ #
    # snapshots

    def snapshot(self, state: Dict[str, object]) -> str:
        """Write ``state`` as the full-state snapshot and truncate the WAL.

        ``state`` is plain data: the store's ``dump()`` (``views``,
        ``counters``) plus ``lineage``, ``epoch`` and ``runtime_version``.
        The snapshot lands via write-to-temp + rename so a crash mid-write
        leaves the previous snapshot intact -- which is also why the
        ``journal.snapshot`` fault point (fired before the rename) only
        ever costs the *new* snapshot: recovery falls back to the
        previous one plus the still-untruncated WAL.
        """
        self.faults.fire(fault_points.JOURNAL_SNAPSHOT)
        with self._mutex:
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
            self.ops_since_snapshot = 0
            self.snapshots_written += 1
        return self.snapshot_path

    # ------------------------------------------------------------------ #
    # recovery

    def recover(self, store: ViewStore,
                lineage: LineageRegistry) -> RecoveryReport:
        """Rebuild ``store`` and ``lineage`` from snapshot + WAL tail.

        Must run on a *fresh* store, before the journal's own listener is
        attached (or replay would re-journal itself).  What a record
        means is the store's business: the snapshot goes through
        :meth:`ViewStore.load`, every WAL op through
        :meth:`ViewStore.apply`.
        """
        report = RecoveryReport()
        state: Dict[str, object] = {}
        if os.path.exists(self.snapshot_path):
            with open(self.snapshot_path, "r", encoding="utf-8") as handle:
                state = json.load(handle)
        report.skipped += [["counters", name] for name in store.load(state)]
        lineage.restore(state.get("lineage", {}))
        report.snapshot_views = len(state.get("views", ()))
        report.epoch = int(state.get("epoch", 0))
        report.runtime_version = str(state.get("runtime_version", ""))
        for op in self.wal_ops():
            report.wal_ops += 1
            kind = str(op.get("op"))
            try:
                if kind == "epoch":
                    report.epoch = int(op.get("epoch", report.epoch))
                    report.runtime_version = str(
                        op.get("version", report.runtime_version))
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
                report.skipped.append([kind, str(op.get("signature", ""))])
            except (KeyError, ValueError, TypeError):
                # A malformed-but-decodable op (half a payload survived
                # the tear) must not abort recovery of everything else.
                report.skipped.append([kind, "malformed"])
        report.torn_lines = self.last_scan_torn
        report.views_restored = len(store.views())
        return report

    # ------------------------------------------------------------------ #
    # lifecycle

    def stats(self) -> Dict[str, object]:
        return {
            "directory": self.directory,
            "ops_written": self.ops_written,
            "ops_since_snapshot": self.ops_since_snapshot,
            "snapshots_written": self.snapshots_written,
            "wal_bytes": (os.path.getsize(self.wal_path)
                          if os.path.exists(self.wal_path) else 0),
            "has_snapshot": os.path.exists(self.snapshot_path),
            "torn_pending": self._torn_pending,
        }

    def close(self) -> None:
        with self._mutex:
            if self._wal is not None:
                self._wal.close()
                self._wal = None
