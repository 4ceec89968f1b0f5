"""Simulated stable storage for stream data.

Rows live in memory, keyed by stream GUID.  The executor reads rows for a
:class:`~repro.plan.logical.Scan` through this store; materialized views
write their rows here too (under their view path), so reuse reads exactly
what the producing job wrote.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import StorageError
from repro.common.sync import RANK_STORAGE, TrackedLock
from repro.plan.expressions import Row


@dataclass
class _Blob:
    """One stored row list with what has been measured of it."""

    rows: List[Row]
    size: int
    #: Column set -> byte size of ``rows`` projected onto it.
    projected: Dict[Tuple[str, ...], int] = field(default_factory=dict)


class DataStore:
    """In-memory blob store: GUID/path -> list of rows.

    Concurrently executing jobs write distinct view paths and read shared
    stream GUIDs; a lock keeps the blob map and the byte counters exact
    under that parallelism.

    A blob is measured once, when it is written: ``put`` records its byte
    size next to the rows and every read charges the recorded number, so
    nothing O(rows) ever runs while ``storage.data`` is held.
    """

    def __init__(self) -> None:
        self._blobs: Dict[str, _Blob] = {}
        self._mutex = TrackedLock("storage.data", RANK_STORAGE)
        self.bytes_written = 0
        self.bytes_read = 0

    def put(self, key: str, rows: List[Row],
            row_bytes: Optional[int] = None) -> None:
        """Store ``rows`` under ``key`` (overwrites: streams are immutable
        per GUID, so an overwrite only happens when re-materializing the
        same view path).  ``row_bytes`` is the size of ``rows`` when the
        caller has already measured them."""
        rows = list(rows)
        size = _estimate_bytes(rows) if row_bytes is None else row_bytes
        with self._mutex:
            self._blobs[key] = _Blob(rows, size)
            self.bytes_written += size

    def _charge(self, key: str) -> _Blob:
        """The blob under ``key``, charged to ``bytes_read``; the caller
        holds the mutex."""
        try:
            blob = self._blobs[key]
        except KeyError:
            raise StorageError(f"no data stored under key {key!r}") from None
        self.bytes_read += blob.size
        return blob

    def read(self, key: str) -> Tuple[List[Row], int]:
        """The rows under ``key`` and their recorded byte size."""
        with self._mutex:
            blob = self._charge(key)
        return blob.rows, blob.size

    def get(self, key: str) -> List[Row]:
        return self.read(key)[0]

    def read_columns(self, key: str,
                     columns: Tuple[str, ...]) -> Tuple[List[Row], int]:
        """Column-pruned read: the blob's rows projected onto ``columns``
        (absent columns read as NULL) and the byte size of that
        projection.  The whole blob is charged to ``bytes_read``; the
        projection is measured the first time a column set is read and
        the size remembered for as long as the blob is stored."""
        with self._mutex:
            blob = self._charge(key)
            size = blob.projected.get(columns)
        projected = [{c: row.get(c) for c in columns} for row in blob.rows]
        if size is None:
            size = _estimate_bytes(projected)
            with self._mutex:
                blob.projected[columns] = size
        return projected, size

    def has(self, key: str) -> bool:
        with self._mutex:
            return key in self._blobs

    def delete(self, key: str) -> None:
        with self._mutex:
            self._blobs.pop(key, None)

    def size_of(self, key: str) -> int:
        with self._mutex:
            blob = self._blobs.get(key)
            return 0 if blob is None else blob.size


def _estimate_bytes(rows: List[Row]) -> int:
    """Exact byte size of a row list: per-value widths, summed.

    The width rule (strings are their character count, booleans one byte,
    everything else -- numbers, NULLs, dates -- eight bytes) is shared with
    the SQL-side accounting in :mod:`repro.backends.sqlite`, and the sum is
    *row-order invariant*: two backends that produce the same multiset of
    rows report the same byte count, which keeps per-node statistics,
    selection inputs, and the view-catalog digest backend-independent.
    """
    total = 0
    for row in rows:
        for value in row.values():
            kind = type(value)
            if kind is str:
                total += len(value) or 1
            elif kind is int or kind is float or value is None:
                total += 8
            elif kind is bool:
                total += 1
            else:
                total += _width(value)
    return total


def _width(value: object) -> int:
    """Width of one value of any type -- the rule itself; the walk above
    answers the exact built-in types without calling it."""
    if isinstance(value, bool):
        return 1
    if isinstance(value, str):
        return max(1, len(value))
    return 8
