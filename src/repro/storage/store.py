"""Simulated stable storage for stream data.

Streams and views are held as column batches (:mod:`repro.storage.batch`),
keyed by stream GUID or view path.  The executor reads a
:class:`~repro.plan.logical.Scan` through this store; materialized views
are written here too (under their view path), so reuse reads exactly what
the producing job wrote.  Rows exist only at the edge: :meth:`DataStore.put`
transposes a row list once and :meth:`DataStore.get` builds fresh dicts,
so nothing a caller does to rows it handed in or was handed reaches what
is stored.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.errors import StorageError
from repro.plan.expressions import Row
from repro.storage.batch import Batch, constants


class DataStore:
    """In-memory blob store: GUID/path -> :class:`Batch`.

    A blob is measured once, before it is written: every read charges the
    size recorded with it and a column-pruned read sums the recorded sizes
    of the columns it picks.
    """

    def __init__(self) -> None:
        self._blobs: Dict[str, Batch] = {}
        self.bytes_written = 0
        self.bytes_read = 0

    def put(self, key: str, rows: Sequence[Row]) -> None:
        """Store a copy of ``rows``, transposed, under ``key``."""
        self.put_batch(key, Batch.from_rows(rows))

    def put_batch(self, key: str, batch: Batch) -> None:
        """Store ``batch`` with every column built (overwrites: streams are
        immutable per GUID, so an overwrite only happens when
        re-materializing the same view path).  Built first, a blob keeps
        no gather's base alive and is never filled in while a later job
        reads it; built, its constant columns are recorded once as
        ``batch.facts``, which every read of it carries."""
        size = batch.size()
        batch.columns.build()
        batch.facts = constants(batch.columns)
        self._blobs[key] = batch
        self.bytes_written += size

    def read(self, key: str) -> Batch:
        """The batch under ``key``, charged to ``bytes_read``."""
        try:
            batch = self._blobs[key]
        except KeyError:
            raise StorageError(
                f"no data stored under key {key!r}") from None
        self.bytes_read += batch.size()
        return batch

    def get(self, key: str) -> List[Row]:
        return self.read(key).rows()

    def read_columns(self, key: str, columns: Tuple[str, ...]) -> Batch:
        """Column-pruned read: the blob's ``columns`` (an absent column
        reads as NULL) with their recorded sizes.  The whole blob is
        charged to ``bytes_read``."""
        return self.read(key).select(columns)

    def has(self, key: str) -> bool:
        return key in self._blobs

    def delete(self, key: str) -> None:
        self._blobs.pop(key, None)

    def size_of(self, key: str) -> int:
        blob = self._blobs.get(key)
        return 0 if blob is None else blob.size()
