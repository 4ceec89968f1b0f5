"""Dataset catalog: named streams with versioned GUIDs.

Shared datasets in Cosmos are "written once and read many times" and "get
regenerated periodically without requiring any fine-grained updates"
(Section 1).  The catalog models each dataset as a sequence of immutable
*stream versions*, each identified by a GUID:

* a **bulk update** (the periodic regeneration of a cooked dataset)
  installs a new GUID;
* a **GDPR forget request** also installs a new GUID even when most data is
  unchanged -- Section 4 ("Handling GDPR requirements"): "we handled input
  changes by ensuring that the input GUIDs are updated both with recurring
  updates and with GDPR related updates".

Because strict signatures include the scanned stream GUIDs, every GUID
change automatically invalidates all views derived from the old version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.errors import CatalogError
from repro.common.hashing import stable_hash
from repro.catalog.schema import TableSchema

#: Version observer: ``observer(version, previous)`` with ``previous``
#: ``None`` for a dataset's initial registration.  The lifecycle
#: subsystem subscribes to turn GUID changes into invalidation events.
VersionObserver = Callable[["StreamVersion", Optional["StreamVersion"]], None]


@dataclass(frozen=True)
class StreamVersion:
    """One immutable version of a dataset."""

    dataset: str
    guid: str
    created_at: float
    row_count: int
    size_bytes: int
    reason: str = "initial"  # initial | bulk-update | gdpr-forget


@dataclass
class DatasetEntry:
    """Catalog record for one dataset: schema plus version history."""

    schema: TableSchema
    versions: List[StreamVersion] = field(default_factory=list)

    @property
    def current(self) -> StreamVersion:
        if not self.versions:
            raise CatalogError(f"dataset {self.schema.name!r} has no versions")
        return self.versions[-1]


class Catalog:
    """Registry of datasets and their stream versions.

    Version observers run after the new version is installed, over a copy
    of the observer list, so an observer may subscribe or unsubscribe.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, DatasetEntry] = {}
        self._guid_counter = 0
        self._observers: List[VersionObserver] = []

    # ------------------------------------------------------------------ #
    # version observers

    def subscribe(self, observer: VersionObserver) -> None:
        """Deliver every future stream-version installation, in order."""
        self._observers.append(observer)

    def unsubscribe(self, observer: VersionObserver) -> None:
        if observer in self._observers:
            self._observers.remove(observer)

    # ------------------------------------------------------------------ #
    # registration and lookup

    def register(self, schema: TableSchema, row_count: int = 0,
                 created_at: float = 0.0) -> StreamVersion:
        """Register a new dataset and create its initial stream version."""
        if schema.name in self._entries:
            raise CatalogError(f"dataset {schema.name!r} already registered")
        self._entries[schema.name] = DatasetEntry(schema)
        return self._new_version(schema.name, row_count, created_at, "initial")

    def has(self, name: str) -> bool:
        return name in self._entries

    def entry(self, name: str) -> DatasetEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise CatalogError(f"unknown dataset {name!r}") from None

    def schema(self, name: str) -> TableSchema:
        return self.entry(name).schema

    def current_version(self, name: str) -> StreamVersion:
        return self.entry(name).current

    def current_guid(self, name: str) -> str:
        return self.current_version(name).guid

    # ------------------------------------------------------------------ #
    # updates

    def bulk_update(self, name: str, row_count: Optional[int] = None,
                    at: float = 0.0) -> StreamVersion:
        """Regenerate a dataset (periodic cooking run): new GUID."""
        previous = self.current_version(name)
        rows = previous.row_count if row_count is None else row_count
        return self._new_version(name, rows, at, "bulk-update")

    def gdpr_forget(self, name: str, rows_removed: int = 0,
                    at: float = 0.0) -> StreamVersion:
        """Apply a right-to-erasure request: new GUID, slightly fewer rows."""
        previous = self.current_version(name)
        rows = max(0, previous.row_count - rows_removed)
        return self._new_version(name, rows, at, "gdpr-forget")

    # ------------------------------------------------------------------ #
    # internals

    def _new_version(self, name: str, row_count: int, at: float,
                     reason: str) -> StreamVersion:
        entry = self.entry(name)
        previous = entry.versions[-1] if entry.versions else None
        self._guid_counter += 1
        guid = stable_hash("stream", name, self._guid_counter, reason)
        version = StreamVersion(
            dataset=name,
            guid=guid,
            created_at=at,
            row_count=row_count,
            size_bytes=row_count * entry.schema.row_width,
            reason=reason,
        )
        entry.versions.append(version)
        # Observers run the invalidation cascade (bus, store, insights).
        for observer in list(self._observers):
            observer(version, previous)
        return version
