"""Materialized-view store with expiry, sealing, and storage accounting.

CloudViews treats views as "cheap throwaway views that are recreated
whenever the inputs change" (Section 2.4).  This store captures their
production lifecycle:

* **creation** happens as a side effect of query processing (the Spool
  operator writes here);
* **early sealing**: "the job manager makes the view available even before
  the query finishes" (Section 2.3) -- a view starts unsealed and becomes
  visible to matching the moment its producing stage completes;
* **expiry**: "our current eviction policies expire each of the views after
  one week of creation, thus consuming a fixed amount of storage" (§3.1);
* **purging**: users "can see the CloudViews-generated files ... and even
  purge views whenever necessary" (§2.4).

Every one of those is a plain-data *record* (``created`` / ``sealed`` /
``reused`` / ``purged`` / ``abandoned`` / ``evicted`` / ``removed``) put
through :meth:`ViewStore.apply`, the one place a view's durable fields
and the lifetime counters change -- the same function WAL replay calls
(:mod:`repro.lifecycle.journal`), so a recovered catalog is the live one
by construction.  :meth:`ViewStore.dump` / :meth:`ViewStore.load` are
the one codec of that durable state (digest, snapshots, recovery).

At most one materialization per strict signature is *not* enforced
here: the insights service's exclusive view lock is the guard.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.clock import SECONDS_PER_WEEK
from repro.common.errors import StorageError
from repro.obs import events as obs_events
from repro.obs.recorder import NULL_RECORDER

DEFAULT_VIEW_TTL = SECONDS_PER_WEEK

#: The lifetime counters: with the view records, the whole durable state.
COUNTERS = ("total_created", "total_reused", "total_expired",
            "total_purged", "total_gc_evicted")
#: The ops after which a view is gone from the catalog (lineage forgets it).
DEPARTED = ("abandoned", "evicted", "removed")

#: Mutation listener: ``listener(record)``, the plain-data record
#: :meth:`ViewStore.apply` just applied (a WAL line, verbatim), in applied
#: order (the durable catalog journal depends on this).
StoreListener = Callable[[Dict[str, object]], None]


@dataclass
class MaterializedView:
    """Metadata for one materialized common subexpression."""

    signature: str
    path: str
    schema: Tuple[str, ...]
    virtual_cluster: str
    created_at: float
    expires_at: float
    recurring_signature: str = ""
    row_count: int = 0
    size_bytes: int = 0
    sealed: bool = False
    sealed_at: Optional[float] = None
    purged: bool = False
    reuse_count: int = 0
    #: In-flight readers (jobs currently scanning the view).  Transient --
    #: never serialized, never part of the catalog digest -- but a pinned
    #: view survives eviction and hard removal until the last reader
    #: unpins it.
    pins: int = 0
    #: The defining logical subplan (lineage reads the inputs it scans);
    #: None for views restored from metadata.
    definition: object = None

    def available(self, now: float) -> bool:
        """Visible to view matching: sealed by ``now``, unexpired, not purged."""
        if not self.sealed or self.purged:
            return False
        if self.sealed_at is not None and now < self.sealed_at:
            return False
        return now < self.expires_at

    def catalog_record(self) -> Dict[str, object]:
        """The view's identity-free canonical record (see
        :meth:`ViewStore.catalog_digest`)."""
        return {
            "signature": self.signature,
            "path": self.path,
            "schema": list(self.schema),
            "virtual_cluster": self.virtual_cluster,
            "created_at": self.created_at,
            "expires_at": self.expires_at,
            "recurring": self.recurring_signature,
            "rows": self.row_count,
            "bytes": self.size_bytes,
            "sealed": self.sealed,
            "sealed_at": self.sealed_at,
            "purged": self.purged,
            "reuse_count": self.reuse_count,
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "MaterializedView":
        """The inverse of :meth:`catalog_record` (``definition=None``,
        unpinned: neither is durable)."""
        return cls(
            signature=str(record["signature"]),
            path=str(record["path"]),
            schema=tuple(record["schema"]),
            virtual_cluster=str(record["virtual_cluster"]),
            created_at=float(record["created_at"]),
            expires_at=float(record["expires_at"]),
            recurring_signature=str(record.get("recurring", "")),
            row_count=int(record.get("rows", 0)),
            size_bytes=int(record.get("bytes", 0)),
            sealed=bool(record.get("sealed", False)),
            sealed_at=(None if record.get("sealed_at") is None
                       else float(record["sealed_at"])),
            purged=bool(record.get("purged", False)),
            reuse_count=int(record.get("reuse_count", 0)),
        )


class ViewStore:
    """Catalog of materialized views, keyed by strict signature."""

    def __init__(self, ttl_seconds: float = DEFAULT_VIEW_TTL,
                 recorder=NULL_RECORDER):
        self.ttl_seconds = ttl_seconds
        self._views: Dict[str, MaterializedView] = {}
        self.total_created = 0
        self.total_reused = 0
        self.total_expired = 0
        self.total_purged = 0
        self.total_gc_evicted = 0
        #: Flight recorder (no-op unless a real one is installed).
        self.recorder = recorder
        #: Mutation listeners (the lifecycle manager's journal/lineage
        #: feed); see :data:`StoreListener`.
        self._listeners: List[StoreListener] = []

    # ------------------------------------------------------------------ #
    # listeners (the lifecycle subsystem's feed)

    def add_listener(self, listener: StoreListener) -> None:
        """Subscribe to every catalog mutation, in applied order."""
        self._listeners.append(listener)

    def remove_listener(self, listener: StoreListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _commit(self, record: Dict[str, object]
                ) -> Optional[MaterializedView]:
        """Apply one record, then hand that same record to the listeners."""
        view = self.apply(record)
        for listener in self._listeners:
            listener(record)
        return view

    # ------------------------------------------------------------------ #
    # the transition function

    def apply(self, record: Dict[str, object]) -> Optional[MaterializedView]:
        """Apply one catalog mutation record; returns the view it touched.

        The only place a view's durable fields and the lifetime counters
        change: the mutators below validate, build the record and come
        here, and WAL replay feeds the journaled records back through
        unchanged -- so a recovered catalog equals the live one by
        construction.  An unknown op, or a ``sealed`` / ``reused`` /
        ``purged`` for a view that is not there, raises
        :class:`StorageError`; half a payload raises ``KeyError`` /
        ``ValueError`` / ``TypeError`` before anything changed.
        """
        op = record.get("op")
        if op == "created":
            view = MaterializedView.from_record(record["view"])
            self._views[view.signature] = view
            return view
        signature = str(record.get("signature", ""))
        if op in DEPARTED:
            # Counted even when the entry is already gone: the live
            # store counted it, and a WAL may have lost the creation.
            if op == "evicted":
                self.total_expired += 1
            elif op == "removed":
                self.total_gc_evicted += 1
            return self._views.pop(signature, None)
        if op not in ("sealed", "reused", "purged"):
            raise StorageError(f"unknown catalog op {op!r}")
        view = self._views.get(signature)
        if view is None:
            raise StorageError(f"unknown view {signature[:8]}")
        if op == "sealed":
            view.sealed_at, view.row_count, view.size_bytes = (
                float(record["sealed_at"]), int(record["rows"]),
                int(record["bytes"]))
            view.sealed = True
            self.total_created += 1
        elif op == "reused":
            view.reuse_count += 1
            self.total_reused += 1
        else:
            view.purged = True
            self.total_purged += 1
        return view

    # ------------------------------------------------------------------ #
    # lifecycle

    def begin_materialize(self, signature: str, path: str,
                          schema: Tuple[str, ...], virtual_cluster: str,
                          now: float,
                          ttl_seconds: Optional[float] = None,
                          recurring_signature: str = "",
                          definition: object = None) -> MaterializedView:
        """Register a view whose materialization has started (unsealed)."""
        existing = self._views.get(signature)
        if existing is not None and existing.available(now):
            raise StorageError(
                f"view {signature[:8]} already materialized and available")
        ttl = self.ttl_seconds if ttl_seconds is None else ttl_seconds
        record = {"op": "created", "view": MaterializedView(
            signature=signature,
            path=path,
            schema=tuple(schema),
            virtual_cluster=virtual_cluster,
            created_at=now,
            expires_at=now + ttl,
            recurring_signature=recurring_signature,
        ).catalog_record()}
        # The defining subplan is not durable; it is in place before
        # the listeners run (lineage is extracted from it).
        view = self.apply(record)
        view.definition = definition
        for listener in self._listeners:
            listener(record)
        self.recorder.event(obs_events.VIEW_CREATED, at=now,
                            signature=signature[:12], path=path,
                            virtual_cluster=virtual_cluster)
        return view

    def seal(self, signature: str, now: float, row_count: int,
             size_bytes: int, sealed_by: str = "") -> MaterializedView:
        """Early-seal a view: it becomes visible for reuse immediately."""
        view = self._commit({
            "op": "sealed", "signature": signature, "sealed_at": now,
            "rows": row_count, "bytes": size_bytes})
        self.recorder.event(obs_events.VIEW_SEALED, at=now,
                            job_id=sealed_by,
                            signature=signature[:12], rows=row_count,
                            bytes=size_bytes)
        if self.recorder.enabled:  # the null recorder drops the gauge
            self.recorder.set_gauge("views.live_bytes",
                                    self.storage_in_use(now))
        return view

    def abandon(self, signature: str) -> None:
        """Forget an unsealed view (producing job failed before sealing)."""
        view = self._views.get(signature)
        if view is None or view.sealed:
            return
        self._commit({"op": "abandoned", "signature": signature})
        self.recorder.event(obs_events.VIEW_INVALIDATED,
                            signature=signature[:12], reason="abandoned")

    def purge(self, signature: str, reason: str = "purged") -> None:
        """Deletion of a view's files (user-initiated or cascade).

        The view stops matching immediately; its catalog entry lingers
        (flagged ``purged``) until a GC sweep hard-removes it, so
        in-flight readers keep a consistent record to unpin.
        """
        view = self._views.get(signature)
        if view is None or not view.purged:  # apply refuses an unknown view
            self._commit({"op": "purged", "signature": signature,
                          "reason": reason})
        self.recorder.event(obs_events.VIEW_INVALIDATED,
                            signature=signature[:12], reason=reason)

    def remove(self, signature: str, reason: str = "gc") -> bool:
        """Hard-remove a view's catalog entry (GC sweeps only).

        Refuses while any reader holds a pin, and refuses an in-flight
        build (unsealed, unpurged): only its producer ends that, by seal
        or abandon.  A sweep deciding on an older, expired entry of the
        same signature must not take a newer rebuild with it.
        Returns whether the entry was removed.
        """
        view = self._views.get(signature)
        if view is None or view.pins > 0 or \
                not (view.sealed or view.purged):
            return False
        self._commit({"op": "removed", "signature": signature,
                      "reason": reason})
        self.recorder.event(obs_events.VIEW_EVICTED,
                            signature=signature[:12], reason=reason,
                            reuse_count=view.reuse_count)
        return True

    # ------------------------------------------------------------------ #
    # pinning (in-flight readers)

    def pin(self, signature: str) -> bool:
        """Mark one in-flight reader; pinned views are never removed.

        Only a sealed, unpurged view is pinnable: a reader expects the
        sealed blob, and after a GC sweep another producer may have
        re-begun the same signature, leaving an unsealed record whose
        data does not exist yet.  Refusing the pin routes the reader to
        the reuse-free fallback instead of a missing blob.
        """
        view = self._views.get(signature)
        if view is None or not view.sealed or view.purged:
            return False
        view.pins += 1
        return True

    def unpin(self, signature: str) -> None:
        """Release one reader's pin (tolerant of a vanished view)."""
        view = self._views.get(signature)
        if view is not None and view.pins > 0:
            view.pins -= 1

    # ------------------------------------------------------------------ #
    # lookup

    def lookup(self, signature: str, now: float) -> Optional[MaterializedView]:
        """Return the view if it is available for reuse at ``now``."""
        view = self._views.get(signature)
        if view is not None and view.available(now):
            return view
        return None

    def get(self, signature: str) -> Optional[MaterializedView]:
        """Raw metadata access, regardless of availability."""
        return self._views.get(signature)

    def record_reuse(self, signature: str, reused_by: str = "") -> None:
        reuse_count = self._commit(
            {"op": "reused", "signature": signature}).reuse_count
        self.recorder.event(obs_events.VIEW_REUSED, job_id=reused_by,
                            signature=signature[:12],
                            reuse_count=reuse_count)

    def claim_for_reuse(self, signature: str, now: float,
                        reused_by: str = "") -> Optional[MaterializedView]:
        """Atomic availability re-check + reuse accounting at match time.

        A view seen by ``lookup`` may be purged or hard-removed (by a
        sweep between steps) before the optimizer commits the match;
        this re-checks availability and records the reuse in one step
        so matching never claims a vanished view.
        Returns ``None`` when the view is no longer available.

        A successful claim also takes a *pin*: the rest of compilation
        (buildout, cost finalization) sees the claimed record sealed and
        present instead of racing a sweep.  The
        optimizer releases the pin when compilation finishes
        (:meth:`~repro.optimizer.view_matching.MatchOutcome.release_claims`);
        execution re-pins for the duration of the actual scan.
        """
        view = self._views.get(signature)
        if view is None or not view.available(now):
            return None
        view.pins += 1
        reuse_count = self._commit(
            {"op": "reused", "signature": signature}).reuse_count
        self.recorder.event(obs_events.VIEW_REUSED, job_id=reused_by,
                            signature=signature[:12],
                            reuse_count=reuse_count)
        return view

    def is_materializing(self, signature: str, now: float) -> bool:
        """True while a producing job holds the view-in-progress slot."""
        view = self._views.get(signature)
        return view is not None and not view.sealed and not view.purged

    def evict_expired(self, now: float) -> List[MaterializedView]:
        """Drop expired views; returns what was evicted.

        Views pinned by an in-flight reader are skipped (they expire but
        stay resident until the last reader unpins; the next GC sweep
        collects them).
        """
        expired = [v for v in self._views.values()
                   if v.sealed and now >= v.expires_at and v.pins == 0]
        for view in expired:
            self._commit({"op": "evicted", "signature": view.signature})
        for view in expired:
            self.recorder.event(obs_events.VIEW_EVICTED, at=now,
                                signature=view.signature[:12],
                                reuse_count=view.reuse_count)
        if expired and self.recorder.enabled:
            self.recorder.set_gauge("views.live_bytes",
                                    self.storage_in_use(now))
        return expired

    # ------------------------------------------------------------------ #
    # accounting

    def storage_in_use(self, now: float) -> int:
        """Bytes held by currently available views (the paper's "fixed
        amount of storage in the stable state")."""
        return sum(v.size_bytes for v in self._views.values()
                   if v.available(now))

    def views(self) -> List[MaterializedView]:
        return list(self._views.values())

    def catalog_digest(self) -> str:
        """Deterministic fingerprint of the whole catalog.

        Serializes every view's canonical record (sorted by signature;
        producing-job identity is deliberately absent, since which of two
        racing jobs won the build lock is schedule-dependent) and hashes
        it.  Two runs produced the same catalog iff the digests match --
        this is what ``repro simulate --shards N`` compares against an
        unsharded run.
        """
        payload = json.dumps(self.dump()["views"], sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def counters(self) -> Dict[str, int]:
        """Aggregate lifetime counters (journaled alongside the catalog)."""
        return {name: getattr(self, name) for name in COUNTERS}

    # ------------------------------------------------------------------ #
    # the snapshot codec

    def dump(self) -> Dict[str, object]:
        """The durable catalog state as plain data: every view's canonical
        record (sorted by signature) and the lifetime counters.  What a
        journal snapshots and what :meth:`catalog_digest` hashes."""
        return {"views": [self._views[s].catalog_record()
                          for s in sorted(self._views)],
                "counters": self.counters()}

    def load(self, state: Dict[str, object]) -> List[str]:
        """Install a :meth:`dump` into this (empty) store.

        Only the five lifetime counters are admitted: any other key under
        ``counters`` is refused and returned, and the rest still loads.
        """
        if self._views:
            raise StorageError("journal recovery requires an empty store")
        for record in state.get("views", ()):
            self.apply({"op": "created", "view": record})
        refused = []
        for name, value in state.get("counters", {}).items():
            if name in COUNTERS:
                setattr(self, name, int(value))
            else:
                refused.append(name)
        return refused
