"""The lifecycle manager: where lineage, invalidation, GC, and the
journal meet the engine.

One :class:`LifecycleManager` attaches to one
:class:`~repro.engine.engine.ScopeEngine` and takes over the view
lifecycle end to end:

* it subscribes to the view store's mutation feed, recording lineage for
  every view at materialization time and journaling every mutation --
  durable when the *commit group* around it closes (one acknowledged
  step: a scheduler wave, a ``Session.run``, a cascade, a sweep), or at
  once outside every group;
* it subscribes to the catalog's stream-version feed, so a bulk update or
  GDPR forget automatically publishes the matching invalidation event on
  the :class:`~repro.lifecycle.invalidation.InvalidationBus`;
* it handles those events by cascade-purging exactly the dependent views
  (by lineage), force-releasing their build locks, and bumping the
  insights-service annotation generation so every client-side cache of
  stale signatures drops at once;
* its :meth:`sweep` is one GC step at the caller's ``now``: expiry
  eviction, purged-entry collection (blobs included), and storage-budget
  eviction in ascending cost/benefit order;
* with a journal directory configured, the whole catalog survives
  restarts: construction replays the snapshot + WAL before wiring any
  listeners, and :meth:`close` leaves a fresh snapshot behind.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.common.errors import ConfigError, ReproError, StorageError
from repro.faults import points as fault_points
from repro.faults.runtime import NULL_FAULTS
from repro.lifecycle.gc import SweepResult, gc_score
from repro.lifecycle.invalidation import (
    GdprForget,
    InvalidationBus,
    LifecycleEvent,
    RuntimeEpochBumped,
    StreamGuidChanged,
)
from repro.lifecycle.journal import CatalogJournal, RecoveryReport
from repro.lifecycle.lineage import LineageRegistry, extract_inputs
from repro.obs import events as obs_events
from repro.storage.views import DEPARTED


@dataclass(kw_only=True)
class LifecycleConfig:
    """Knobs of the lifecycle subsystem (``Session(lifecycle=...)``)."""

    #: Directory for the durable catalog journal; ``None`` keeps the
    #: catalog in-memory only (the pre-lifecycle behavior).
    journal_dir: Optional[str] = None
    #: WAL ops between automatic snapshots.
    snapshot_every_ops: int = 512
    #: Byte budget enforced by the sweep's eviction pass; ``None`` leaves
    #: expiry as the only storage control (the paper's §3.1 posture).
    storage_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.snapshot_every_ops < 1:
            raise ConfigError("snapshot_every_ops must be >= 1, got "
                              f"{self.snapshot_every_ops}")
        if (self.storage_budget_bytes is not None
                and self.storage_budget_bytes < 0):
            raise ConfigError("storage_budget_bytes must be >= 0, got "
                              f"{self.storage_budget_bytes}")


class LifecycleManager:
    """Drives the view lifecycle of one engine; see the module docstring."""

    def __init__(self, engine, config: Optional[LifecycleConfig] = None,
                 faults=None, journal=None):
        self.engine = engine
        self.config = config or LifecycleConfig()
        self.faults = faults if faults is not None else NULL_FAULTS
        self.store = engine.view_store
        self.insights = engine.insights
        self.catalog = engine.catalog
        self.lineage = LineageRegistry()
        self.bus = InvalidationBus()
        self.epoch = 0
        self.cascades = 0
        self.sweeps = 0
        #: Journal appends that failed (injected torn/partial writes).
        #: The mutation itself is already applied in memory -- the WAL
        #: just missed one op, which the next snapshot makes durable.
        self.journal_errors = 0
        self.last_recovery: Optional[RecoveryReport] = None
        #: One entry per open commit group (see :meth:`commit_group`).
        self._groups: List[None] = []
        #: An externally-built journal (the sharded session injects a
        #: :class:`~repro.shard.ShardedCatalogJournal`, ``repro gc`` the
        #: layout on disk); when ``None`` the classic single-directory
        #: journal is built from the config.
        self.journal: Optional[CatalogJournal] = journal
        if journal is None and self.config.journal_dir is not None:
            self.journal = CatalogJournal(self.config.journal_dir)
        if self.journal is not None:
            self.journal.faults = self.faults
            self._recover()
        # Listener wiring strictly after recovery: replay must not
        # re-journal itself.
        self.store.add_listener(self._on_store_mutation)
        self.catalog.subscribe(self._on_stream_version)
        self.bus.subscribe(self._handle_event)
        engine.lifecycle = self

    @property
    def recorder(self):
        return self.engine.recorder

    # ------------------------------------------------------------------ #
    # recovery

    def _recover(self) -> None:
        report = self.journal.recover(self.store, self.lineage)
        self.last_recovery = report
        self.epoch = report.epoch
        if report.runtime_version:
            self.engine.set_runtime_version(report.runtime_version)
        if report.recovered_anything:
            self.recorder.event(
                obs_events.JOURNAL_RECOVERED,
                snapshot_views=report.snapshot_views,
                wal_ops=report.wal_ops,
                views_restored=report.views_restored,
                epoch=report.epoch)
        if report.torn_lines:
            self.recorder.inc("journal.torn_tails", report.torn_lines)
            self.recorder.event(
                obs_events.JOURNAL_TORN_TAIL,
                torn_lines=report.torn_lines,
                wal_ops=report.wal_ops)

    # ------------------------------------------------------------------ #
    # the view store's mutation feed (called in applied order)

    def _on_store_mutation(self, record: Dict[str, object]) -> None:
        """Keep lineage in step; journal the record the store applied."""
        if record["op"] == "created":
            signature = record["view"]["signature"]
            inputs = extract_inputs(self.store.get(signature).definition,
                                    self.lineage)
            self.lineage.record(signature, inputs)
            record = {**record,
                      "lineage": sorted([d, g] for d, g in inputs)}
        elif record["op"] in DEPARTED:
            self.lineage.forget(record["signature"])
        self._journal(**record)

    def _journal(self, op: str, **payload) -> None:
        if self.journal is None:
            return
        try:
            self.journal.append_record(op, payload)
            if (self.journal.ops_since_snapshot
                    >= self.config.snapshot_every_ops):
                self.snapshot()
        except ReproError:
            # Only counters here (no recorder events).  The in-memory
            # mutation already applied;
            # a lost WAL op (or deferred snapshot) costs durability of
            # that op until the next snapshot captures full state --
            # never correctness of the live catalog, and never the
            # caller's job.
            self.journal_errors += 1
            self.recorder.inc("journal.write_errors")
        if not self._groups:
            self._commit()

    def _commit(self) -> None:
        """Make every journaled record durable (one frame per shard); a
        failed frame counts each of its records as a write error."""
        failed = self.journal.commit() if self.journal is not None else 0
        if failed:
            self.journal_errors += failed
            self.recorder.inc("journal.write_errors", failed)

    # ------------------------------------------------------------------ #
    # commit groups: the unit of durability is the acknowledged step

    @contextmanager
    def commit_group(self):
        """Hold the journal's records until the ``with`` body ends, then
        commit them: one frame per owning shard (DESIGN §12).

        Any group's close commits everything pending, not only the last
        one open (a nested group's close included).  Committing early is
        always safe; only committing after the step returns could lose
        an acknowledged record.
        """
        self._groups.append(None)
        try:
            yield
        finally:
            self._groups.pop()
            self._commit()

    # ------------------------------------------------------------------ #
    # the catalog's stream-version feed

    def _on_stream_version(self, version, previous) -> None:
        if previous is None or version.reason == "initial":
            return
        if version.reason == "gdpr-forget":
            self.bus.publish(GdprForget(
                at=version.created_at, dataset=version.dataset,
                new_guid=version.guid))
        else:
            self.bus.publish(StreamGuidChanged(
                at=version.created_at, dataset=version.dataset,
                old_guid=previous.guid, new_guid=version.guid))

    # ------------------------------------------------------------------ #
    # invalidation events

    def _handle_event(self, event: LifecycleEvent) -> None:
        if isinstance(event, StreamGuidChanged):
            stale = self._stale_dependents(event.dataset)
            self._cascade(stale, reason="stream-guid-changed", at=event.at,
                          dataset=event.dataset)
        elif isinstance(event, GdprForget):
            # Erasure is stricter than staleness: *every* view derived
            # from any version of the stream must go, and its files with
            # it -- expiry alone is not compliance.
            dependents = self.lineage.views_reading_dataset(event.dataset)
            self._cascade(dependents, reason="gdpr-forget", at=event.at,
                          dataset=event.dataset)
        elif isinstance(event, RuntimeEpochBumped):
            if self.engine.runtime_version != event.version:
                self.engine.set_runtime_version(event.version)
            everything = {v.signature for v in self.store.views()}
            # Withdraw every annotation first (salted signatures can no
            # longer match), then purge the views they produced.
            self.insights.publish([])
            self._cascade(everything, reason="epoch-bumped", at=event.at,
                          bump_generation=False)
            self._journal("epoch", version=event.version, epoch=event.epoch)
            self.recorder.event(obs_events.EPOCH_BUMPED, at=event.at,
                                version=event.version, epoch=event.epoch)

    def _stale_dependents(self, dataset: str) -> Set[str]:
        """Dependents of ``dataset`` built over a non-current GUID."""
        current = (self.catalog.current_guid(dataset)
                   if self.catalog.has(dataset) else None)
        stale: Set[str] = set()
        for signature in self.lineage.views_reading_dataset(dataset):
            for input_dataset, guid in self.lineage.inputs_of(signature):
                if input_dataset == dataset and guid != current:
                    stale.add(signature)
                    break
        return stale

    def _cascade(self, signatures: Set[str], reason: str, at: float,
                 dataset: str = "", bump_generation: bool = True
                 ) -> List[str]:
        """Purge every dependent view; release locks; invalidate caches."""
        purged = [signature for signature in sorted(signatures)
                  if self.store.get(signature) is not None]
        with self.commit_group():  # the cascade's records commit together
            # An unsealed dependent is mid-build: its producer holds the
            # exclusive view lock.  Force-release so the (doomed) build
            # cannot wedge the signature forever -- one lock_pop frame
            # per owning shard for the whole cascade.
            self.insights.force_release_locks(purged)
            for signature in purged:
                self.store.purge(signature, reason=reason)
        if purged and bump_generation:
            # One generation bump for the whole cascade: every client
            # cache keyed by generation drops its stale annotations.
            self.insights.bump_generation()
        if purged or reason == "epoch-bumped":
            self.cascades += 1
            self.recorder.event(
                obs_events.LIFECYCLE_CASCADE, at=at, reason=reason,
                dataset=dataset, purged=len(purged))
        return purged

    # ------------------------------------------------------------------ #
    # operator entry points

    def forget_stream(self, dataset: str, at: float = 0.0) -> int:
        """Apply a GDPR forget to ``dataset``: new GUID + purge cascade.

        The operator entry point (the CLI's ``repro gc --forget``): every
        row is kept and moves under the new GUID, so later jobs still find
        the stream; :meth:`ScopeEngine.gdpr_forget` also drops rows.
        Returns the number of dependent views purged.  When the dataset is
        not in the catalog (a recovered journal carries lineage but not
        the dataset registry) the invalidation event is published
        directly.
        """
        before = self.store.counters()["total_purged"]
        if self.catalog.has(dataset):
            # The catalog observer turns the new GUID into the event.
            try:
                self.engine.gdpr_forget(dataset, lambda row: True, at=at)
            except StorageError:  # registered, but the backend holds no rows
                self.catalog.gdpr_forget(dataset, at=at)
        else:
            self.bus.publish(GdprForget(at=at, dataset=dataset,
                                        new_guid=""))
        return self.store.counters()["total_purged"] - before

    def bump_epoch(self, version: Optional[str] = None,
                   at: float = 0.0) -> str:
        """Roll the runtime epoch: new signature salt, all views dark."""
        self.epoch += 1
        if version is None:
            base = self.engine.runtime_version.split("+epoch")[0]
            version = f"{base}+epoch{self.epoch}"
        self.bus.publish(RuntimeEpochBumped(
            at=at, version=version, epoch=self.epoch))
        return version

    # ------------------------------------------------------------------ #
    # GC sweep (a step on the caller's clock)

    def sweep(self, now: float = 0.0) -> SweepResult:
        """One GC pass: expiry, purged-entry collection, budget eviction.

        An injected storage fault at ``gc.sweep`` aborts the pass before
        it touches anything; GC is idempotent, so the next sweep simply
        redoes the work.  Callers (``Session.gc_sweep``, ``repro gc``)
        never see the exception.
        """
        started = time.perf_counter()
        result = SweepResult(at=now)
        self.sweeps += 1
        try:
            self.faults.fire(fault_points.GC_SWEEP)
        except ReproError as error:
            self.recorder.inc("gc.sweeps_aborted")
            self.recorder.event(obs_events.GC_SWEEP_ABORTED, at=now,
                                error=str(error))
            return result

        with self.commit_group():  # the pass's records commit together
            expired_views = self.store.evict_expired(now)
            result.expired = len(expired_views)
            for view in expired_views:
                result.reclaimed_bytes += view.size_bytes
                self.engine.delete_view_blob(view.path)

            for view in self.store.views():
                collectable = view.purged or (view.sealed
                                              and now >= view.expires_at)
                if not collectable:
                    continue
                if view.pins > 0:
                    result.pinned_skipped += 1
                    continue
                if self.store.remove(view.signature, reason="gc"):
                    result.removed += 1
                    result.reclaimed_bytes += view.size_bytes
                    self.engine.delete_view_blob(view.path)

            budget = self.config.storage_budget_bytes
            if budget is not None:
                result.budget_evicted = self._evict_to_budget(now, budget,
                                                              result)

        result.duration_seconds = time.perf_counter() - started
        self.recorder.event(
            obs_events.GC_SWEEP, at=now,
            expired=result.expired, removed=result.removed,
            budget_evicted=result.budget_evicted,
            pinned_skipped=result.pinned_skipped,
            reclaimed_bytes=result.reclaimed_bytes,
            duration_seconds=round(result.duration_seconds, 6))
        return result

    def _evict_to_budget(self, now: float, budget: int,
                         result: SweepResult) -> int:
        """Evict live views, worst cost/benefit first, until under budget."""
        evicted = 0
        candidates = sorted(
            (v for v in self.store.views() if v.available(now)),
            key=lambda v: gc_score(v, now))
        in_use = self.store.storage_in_use(now)
        for view in candidates:
            if in_use <= budget:
                break
            if view.pins > 0:
                result.pinned_skipped += 1
                continue
            if self.store.remove(view.signature, reason="budget"):
                evicted += 1
                in_use -= view.size_bytes
                result.reclaimed_bytes += view.size_bytes
                result.evicted_signatures.append(view.signature)
                self.engine.delete_view_blob(view.path)
        return evicted

    # ------------------------------------------------------------------ #
    # persistence and shutdown

    def snapshot(self) -> Optional[str]:
        """Write a full-state snapshot (and truncate the WAL)."""
        if self.journal is None:
            return None
        state = {**self.store.dump(), "lineage": self.lineage.snapshot(),
                 "epoch": self.epoch,
                 "runtime_version": self.engine.runtime_version}
        # Pending records are in ``state``: they must reach the WAL
        # before it is truncated, never replay on top of the snapshot.
        self._commit()
        path = self.journal.snapshot(state)
        self.recorder.event(obs_events.JOURNAL_SNAPSHOT,
                            views=len(self.store.views()),
                            epoch=self.epoch)
        return path

    def stats(self, now: float = 0.0) -> Dict[str, object]:
        """Operator-facing summary (``repro gc --stats``)."""
        views = self.store.views()
        out: Dict[str, object] = {
            "views_total": len(views),
            "views_available": sum(1 for v in views if v.available(now)),
            "views_purged": sum(1 for v in views if v.purged),
            "views_pinned": sum(1 for v in views if v.pins > 0),
            "storage_in_use": self.store.storage_in_use(now),
            "storage_budget": self.config.storage_budget_bytes,
            "lineage_entries": len(self.lineage),
            "lineage_datasets": len(self.lineage.datasets()),
            "epoch": self.epoch,
            "runtime_version": self.engine.runtime_version,
            "cascades": self.cascades,
            "gc_sweeps": self.sweeps,
            "journal_errors": self.journal_errors,
            "blob_delete_failures": self.engine.blob_delete_failures,
        }
        out.update({f"counter_{k}": v
                    for k, v in self.store.counters().items()})
        if self.journal is not None:
            out.update({f"journal_{k}": v
                        for k, v in self.journal.stats().items()})
        return out

    def close(self) -> None:
        """Snapshot and detach from the engine."""
        if self.journal is not None:
            # Clean shutdown runs with injection disabled: the
            # ``journal.snapshot`` point models losing a *periodic*
            # snapshot (recovery falls back to the previous one plus the
            # WAL); failing the final shutdown snapshot would instead
            # turn every chaos-campaign teardown into a spurious error.
            self.journal.faults = NULL_FAULTS
            self.snapshot()
            self.journal.close()
        self.store.remove_listener(self._on_store_mutation)
        self.catalog.unsubscribe(self._on_stream_version)
        if self.engine.lifecycle is self:
            self.engine.lifecycle = None
