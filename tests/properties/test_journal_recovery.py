"""Property: a recovered catalog equals the live one, for any interleaving.

Random mutation programs -- begin / seal / claim / record_reuse / purge /
abandon / evict_expired / remove, snapshots at random points, injected
``torn`` and ``storage`` faults on the next WAL append -- run on a store
journaled by the real :class:`LifecycleManager`, and the journal is then
recovered three ways:

* the **classic** directory, by :meth:`CatalogJournal.recover`;
* **sharded**: the same manager over a :class:`ShardedCatalogJournal`
  whose "router" is two in-process :class:`ShardWorker`\\ s, so records
  are routed by ``shard_for_op`` into ``shard-00`` / ``shard-01`` (and
  snapshots sliced by ``shard_for``), folded by
  :func:`merged_offline_recovery`;
* **snapshot-then-tail**: a clean close (final snapshot), a manager
  reopened on the directory -- whose recovered store must itself be a
  sound base -- a second program as the WAL tail, then a crash.

and the two layouts are one routing: the same program through a classic
and a 2-shard manager writes the same WAL lines, split by owner, and
recovers the same catalog.

Recovered ``dump()``, digest and lineage equal the live ones whenever no
append was lost since the last snapshot (a snapshot writes the live
state, so it heals every loss before it).  When one was lost, recovery
still completes and reports only ``[op, signature]`` skips.

The example-based journal tests replay hand-picked op sequences; nothing
else covers interleavings.  Shrunk counter-examples land below as
``@example`` lines.
"""

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.common.hashing import shard_for
from repro.engine import ScopeEngine
from repro.faults import FaultPlan, FaultRuntime
from repro.lifecycle import (
    CatalogJournal,
    LifecycleConfig,
    LifecycleManager,
    LineageRegistry,
)
from repro.lifecycle.journal import WAL_FILE
from repro.plan.logical import Scan
from repro.shard import merged_offline_recovery
from repro.shard.journal import ShardedCatalogJournal
from repro.shard.worker import ShardWorker, WorkerSpec
from repro.storage.views import ViewStore

# Fixed seed, small budget: this runs in tier-1.
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

#: Six signatures, three owned by each of two shards.
CANDIDATES = [f"sig-{n}" for n in range(64)]
SIGS = [sig for shard in (0, 1) for sig in
        [c for c in CANDIDATES if shard_for(c, 2) == shard][:3]]

views = st.integers(0, len(SIGS) - 1)
steps = st.one_of(
    st.tuples(st.just("begin"), views, st.sampled_from([3.0, 1000.0])),
    st.tuples(st.just("seal"), views),
    st.tuples(st.just("claim"), views, st.booleans()),  # keep the pin?
    st.tuples(st.just("reuse"), views),
    st.tuples(st.just("purge"), views),
    st.tuples(st.just("abandon"), views),
    st.tuples(st.just("evict")),
    st.tuples(st.just("remove"), views),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("fault"), st.sampled_from(["torn", "storage"])),
)


class InProcessRouter:
    """The two calls the sharded journal makes on a ``ShardRouter``, over
    shard workers living in this process (arguments still cross as JSON)."""

    def __init__(self, root, shards=2):
        self.shards = shards
        self.workers = [ShardWorker(WorkerSpec(
            shard_id=shard_id, shards=shards, socket_path="",
            state_dir=os.path.join(root, "state"),
            journal_dir=os.path.join(root, "journal", f"shard-{shard_id:02d}")))
            for shard_id in range(shards)]

    def call(self, shard_id, method, **params):
        return self.workers[shard_id].handle(
            method, json.loads(json.dumps(params)))

    def broadcast(self, method, **params):
        return [self.call(shard_id, method, **params)
                for shard_id in range(self.shards)]


def open_manager(root, shards):
    """A manager on ``root/journal``; recovers whatever is there."""
    config = LifecycleConfig(journal_dir=os.path.join(root, "journal"))
    journal = (ShardedCatalogJournal(InProcessRouter(root, shards))
               if shards else None)
    return LifecycleManager(ScopeEngine(), config, journal=journal)


def drive(manager, program, start=0):
    """Run ``program``; returns whether the journal is whole: no append
    was lost since the last snapshot."""
    store = manager.store
    errors_at_snapshot = manager.journal_errors
    for tick, (kind, *args) in enumerate(program, start):
        now = float(tick)
        signature = SIGS[args[0]] if args and kind != "fault" else ""
        try:
            if kind == "begin":
                store.begin_materialize(
                    signature, f"views/{signature}", ("a", "b"), "vc1",
                    now=now, ttl_seconds=args[1],
                    recurring_signature=f"r-{signature}",
                    definition=Scan(("Events", "Users")[tick % 2],
                                    ("a", "b"), stream_guid=f"g{tick % 3}"))
            elif kind == "seal":
                store.seal(signature, now=now, row_count=tick,
                           size_bytes=8 * tick)
            elif kind == "claim":
                if store.claim_for_reuse(signature, now) and not args[1]:
                    store.unpin(signature)
            elif kind == "reuse":
                store.record_reuse(signature)
            elif kind == "purge":
                store.purge(signature, reason="prop")
            elif kind == "abandon":
                store.abandon(signature)
            elif kind == "evict":
                store.evict_expired(now)
            elif kind == "remove":
                store.remove(signature)
            elif kind == "snapshot":
                manager.snapshot()
                errors_at_snapshot = manager.journal_errors
            else:
                manager.journal.faults = FaultRuntime(FaultPlan.parse(
                    f"journal.append:{args[0]}:1.0:1"))
        except StorageError:
            pass  # the store refused (no such view): nothing was applied
    return manager.journal_errors == errors_at_snapshot


def check_crash_recovery(root, manager, shards, whole):
    """Recover the directory as a crash would leave it, right now."""
    directory = os.path.join(root, "journal")
    store, lineage = ViewStore(), LineageRegistry()
    if shards:
        report = merged_offline_recovery(directory, store, lineage)
    else:
        report = CatalogJournal(directory).recover(store, lineage)
    assert all(len(entry) == 2 and entry[1] != "malformed"
               and entry[0] != "counters" for entry in report.skipped)
    if whole:
        assert report.skipped == []
        assert store.dump() == manager.store.dump()
        assert store.catalog_digest() == manager.store.catalog_digest()
        assert lineage.snapshot() == manager.lineage.snapshot()


@pytest.mark.parametrize("shards", [0, 2], ids=["classic", "sharded"])
@SETTINGS
@given(program=st.lists(steps, max_size=30),
       tail=st.lists(steps, max_size=12))
# A lost ``created``: the later ops of that view are skips, not a crash.
@example(program=[("fault", "torn"), ("begin", 0, 1000.0), ("seal", 0),
                  ("reuse", 0), ("begin", 3, 1000.0), ("seal", 3)],
         tail=[("reuse", 3)])
# ... and the snapshot after it heals the journal.
@example(program=[("fault", "storage"), ("begin", 0, 1000.0), ("seal", 0),
                  ("snapshot",), ("reuse", 0)], tail=[])
# Re-begin over an expired, evicted and a purged signature; a held pin.
@example(program=[("begin", 1, 3.0), ("seal", 1), ("claim", 1, True),
                  ("purge", 1), ("begin", 1, 3.0), ("seal", 1),
                  ("remove", 1), ("evict",), ("evict",), ("evict",),
                  ("evict",), ("begin", 4, 3.0), ("abandon", 4)],
         tail=[("begin", 1, 1000.0), ("seal", 1), ("claim", 1, False)])
def test_recovery_reproduces_the_live_catalog(shards, program, tail):
    with tempfile.TemporaryDirectory() as root:
        manager = open_manager(root, shards)
        whole = drive(manager, program)
        check_crash_recovery(root, manager, shards, whole)
        manager.close()  # clean shutdown: the final snapshot heals all

        reopened = open_manager(root, shards)
        assert reopened.store.dump() == manager.store.dump()
        assert reopened.lineage.snapshot() == manager.lineage.snapshot()
        assert reopened.last_recovery.skipped == []
        whole = drive(reopened, tail, start=len(program))
        check_crash_recovery(root, reopened, shards, whole)
        reopened.close()


def wal_lines(directory):
    """Every line of every WAL under ``directory``, sorted."""
    return sorted(line for wal in Path(directory).rglob(WAL_FILE)
                  for line in wal.read_text(encoding="utf-8").splitlines())


@SETTINGS
@given(program=st.lists(steps, max_size=30))
def test_both_layouts_route_one_journal(program):
    with tempfile.TemporaryDirectory() as classic, \
            tempfile.TemporaryDirectory() as sharded:
        managers = [open_manager(classic, 0), open_manager(sharded, 2)]
        for manager in managers:
            drive(manager, program)
        directories = [os.path.join(root, "journal")
                       for root in (classic, sharded)]
        assert wal_lines(directories[0]) == wal_lines(directories[1])
        dumps = []
        for directory in directories:
            store = ViewStore()
            merged_offline_recovery(directory, store, LineageRegistry())
            dumps.append(store.dump())
        assert dumps[0] == dumps[1]
        for manager in managers:
            manager.close()
