"""An old journal directory still recovers (on-disk format ``journal_v1``).

``tests/fixtures/journal_v1/{classic,sharded}`` are crash copies -- a
``snapshot.json`` plus a WAL tail, taken before any clean close -- written
by the code of commit b3c4d66 (PR 22, the last one whose journal replay
had its own copy of the catalog arithmetic) from the script below.  The
tail holds every one of the eight ops and one torn line (the lost
``reused`` is why the pinned ``total_reused`` is 7, not the live 8).  The
values pinned here are what *that* commit recovered from these bytes,
except the sharded layout's runtime version: its merge kept the version
of the last shard that had one (``scope-r1+epoch1``, from shard 1's
snapshot) instead of the one that came with the highest epoch.

Regenerate only to add a ``journal_v2`` beside it -- never in place::

    import random, shutil, sys, tempfile
    from repro.api import Session
    from repro.config import SessionConfig
    from repro.faults import FaultPlan, FaultRuntime
    from repro.lifecycle import LifecycleConfig
    from repro.plan.logical import Scan
    from repro.shard import ShardConfig

    def write(workdir, out, shards):
        rng = random.Random(23)
        session = Session(
            config=SessionConfig(shard=ShardConfig(shards=shards)),
            lifecycle=LifecycleConfig(journal_dir=workdir))
        store, manager = session.engine.view_store, session.lifecycle
        sigs = ["%032x" % rng.getrandbits(128) for _ in range(12)]

        def begin(i, now, ttl=1000.0):
            store.begin_materialize(
                sigs[i], f"views/{sigs[i][:8]}", ("a", "b"), f"vc{i % 2}",
                now=now, ttl_seconds=ttl, recurring_signature=f"r{i}",
                definition=Scan(("Events", "Users")[i % 2], ("a", "b"),
                                stream_guid=f"g{i % 3}"))

        def build(i, now, ttl=1000.0):
            begin(i, now, ttl)
            store.seal(sigs[i], now=now + 0.5, row_count=10 + i,
                       size_bytes=80 + 8 * i)

        for i in range(3):
            build(i, float(i))
        store.record_reuse(sigs[0])
        manager.bump_epoch(at=3.0)              # purges 0..2, epoch 1
        store.remove(sigs[0])
        for i in range(3, 8):
            build(i, float(i), ttl=5.0 if i == 4 else 1000.0)
        for i in (3, 3, 5):
            store.record_reuse(sigs[i])
        manager.snapshot()
        # -- the WAL tail: all eight ops, one torn line --
        build(8, 10.0)
        store.unpin(store.claim_for_reuse(sigs[8], now=11.0).signature)
        begin(9, 11.5)
        store.abandon(sigs[9])
        store.evict_expired(now=12.0)           # view 4 (ttl 5)
        store.purge(sigs[5], reason="user")
        store.remove(sigs[5], reason="gc")
        manager.journal.faults = FaultRuntime(
            FaultPlan.parse("journal.append:torn:1.0:1"))
        store.record_reuse(sigs[6])             # torn: lost from the WAL
        store.record_reuse(sigs[7])             # heals onto a fresh line
        manager.bump_epoch(at=13.0)             # purges the rest, epoch 2
        build(10, 14.0)
        store.record_reuse(sigs[10])
        begin(11, 15.0)                         # left unsealed (mid-build)
        shutil.copytree(workdir, out)           # the crash copy
        session.close()

    for name, shards in (("classic", 0), ("sharded", 2)):
        with tempfile.TemporaryDirectory() as tmp:
            write(tmp + "/journal", f"{sys.argv[1]}/{name}", shards)
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.api import Session
from repro.config import SessionConfig
from repro.lifecycle import CatalogJournal, LifecycleConfig, LineageRegistry
from repro.shard import ShardConfig, merged_offline_recovery
from repro.storage.views import ViewStore

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "journal_v1"

DIGEST = "49061f3c5573195fcfb2a54b7ba3904d6e3f55a36af55a491de8ba3f92fdd876"
COUNTERS = {"total_created": 10, "total_reused": 7, "total_expired": 1,
            "total_purged": 8, "total_gc_evicted": 2}
LINEAGE_SHA256 = "d058989f5f8bad72"  # first 16 hex digits
UNSEALED = "374ebe5a9ef94bda2c03a513a86cf7b4"


@pytest.fixture
def journal_dir(request, tmp_path):
    """A scratch copy: recovery never writes into the checked-in bytes."""
    target = tmp_path / "journal"
    shutil.copytree(FIXTURE / request.param, target)
    return str(target)


def check_recovered(store, lineage):
    assert store.catalog_digest() == DIGEST
    assert store.counters() == COUNTERS
    assert len(store.views()) == 8
    assert [v.signature for v in store.views()
            if not v.sealed] == [UNSEALED]
    assert len(lineage) == 8
    assert lineage.datasets() == ["Events", "Users"]
    assert hashlib.sha256(json.dumps(
        lineage.snapshot(), sort_keys=True).encode()).hexdigest()[
            :16] == LINEAGE_SHA256


def test_the_fixture_is_what_it_says():
    files = sorted(p for p in FIXTURE.rglob("*") if p.is_file())
    assert [str(p.relative_to(FIXTURE)) for p in files] == [
        "classic/snapshot.json", "classic/wal.jsonl",
        "sharded/shard-00/snapshot.json", "sharded/shard-00/wal.jsonl",
        "sharded/shard-01/snapshot.json", "sharded/shard-01/wal.jsonl"]
    assert sum(p.stat().st_size for p in files) < 30_000
    for layout in ("classic", "sharded"):
        lines = [line for wal in sorted((FIXTURE / layout).rglob("wal.jsonl"))
                 for line in wal.read_text(encoding="utf-8").splitlines()]
        ops, torn = set(), 0
        for line in lines:
            try:
                ops.add(json.loads(line)["op"])
            except json.JSONDecodeError:
                torn += 1
        assert ops == {"created", "sealed", "reused", "purged", "abandoned",
                       "evicted", "removed", "epoch"}
        assert torn == 1


@pytest.mark.parametrize("journal_dir", ["classic", "sharded"], indirect=True)
def test_offline_recovery_lands_on_the_pinned_state(journal_dir):
    store, lineage = ViewStore(), LineageRegistry()
    report = merged_offline_recovery(journal_dir, store, lineage)
    check_recovered(store, lineage)
    assert (report.epoch, report.runtime_version) == (2, "scope-r1+epoch2")
    assert (report.snapshot_views, report.wal_ops, report.torn_lines,
            report.views_restored, report.skipped) == (7, 18, 1, 8, [])


@pytest.mark.parametrize("journal_dir", ["classic"], indirect=True)
def test_the_classic_journal_recovers_it_directly(journal_dir):
    store, lineage = ViewStore(), LineageRegistry()
    report = CatalogJournal(journal_dir).recover(store, lineage)
    check_recovered(store, lineage)
    assert (report.epoch, report.runtime_version) == (2, "scope-r1+epoch2")
    assert (report.snapshot_views, report.wal_ops, report.torn_lines,
            report.skipped) == (7, 18, 1, [])


@pytest.mark.parametrize("journal_dir,shards",
                         [("classic", 0), ("sharded", 2)],
                         indirect=["journal_dir"])
def test_a_session_opened_on_it_resumes_the_catalog(journal_dir, shards):
    session = Session(config=SessionConfig(shard=ShardConfig(shards=shards)),
                      lifecycle=LifecycleConfig(journal_dir=journal_dir))
    try:
        check_recovered(session.engine.view_store, session.lifecycle.lineage)
        assert session.lifecycle.epoch == 2
        assert session.engine.runtime_version == "scope-r1+epoch2"
    finally:
        session.close()
    # The clean close left a snapshot and an empty WAL; same catalog.
    store, lineage = ViewStore(), LineageRegistry()
    report = merged_offline_recovery(journal_dir, store, lineage)
    check_recovered(store, lineage)
    assert (report.wal_ops, report.torn_lines) == (0, 0)
