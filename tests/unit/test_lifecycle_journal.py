"""Unit tests: the durable catalog journal (WAL + snapshot + recovery)."""

import json
import os

import pytest

from repro.common.errors import StorageError
from repro.lifecycle import CatalogJournal, LineageRegistry
from repro.lifecycle.journal import JournalFile
from repro.storage.views import MaterializedView, ViewStore


def build_store(ttl=100.0):
    store = ViewStore(ttl_seconds=ttl)
    store.begin_materialize("s1", "views/s1", ("a", "b"), "vc1", now=0.0,
                            recurring_signature="r1")
    store.seal("s1", now=1.0, row_count=10, size_bytes=80)
    store.begin_materialize("s2", "views/s2", ("a",), "vc1", now=2.0)
    store.seal("s2", now=3.0, row_count=5, size_bytes=40)
    store.record_reuse("s1")
    return store


def state_of(store, lineage=None, epoch=0, runtime_version=""):
    """What the lifecycle manager hands ``CatalogJournal.snapshot``."""
    return {**store.dump(),
            "lineage": (lineage or LineageRegistry()).snapshot(),
            "epoch": epoch, "runtime_version": runtime_version}


class TestViewRecords:
    def test_round_trip_preserves_catalog_record(self):
        store = build_store()
        view = store.get("s1")
        assert MaterializedView.from_record(
            view.catalog_record()).catalog_record() == view.catalog_record()

    def test_restored_view_has_no_definition(self):
        store = build_store()
        restored = MaterializedView.from_record(
            store.get("s1").catalog_record())
        assert restored.definition is None
        assert restored.pins == 0


class TestWal:
    def test_append_and_read_back(self, tmp_path):
        journal = CatalogJournal(str(tmp_path))
        journal.append("created", signature="s1")
        journal.append("sealed", signature="s1", sealed_at=1.0,
                       rows=10, bytes=80)
        journal.commit()
        ops = journal.partitions[0].wal_ops()
        assert [op["op"] for op in ops] == ["created", "sealed"]
        assert journal.ops_written == 2
        journal.close()

    def test_torn_tail_is_tolerated(self, tmp_path):
        journal = CatalogJournal(str(tmp_path))
        journal.append("reused", signature="s1")
        journal.commit()
        journal.close()
        wal_path = journal.partitions[0].wal_path
        with open(wal_path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "reused", "signa')  # crash mid-append
        ops = journal.partitions[0].wal_ops()
        assert len(ops) == 1  # intact prefix only

    def test_empty_journal(self, tmp_path):
        journal = CatalogJournal(str(tmp_path))
        assert journal.partitions[0].wal_ops() == []
        assert not journal.stats()["has_snapshot"]


class TestSnapshotAndRecovery:
    def test_snapshot_truncates_wal(self, tmp_path):
        store = build_store()
        journal = CatalogJournal(str(tmp_path))
        journal.append("reused", signature="s1")
        journal.commit()
        journal.snapshot(state_of(store))
        assert journal.partitions[0].wal_ops() == []
        assert journal.ops_since_snapshot == 0
        assert os.path.exists(journal.partitions[0].snapshot_path)
        journal.close()

    def test_recover_from_snapshot_reproduces_digest(self, tmp_path):
        store = build_store()
        lineage = LineageRegistry()
        lineage.record("s1", frozenset({("Events", "g1")}))
        journal = CatalogJournal(str(tmp_path))
        journal.snapshot(state_of(store, lineage, epoch=3,
                                  runtime_version="r9"))
        journal.close()

        fresh_store = ViewStore()
        fresh_lineage = LineageRegistry()
        report = CatalogJournal(str(tmp_path)).recover(
            fresh_store, fresh_lineage)
        assert fresh_store.catalog_digest() == store.catalog_digest()
        assert fresh_store.counters() == store.counters()
        assert fresh_lineage.inputs_of("s1") == frozenset({("Events", "g1")})
        assert report.epoch == 3
        assert report.runtime_version == "r9"
        assert report.views_restored == 2
        assert report.skipped == []

    def test_recover_replays_wal_tail(self, tmp_path):
        store = build_store()
        journal = CatalogJournal(str(tmp_path))
        journal.snapshot(state_of(store))
        # Mutations after the snapshot land only in the WAL.
        store.record_reuse("s2")
        journal.append("reused", signature="s2")
        store.purge("s1", reason="test")
        journal.append("purged", signature="s1", reason="test")
        journal.commit()
        journal.close()

        fresh = ViewStore()
        CatalogJournal(str(tmp_path)).recover(fresh, LineageRegistry())
        assert fresh.catalog_digest() == store.catalog_digest()
        assert fresh.counters() == store.counters()
        assert fresh.get("s1").purged
        assert fresh.get("s2").reuse_count == 1

    def test_recover_replays_removals(self, tmp_path):
        store = build_store()
        journal = CatalogJournal(str(tmp_path))
        journal.snapshot(state_of(store))
        store.purge("s2")
        journal.append("purged", signature="s2")
        assert store.remove("s2")
        journal.append("removed", signature="s2")
        journal.commit()
        journal.close()

        fresh = ViewStore()
        CatalogJournal(str(tmp_path)).recover(fresh, LineageRegistry())
        assert fresh.get("s2") is None
        assert fresh.catalog_digest() == store.catalog_digest()
        assert fresh.counters() == store.counters()

    def test_recover_requires_empty_store(self, tmp_path):
        journal = CatalogJournal(str(tmp_path))
        with pytest.raises(StorageError):
            journal.recover(build_store(), LineageRegistry())

    def test_recover_wal_only_no_snapshot(self, tmp_path):
        store = ViewStore(ttl_seconds=100.0)
        journal = CatalogJournal(str(tmp_path))
        store.begin_materialize("s1", "views/s1", ("a",), "vc1", now=0.0)
        journal.append("created", view=store.get("s1").catalog_record(),
                       lineage=[["Events", "g1"]])
        store.seal("s1", now=1.0, row_count=2, size_bytes=16)
        journal.append("sealed", signature="s1", sealed_at=1.0,
                       rows=2, bytes=16)
        journal.commit()
        journal.close()

        fresh = ViewStore()
        lineage = LineageRegistry()
        report = CatalogJournal(str(tmp_path)).recover(fresh, lineage)
        assert report.snapshot_views == 0
        assert report.wal_ops == 2
        assert fresh.catalog_digest() == store.catalog_digest()
        assert lineage.views_reading_dataset("Events") == {"s1"}

    def test_unknown_op_is_skipped_not_fatal(self, tmp_path):
        journal = CatalogJournal(str(tmp_path))
        journal.append("flux-capacitor", signature="s1")
        journal.commit()
        journal.close()
        report = CatalogJournal(str(tmp_path)).recover(
            ViewStore(), LineageRegistry())
        assert report.skipped == [["flux-capacitor", "s1"]]

    def test_snapshot_counters_admit_the_lifetime_counters_only(
            self, tmp_path):
        """Regression: ``restore_counters`` did ``setattr`` for whatever
        key the snapshot carried -- ``_views`` replaced the view table
        with an int (recovery died with ``AttributeError``) and
        ``ttl_seconds`` silently rewrote the store's TTL."""
        store = build_store()
        journal = CatalogJournal(str(tmp_path))
        journal.snapshot(state_of(store))
        journal.close()
        snapshot_path = journal.partitions[0].snapshot_path
        with open(snapshot_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["counters"].update({"_views": 7, "ttl_seconds": 5})
        with open(snapshot_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)

        fresh = ViewStore(ttl_seconds=100.0)
        report = CatalogJournal(str(tmp_path)).recover(
            fresh, LineageRegistry())
        assert report.skipped == [["counters", "_views"],
                                  ["counters", "ttl_seconds"]]
        assert fresh.ttl_seconds == 100.0
        assert fresh.catalog_digest() == store.catalog_digest()
        assert fresh.counters() == store.counters()

    def test_snapshot_is_atomic_no_tmp_left_behind(self, tmp_path):
        journal = CatalogJournal(str(tmp_path))
        journal.snapshot(state_of(build_store()))
        snapshot_path = journal.partitions[0].snapshot_path
        assert not os.path.exists(snapshot_path + ".tmp")
        with open(snapshot_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert len(payload["views"]) == 2
        journal.close()


class TestTornWrites:
    """Injected torn/partial WAL writes and the recovery that skips them."""

    def _journal_with_faults(self, tmp_path, plan_text):
        from repro.faults import FaultPlan, FaultRuntime

        journal = CatalogJournal(str(tmp_path))
        journal.faults = FaultRuntime(FaultPlan.parse(plan_text))
        return journal

    def test_torn_fault_leaves_partial_line_then_heals(self, tmp_path):
        journal = self._journal_with_faults(
            tmp_path, "journal.append:torn:1.0:1")
        with pytest.raises(StorageError, match="torn"):
            journal.append("reused", signature="s2")
        journal.commit()
        assert journal.stats()["torn_pending"]
        # The next append self-heals: fresh line past the partial record.
        journal.append("purged", signature="s1")
        journal.commit()
        assert not journal.stats()["torn_pending"]
        journal.close()

        reopened = JournalFile(str(tmp_path))
        assert [op["op"] for op in reopened.wal_ops()] == ["purged"]
        assert reopened.last_scan_torn == 1

    def test_storage_fault_lands_no_bytes(self, tmp_path):
        journal = self._journal_with_faults(
            tmp_path, "journal.append:storage:1.0:1")
        with pytest.raises(StorageError, match="storage"):
            journal.append("reused", signature="s1")
        journal.append("reused", signature="s1")
        journal.commit()
        journal.close()
        assert len(JournalFile(str(tmp_path)).wal_ops()) == 1

    def test_mid_file_torn_line_does_not_truncate_replay(self, tmp_path):
        """Regression: wal_ops used to stop at the first bad line,
        silently dropping every op a healed journal appended after it."""
        journal = CatalogJournal(str(tmp_path))
        journal.append("reused", signature="s1")
        journal.commit()
        journal.close()
        wal_path = journal.partitions[0].wal_path
        with open(wal_path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "reused", "signa')   # torn, no newline
            handle.write('\n{"op": "purged", "signature": "s1"}\n')
        reopened = JournalFile(str(tmp_path))
        ops = reopened.wal_ops()
        assert [op["op"] for op in ops] == ["reused", "purged"]
        assert reopened.last_scan_torn == 1

    def test_recover_reports_torn_lines_and_keeps_tail(self, tmp_path):
        store = build_store()
        journal = CatalogJournal(str(tmp_path))
        journal.snapshot(state_of(store))
        store.record_reuse("s1")
        journal.append("reused", signature="s1")
        journal.commit()
        journal.close()
        wal_path = journal.partitions[0].wal_path
        with open(wal_path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "reused", "si')      # crash mid-append

        fresh = ViewStore()
        report = CatalogJournal(str(tmp_path)).recover(
            fresh, LineageRegistry())
        assert report.torn_lines == 1
        assert report.skipped == []
        assert fresh.catalog_digest() == store.catalog_digest()

    def test_decodable_but_malformed_op_skipped_not_fatal(self, tmp_path):
        journal = CatalogJournal(str(tmp_path))
        journal.append("sealed", signature="s1")       # missing payload
        journal.commit()
        journal.close()
        report = CatalogJournal(str(tmp_path)).recover(
            ViewStore(), LineageRegistry())
        assert report.skipped == [["sealed", "s1"]]
