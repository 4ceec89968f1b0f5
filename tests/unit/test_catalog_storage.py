"""Unit tests for the catalog, data store, and view store."""

import pytest

from repro.catalog import Catalog, schema_of
from repro.common.clock import SECONDS_PER_WEEK
from repro.common.errors import CatalogError, StorageError
from repro.storage import DataStore, ViewStore


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(schema_of("T", [("a", "int"), ("b", "str")]), row_count=10)
    return cat


class TestCatalog:
    def test_register_and_lookup(self, catalog):
        assert catalog.has("T")
        assert catalog.schema("T").column_names == ("a", "b")
        assert catalog.current_version("T").row_count == 10

    def test_duplicate_registration_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.register(schema_of("T", [("x", "int")]))

    def test_unknown_dataset_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.schema("Nope")

    def test_bulk_update_changes_guid(self, catalog):
        old = catalog.current_guid("T")
        version = catalog.bulk_update("T", row_count=20, at=5.0)
        assert version.guid != old
        assert version.reason == "bulk-update"
        assert catalog.current_version("T").row_count == 20

    def test_bulk_update_keeps_rows_by_default(self, catalog):
        catalog.bulk_update("T")
        assert catalog.current_version("T").row_count == 10

    def test_gdpr_forget_reduces_rows_and_changes_guid(self, catalog):
        old = catalog.current_guid("T")
        version = catalog.gdpr_forget("T", rows_removed=3)
        assert version.guid != old
        assert version.row_count == 7
        assert version.reason == "gdpr-forget"

    def test_size_bytes_tracks_schema_width(self, catalog):
        version = catalog.current_version("T")
        assert version.size_bytes == 10 * catalog.schema("T").row_width

    def test_version_history_preserved(self, catalog):
        catalog.bulk_update("T")
        catalog.bulk_update("T")
        assert len(catalog.entry("T").versions) == 3

    def test_duplicate_schema_column_rejected(self):
        with pytest.raises(CatalogError):
            schema_of("Bad", [("a", "int"), ("a", "str")])

    def test_unsupported_type_rejected(self):
        with pytest.raises(CatalogError):
            schema_of("Bad", [("a", "blob")])


class TestDataStore:
    def test_put_get_round_trip(self):
        store = DataStore()
        rows = [{"a": 1}, {"a": 2}]
        store.put("k", rows)
        assert store.get("k") == rows

    def test_get_returns_copy_isolation(self):
        store = DataStore()
        rows = [{"a": 1}]
        store.put("k", rows)
        rows.append({"a": 2})
        assert len(store.get("k")) == 1

    def test_missing_key_raises(self):
        with pytest.raises(StorageError):
            DataStore().get("missing")

    def test_io_accounting(self):
        store = DataStore()
        store.put("k", [{"a": 1, "b": "xy"}] * 4)
        assert store.bytes_written > 0
        before = store.bytes_read
        store.get("k")
        assert store.bytes_read > before

    def test_reads_charge_the_size_recorded_at_put(self):
        store = DataStore()
        store.put("k", [{"a": 1, "b": "xy"}] * 4)       # 4 * (8 + 2)
        assert store.bytes_written == 40
        batch = store.read("k")
        assert (batch.length, batch.size(), store.bytes_read) == (4, 40, 40)
        store.get("k")
        assert store.bytes_read == 80

    def test_put_over_a_key_replaces_the_recorded_size(self):
        store = DataStore()
        store.put("k", [{"a": 1, "s": "abc"}] * 3)
        assert store.read_columns("k", ("s",)).size() == 9
        store.put("k", [{"a": 1, "s": "abcde"}])
        assert store.read("k").size() == 13
        pruned = store.read_columns("k", ("s",))
        assert (pruned.rows(), pruned.size()) == ([{"s": "abcde"}], 5)
        assert store.read("k").size() == 13

    def test_delete_forgets_the_recorded_size(self):
        store = DataStore()
        store.put("k", [{"a": 1, "s": "abc"}])
        store.read_columns("k", ("a",))
        store.delete("k")
        with pytest.raises(StorageError):
            store.read("k")
        store.put("k", [{"a": True}])
        pruned = store.read_columns("k", ("a",))
        assert (pruned.rows(), pruned.size()) == ([{"a": True}], 1)

    def test_missing_key_charges_nothing(self):
        store = DataStore()
        store.put("k", [{"a": 1}])
        store.delete("k")
        for read in (store.get, store.read,
                     lambda key: store.read_columns(key, ("a",))):
            with pytest.raises(StorageError):
                read("k")
        assert store.bytes_read == 0

    def test_column_pruned_read(self):
        store = DataStore()
        store.put("k", [{"a": 1, "s": "xy"}, {"a": 2, "s": ""}])
        whole = store.read("k")
        stored = whole.columns
        for _ in range(2):
            pruned = store.read_columns("k", ("s", "absent"))
            assert pruned.columns["s"] is stored["s"]   # picked, not copied
            assert (pruned.rows(), pruned.size()) == (
                [{"s": "xy", "absent": None}, {"s": "", "absent": None}],
                2 + 8 + 1 + 8)
        assert store.read_columns("k", ("a",)).size() == 16
        assert store.bytes_read == 4 * whole.size()

    def test_rows_handed_out_are_fresh(self):
        store = DataStore()
        store.put("k", [{"a": 1}, {"a": 2}])
        rows = store.get("k")
        rows[0]["a"] = 99
        rows.append({"a": 3})
        assert store.get("k") == [{"a": 1}, {"a": 2}]
        assert store.read("k").size() == 16

    def test_ragged_rows_read_as_null(self):
        store = DataStore()
        store.put("k", [{"a": 1}, {"a": 2, "b": "x"}, {"b": "yz"}])
        assert store.get("k") == [{"a": 1, "b": None}, {"a": 2, "b": "x"},
                                  {"a": None, "b": "yz"}]


class TestViewStore:
    def test_unsealed_view_not_available(self):
        store = ViewStore()
        store.begin_materialize("sig", "path", ("a",), "vc1", now=0.0)
        assert store.lookup("sig", now=0.0) is None
        assert store.is_materializing("sig", now=0.0)

    def test_seal_makes_view_available(self):
        store = ViewStore()
        store.begin_materialize("sig", "path", ("a",), "vc1", now=0.0)
        store.seal("sig", now=5.0, row_count=10, size_bytes=80)
        view = store.lookup("sig", now=6.0)
        assert view is not None
        assert view.row_count == 10
        assert store.total_created == 1

    def test_view_expires_after_ttl(self):
        store = ViewStore()
        store.begin_materialize("sig", "path", ("a",), "vc1", now=0.0)
        store.seal("sig", now=0.0, row_count=1, size_bytes=8)
        assert store.lookup("sig", now=SECONDS_PER_WEEK - 1) is not None
        assert store.lookup("sig", now=SECONDS_PER_WEEK + 1) is None

    def test_custom_ttl(self):
        store = ViewStore(ttl_seconds=10.0)
        store.begin_materialize("sig", "path", ("a",), "vc1", now=0.0)
        store.seal("sig", now=0.0, row_count=1, size_bytes=8)
        assert store.lookup("sig", now=11.0) is None

    def test_purge_hides_view(self):
        store = ViewStore()
        store.begin_materialize("sig", "path", ("a",), "vc1", now=0.0)
        store.seal("sig", now=0.0, row_count=1, size_bytes=8)
        store.purge("sig")
        assert store.lookup("sig", now=1.0) is None

    def test_abandon_unsealed(self):
        store = ViewStore()
        store.begin_materialize("sig", "path", ("a",), "vc1", now=0.0)
        store.abandon("sig")
        assert not store.is_materializing("sig", now=0.0)

    def test_abandon_does_not_touch_sealed(self):
        store = ViewStore()
        store.begin_materialize("sig", "path", ("a",), "vc1", now=0.0)
        store.seal("sig", now=0.0, row_count=1, size_bytes=8)
        store.abandon("sig")
        assert store.lookup("sig", now=1.0) is not None

    def test_double_materialize_of_available_view_rejected(self):
        store = ViewStore()
        store.begin_materialize("sig", "path", ("a",), "vc1", now=0.0)
        store.seal("sig", now=0.0, row_count=1, size_bytes=8)
        with pytest.raises(StorageError):
            store.begin_materialize("sig", "path", ("a",), "vc1", now=1.0)

    def test_rematerialize_after_expiry_allowed(self):
        store = ViewStore(ttl_seconds=10.0)
        store.begin_materialize("sig", "path", ("a",), "vc1", now=0.0)
        store.seal("sig", now=0.0, row_count=1, size_bytes=8)
        store.begin_materialize("sig", "path", ("a",), "vc1", now=20.0)

    def test_reuse_counting(self):
        store = ViewStore()
        store.begin_materialize("sig", "path", ("a",), "vc1", now=0.0)
        store.seal("sig", now=0.0, row_count=1, size_bytes=8)
        store.record_reuse("sig")
        store.record_reuse("sig")
        assert store.total_reused == 2
        assert store.lookup("sig", now=1.0).reuse_count == 2

    def test_evict_expired(self):
        store = ViewStore(ttl_seconds=10.0)
        store.begin_materialize("s1", "p1", ("a",), "vc1", now=0.0)
        store.seal("s1", now=0.0, row_count=1, size_bytes=8)
        store.begin_materialize("s2", "p2", ("a",), "vc1", now=5.0)
        store.seal("s2", now=5.0, row_count=1, size_bytes=8)
        evicted = store.evict_expired(now=12.0)
        assert [v.signature for v in evicted] == ["s1"]
        assert store.total_expired == 1

    def test_storage_accounting(self):
        store = ViewStore()
        store.begin_materialize("s1", "p1", ("a",), "vc1", now=0.0)
        store.seal("s1", now=0.0, row_count=10, size_bytes=100)
        assert store.storage_in_use(now=1.0) == 100

    def test_null_recorder_skips_the_live_bytes_scan(self, monkeypatch):
        """The gauge is dropped without a recorder, so seal and expiry
        must not scan every view to compute it."""
        store = ViewStore(ttl_seconds=10.0)
        scans = []
        monkeypatch.setattr(store, "storage_in_use",
                            lambda now: scans.append(now) or 0)
        store.begin_materialize("s1", "p1", ("a",), "vc1", now=0.0)
        store.seal("s1", now=0.0, row_count=10, size_bytes=100)
        assert [v.signature for v in store.evict_expired(now=12.0)] == ["s1"]
        assert scans == []

    def test_recorder_still_gets_the_live_bytes_gauge(self):
        from repro.obs import FlightRecorder

        store = ViewStore(ttl_seconds=10.0, recorder=FlightRecorder())
        gauge = lambda: store.recorder.metrics.gauge("views.live_bytes")
        store.begin_materialize("s1", "p1", ("a",), "vc1", now=0.0)
        store.seal("s1", now=0.0, row_count=10, size_bytes=100)
        store.begin_materialize("s2", "p2", ("a",), "vc1", now=5.0)
        store.seal("s2", now=5.0, row_count=1, size_bytes=8)
        assert gauge() == 108
        store.evict_expired(now=12.0)
        assert gauge() == 8
