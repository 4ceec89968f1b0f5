"""Boundary cases for ``MaterializedView.available`` and counter
monotonicity of the :class:`ViewStore` under concurrent churn."""

import threading

import pytest

from repro.storage.views import MaterializedView, ViewStore


def make_view(**overrides):
    fields = dict(
        signature="s1", path="views/s1", schema=("a",),
        virtual_cluster="vc1", created_at=0.0, expires_at=100.0,
        row_count=1, size_bytes=10, sealed=True, sealed_at=5.0)
    fields.update(overrides)
    return MaterializedView(**fields)


class TestAvailableBoundaries:
    def test_available_inside_window(self):
        assert make_view().available(50.0)

    def test_now_equal_to_expires_at_is_unavailable(self):
        # Expiry is exclusive: a view expiring *at* now is already gone,
        # so a sweep at exactly expires_at never races a matcher.
        view = make_view(expires_at=100.0)
        assert not view.available(100.0)
        assert view.available(99.999)

    def test_sealed_at_in_future_is_unavailable(self):
        # Replayed journals can restore a view whose seal timestamp is
        # ahead of a simulated clock; it only becomes visible at seal time.
        view = make_view(sealed_at=50.0)
        assert not view.available(49.0)
        assert view.available(50.0)

    def test_unsealed_is_unavailable_even_in_window(self):
        assert not make_view(sealed=False, sealed_at=None).available(50.0)

    def test_purged_then_sealed_stays_unavailable(self):
        # Purge wins over sealing regardless of order: a build that seals
        # after an invalidation cascade must not resurrect the view.
        view = make_view(sealed=False, sealed_at=None)
        view.purged = True
        view.sealed = True
        view.sealed_at = 10.0
        assert not view.available(50.0)

    def test_purge_in_store_survives_late_seal(self):
        store = ViewStore(ttl_seconds=100.0)
        store.begin_materialize("s1", "views/s1", ("a",), "vc1", now=0.0)
        store.purge("s1", reason="cascade")
        store.seal("s1", now=1.0, row_count=1, size_bytes=10)
        assert store.get("s1").purged
        assert [v for v in store.views() if v.available(2.0)] == []


class TestRemoval:
    def test_gc_never_removes_a_concurrent_rebuild(self):
        # A sweep reads an expired entry, a job re-begins the signature,
        # then the sweep removes by signature: the rebuild must survive
        # to be sealed.
        store = ViewStore(ttl_seconds=5.0)
        store.begin_materialize("s1", "views/s1", ("a",), "vc1", now=0.0)
        store.seal("s1", now=0.0, row_count=1, size_bytes=10)
        [expired] = store.views()  # expired at 5.0
        store.begin_materialize("s1", "views/s1", ("a",), "vc1", now=9.0)
        assert not store.remove(expired.signature)
        store.seal("s1", now=9.0, row_count=1, size_bytes=10)
        assert store.lookup("s1", now=10.0) is not None


class TestCounterMonotonicity:
    def test_expiry_and_purge_bump_disjoint_counters(self):
        store = ViewStore(ttl_seconds=10.0)
        store.begin_materialize("s1", "views/s1", ("a",), "vc1", now=0.0)
        store.seal("s1", now=1.0, row_count=1, size_bytes=10)
        store.begin_materialize("s2", "views/s2", ("a",), "vc1", now=0.0)
        store.seal("s2", now=1.0, row_count=1, size_bytes=10)
        store.purge("s2")
        assert store.remove("s2")  # GC hard-removes the purged entry
        store.evict_expired(now=20.0)
        counters = store.counters()
        assert counters["total_created"] == 2
        assert counters["total_expired"] == 1  # only s1 aged out
        assert counters["total_purged"] == 1
        assert counters["total_gc_evicted"] == 1

    @pytest.mark.stress
    def test_counters_monotonic_under_concurrent_churn(self):
        store = ViewStore(ttl_seconds=5.0)
        stop = threading.Event()
        snapshots = []
        errors = []

        from repro.common.errors import StorageError

        def builder(base):
            try:
                for i in range(150):
                    sig = f"v{base}-{i}"
                    store.begin_materialize(sig, f"views/{sig}", ("a",),
                                            "vc1", now=float(i))
                    store.seal(sig, now=float(i), row_count=1, size_bytes=8)
                    for mutate in (store.record_reuse, store.purge):
                        try:
                            mutate(sig)
                        except StorageError:
                            pass  # reaper evicted it first; fine
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reaper():
            now = 0.0
            while not stop.is_set():
                now += 7.0
                store.evict_expired(now)
                snapshots.append(store.counters())

        threads = [threading.Thread(target=builder, args=(t,))
                   for t in range(4)]
        reaper_thread = threading.Thread(target=reaper)
        reaper_thread.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        reaper_thread.join()
        store.evict_expired(now=10_000.0)
        snapshots.append(store.counters())

        assert errors == []
        keys = ("total_created", "total_reused", "total_expired",
                "total_purged", "total_gc_evicted")
        for earlier, later in zip(snapshots, snapshots[1:]):
            for key in keys:
                assert later[key] >= earlier[key], key
        final = snapshots[-1]
        assert final["total_created"] == 600
        assert final["total_reused"] <= 600
        # Every sealed view is eventually aged out; nothing is lost.
        assert final["total_expired"] == 600
        assert len(store.views()) == 0
