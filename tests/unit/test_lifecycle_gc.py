"""Unit tests: GC scoring and the manager's sweep."""

import pytest

from repro.common.clock import SECONDS_PER_DAY
from repro.common.errors import StorageError
from repro.engine import ScopeEngine
from repro.engine.engine import EngineConfig
from repro.lifecycle import LifecycleConfig, LifecycleManager, gc_score
from repro.storage.views import MaterializedView


def view(signature="s", reuse=0, size=100, age_days=0.0, now=0.0):
    created = now - age_days * SECONDS_PER_DAY
    return MaterializedView(
        signature=signature, path=f"views/{signature}", schema=("a",),
        virtual_cluster="vc1", created_at=created,
        expires_at=created + 7 * SECONDS_PER_DAY,
        row_count=1, size_bytes=size, sealed=True, sealed_at=created,
        reuse_count=reuse)


class TestGcScore:
    def test_reuse_raises_score(self):
        now = 10.0
        assert gc_score(view(reuse=5, now=now), now) \
            > gc_score(view(reuse=0, now=now), now)

    def test_size_lowers_score(self):
        now = 10.0
        assert gc_score(view(size=10, now=now), now) \
            > gc_score(view(size=10_000, now=now), now)

    def test_age_lowers_score(self):
        now = 5 * SECONDS_PER_DAY
        assert gc_score(view(age_days=0.5, now=now), now) \
            > gc_score(view(age_days=5.0, now=now), now)

    def test_fresh_zero_reuse_view_is_finite(self):
        assert gc_score(view(size=0), 0.0) == 1.0


@pytest.fixture
def managed_engine():
    engine = ScopeEngine(config=EngineConfig(view_ttl_seconds=100.0))
    manager = LifecycleManager(engine, LifecycleConfig())
    yield engine, manager
    manager.close()


def seal(engine, signature, now, size=100, rows=1):
    engine.view_store.begin_materialize(
        signature, f"views/{signature}", ("a",), "vc1", now=now)
    engine.view_store.seal(signature, now=now, row_count=rows,
                           size_bytes=size)
    engine.store.put(f"views/{signature}", [{"a": 1}] * rows)


class TestManagerSweep:
    def test_sweep_runs_at_the_callers_now(self, managed_engine):
        engine, manager = managed_engine
        seal(engine, "s1", now=0.0)
        result = manager.sweep(now=99.0)  # ttl is 100: still live
        assert (result.at, result.total_collected) == (99.0, 0)
        assert manager.sweep(now=100.0).expired == 1

    def test_every_sweep_is_counted(self, managed_engine):
        engine, manager = managed_engine
        assert manager.stats()["gc_sweeps"] == 0
        manager.sweep(now=1.0)
        manager.sweep(now=2.0)
        assert manager.stats()["gc_sweeps"] == 2

    def test_expired_views_are_collected_with_blobs(self, managed_engine):
        engine, manager = managed_engine
        seal(engine, "s1", now=0.0)
        result = manager.sweep(now=150.0)
        assert result.expired == 1
        assert result.removed == 0  # evict_expired already dropped it
        assert engine.view_store.get("s1") is None
        with pytest.raises(StorageError):
            engine.store.read("views/s1")

    def test_purged_views_are_hard_removed(self, managed_engine):
        engine, manager = managed_engine
        seal(engine, "s1", now=0.0)
        engine.view_store.purge("s1")
        result = manager.sweep(now=10.0)
        assert result.removed == 1
        assert engine.view_store.get("s1") is None
        with pytest.raises(StorageError):
            engine.store.read("views/s1")

    def test_pinned_view_survives_sweep(self, managed_engine):
        engine, manager = managed_engine
        seal(engine, "s1", now=0.0)
        # The reader pinned before the purge landed; a purged view is no
        # longer pinnable (pin() refuses it), but an already-held pin
        # keeps the record until the reader finishes.
        assert engine.view_store.pin("s1")
        engine.view_store.purge("s1")
        assert not engine.view_store.pin("s1")  # new readers are refused
        result = manager.sweep(now=10.0)
        assert result.removed == 0
        assert result.pinned_skipped == 1
        assert engine.view_store.get("s1") is not None
        engine.view_store.unpin("s1")
        assert manager.sweep(now=11.0).removed == 1

    def test_pinned_expired_view_survives_until_unpin(self, managed_engine):
        engine, manager = managed_engine
        seal(engine, "s1", now=0.0)
        engine.view_store.pin("s1")
        result = manager.sweep(now=150.0)  # past expiry
        assert result.expired == 0
        assert engine.view_store.get("s1") is not None
        engine.view_store.unpin("s1")
        assert manager.sweep(now=151.0).total_collected == 1

    def test_sweep_reports_reclaimed_bytes(self, managed_engine):
        engine, manager = managed_engine
        seal(engine, "s1", now=0.0, size=500)
        result = manager.sweep(now=50.0)
        assert result.reclaimed_bytes == 0  # still live
        seal(engine, "s2", now=60.0, size=300)
        result = manager.sweep(now=200.0)  # s1 and s2 both expired
        assert result.expired == 2
        assert result.reclaimed_bytes == 800

    def test_sweep_reports_purged_bytes(self, managed_engine):
        engine, manager = managed_engine
        seal(engine, "s1", now=0.0, size=500)
        seal(engine, "s2", now=0.0, size=300)
        engine.view_store.purge("s1")
        result = manager.sweep(now=10.0)
        assert (result.removed, result.reclaimed_bytes) == (1, 500)


class TestBudgetEviction:
    @pytest.fixture
    def budgeted(self):
        engine = ScopeEngine(config=EngineConfig(view_ttl_seconds=1000.0))
        manager = LifecycleManager(
            engine, LifecycleConfig(storage_budget_bytes=250))
        yield engine, manager
        manager.close()

    def test_worst_scoring_views_evicted_first(self, budgeted):
        engine, manager = budgeted
        seal(engine, "cold", now=0.0, size=100)
        seal(engine, "hot", now=0.0, size=100)
        seal(engine, "warm", now=0.0, size=100)
        for _ in range(5):
            engine.view_store.record_reuse("hot")
        engine.view_store.record_reuse("warm")
        result = manager.sweep(now=10.0)
        assert result.budget_evicted == 1
        assert result.evicted_signatures == ["cold"]
        assert result.reclaimed_bytes == 100
        assert engine.view_store.get("hot") is not None
        assert engine.view_store.storage_in_use(10.0) <= 250

    def test_under_budget_evicts_nothing(self, budgeted):
        engine, manager = budgeted
        seal(engine, "s1", now=0.0, size=100)
        assert manager.sweep(now=1.0).budget_evicted == 0

    def test_pinned_views_skip_budget_eviction(self, budgeted):
        engine, manager = budgeted
        seal(engine, "a", now=0.0, size=200)
        seal(engine, "b", now=0.0, size=200)
        engine.view_store.pin("a")
        engine.view_store.pin("b")
        result = manager.sweep(now=1.0)
        assert result.budget_evicted == 0
        assert engine.view_store.storage_in_use(1.0) == 400  # over, but safe
        engine.view_store.unpin("a")
        engine.view_store.unpin("b")
        assert manager.sweep(now=2.0).budget_evicted >= 1
