"""Regression: lifecycle purge and GC must drop views on the execution
backend, not just in the in-memory blob store.

On the SQLite backend a materialized view is a real database table; if
eviction only forgets the catalog entry, the table leaks storage that
the budget accounting no longer sees.  These tests build views through
a full feedback-loop round on a ``Session(backend="sqlite")`` and then
assert the backing tables are gone after a GDPR purge cascade and after
a GC sweep.
"""

import pytest

from repro.api import Session
from repro.catalog import schema_of
from repro.common.errors import StorageError
from repro.core import MultiLevelControls
from repro.lifecycle import LifecycleConfig
from repro.selection import SelectionPolicy
from tests.views import scan_view

Q1 = ("SELECT UserId, SUM(Value) AS total FROM Events JOIN Users "
      "WHERE Segment = 'Asia' AND Day = @run GROUP BY UserId")
Q2 = ("SELECT Segment, COUNT(*) AS n FROM Events JOIN Users "
      "WHERE Segment = 'Asia' AND Day = @run GROUP BY Segment")
PARAMS = {"run": "d0"}


@pytest.fixture(params=["memory", "sqlite"])
def session(request, tmp_path):
    controls = MultiLevelControls()
    controls.enable_vc("vc1")
    session = Session(
        backend=request.param,
        controls=controls,
        policy=SelectionPolicy(storage_budget_bytes=10_000_000,
                               min_reuses_per_epoch=0.0),
        selection_algorithm="bigsubs",
        lifecycle=LifecycleConfig(journal_dir=str(tmp_path / "journal")),
    )
    session.register_table(
        schema_of("Events", [("UserId", "int"), ("Day", "str"),
                             ("Value", "float")]),
        [dict(UserId=i % 7, Day="d0", Value=float(i)) for i in range(80)])
    session.register_table(
        schema_of("Users", [("UserId", "int"), ("Segment", "str")]),
        [dict(UserId=i, Segment="Asia" if i % 2 else "Europe")
         for i in range(7)])
    yield session
    session.close()


def build_views(session):
    now = 0.0
    for i, sql in enumerate((Q1, Q2), start=1):
        session.run(sql, params=PARAMS, virtual_cluster="vc1",
                    template_id=f"t{i}", now=now)
        now += 1.0
    session.analyze_and_publish()
    now += 10.0
    for i, sql in enumerate((Q1, Q2), start=1):
        session.run(sql, params=PARAMS, virtual_cluster="vc1",
                    template_id=f"t{i}", now=now)
        now += 1.0
    return now


def view_is_stored(session, view):
    """The backend still answers a ``ViewScan`` of ``view``."""
    try:
        scan_view(session.backend, view.path, view.schema)
        return True
    except StorageError:
        return False


def test_gdpr_purge_drops_backend_views(session):
    build_views(session)
    views = session.engine.view_store.views()
    assert views, "feedback loop should have materialized views"
    assert all(view_is_stored(session, v) for v in views)

    purged = session.lifecycle.forget_stream("Events", at=20.0)
    assert purged == len(views)
    # The cascade marks the views purged; the next sweep collects them
    # and must reach the backend: every dropped view's backing table
    # (SQLite) or blob (memory) is gone, not just its catalog entry.
    session.gc_sweep(now=21.0)
    assert not any(view_is_stored(session, v) for v in views)


def test_gc_sweep_drops_backend_views(session):
    build_views(session)
    views = session.engine.view_store.views()
    assert views
    for view in session.engine.view_store.views():
        session.engine.view_store.purge(view.signature, reason="test")
    session.gc_sweep(now=30.0)
    assert not any(view_is_stored(session, v) for v in views)


def test_expiry_sweep_drops_backend_views(session):
    build_views(session)
    ttl = session.engine.config.view_ttl_seconds
    views = session.engine.view_store.views()
    assert views
    session.gc_sweep(now=ttl + 100.0)
    assert not any(view_is_stored(session, v) for v in views)


def test_evict_expired_drops_backend_views(session):
    """The history's ``evict`` step at midnight used to forget expired
    views in the catalog only: their rows stayed on the backend, and the
    next GC sweep no longer saw them to collect."""
    build_views(session)
    ttl = session.engine.config.view_ttl_seconds
    views = session.engine.view_store.views()
    assert views
    assert session.evict_expired(ttl + 100.0) == len(views)
    assert session.engine.view_store.views() == []
    session.gc_sweep(now=ttl + 200.0)
    assert not any(view_is_stored(session, v) for v in views)


def test_forget_stream_moves_the_rows_with_the_guid(session):
    """``forget_stream`` used to roll the GUID through the catalog alone,
    so every later job scanning the dataset failed on a missing stream
    (ROADMAP 4(d)).  The rows now follow the GUID: a job whose plan comes
    from the template cache and one compiled from scratch both still run,
    and the purge count is what it always was."""
    def rows_of(sql, now):
        rows = session.run(sql, params=PARAMS, virtual_cluster="vc1",
                           now=now).rows
        return sorted(repr(sorted(row.items())) for row in rows)

    count_all = "SELECT COUNT(*) AS n FROM Events"
    build_views(session)
    before = rows_of(Q1, 15.0), rows_of(count_all, 16.0)
    catalog, cache = session.engine.catalog, session.engine.plan_cache
    dependents = session.lifecycle.lineage.views_reading_dataset("Events")
    old_guid = catalog.current_guid("Events")

    purged = session.lifecycle.forget_stream("Events", at=20.0)

    assert purged == len(dependents) > 0
    assert catalog.current_guid("Events") != old_guid
    assert catalog.current_version("Events").reason == "gdpr-forget"
    hits = cache.hits
    assert rows_of(Q1, 21.0) == before[0]           # re-bound skeleton
    assert cache.hits == hits + 1
    session.engine.plan_cache = type(cache)(session.engine)
    assert rows_of(count_all, 22.0) == before[1]    # compiled from scratch
    assert session.engine.plan_cache.misses == 1
