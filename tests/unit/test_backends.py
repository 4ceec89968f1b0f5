"""The execution-backend interface: registry and the backend contract
exercised directly (no engine on top).
"""

import sqlite3

import pytest

from repro.backends import (
    ExecutionBackend,
    InMemoryBackend,
    SqliteBackend,
    backend_names,
    create_backend,
)
from repro.catalog import Catalog, schema_of
from repro.common.errors import (
    ConfigError,
    StorageError,
    TransientBackendError,
)
from repro.plan import PlanBuilder, normalize
from repro.plan.logical import Scan
from repro.sql import parse
from tests.views import scan_view, spool


class TestRegistry:
    def test_builtin_names(self):
        assert {"memory", "sqlite"} <= set(backend_names())

    def test_create_by_name(self):
        with create_backend("memory") as backend:
            assert isinstance(backend, InMemoryBackend)
        with create_backend("sqlite") as backend:
            assert isinstance(backend, SqliteBackend)

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigError, match="memory"):
            create_backend("oracle")

    def test_an_option_the_backend_does_not_take_is_refused(self):
        with pytest.raises(ConfigError, match="sqlite_path"):
            create_backend("memory", sqlite_path="views.db")
        with pytest.raises(ConfigError, match="udos"):
            create_backend("sqlite", udos=None)

    def test_abstract_base_cannot_instantiate(self):
        with pytest.raises(TypeError):
            ExecutionBackend()


@pytest.fixture(params=["memory", "sqlite"])
def loaded(request):
    """Either backend with one table loaded, plus a plan builder."""
    backend = create_backend(request.param)
    catalog = Catalog()
    schema = schema_of("T", [("k", "int"), ("v", "float")])
    version = catalog.register(schema, 3)
    backend.load_table(schema, version.guid, [
        dict(k=1, v=1.5), dict(k=2, v=2.5), dict(k=2, v=4.0)])
    builder = PlanBuilder(catalog)
    yield backend, version.guid, builder
    backend.close()


def plan_for(builder, sql):
    builder.params = {}
    return normalize(builder.build(parse(sql)))


class TestBackendContract:
    def test_scan_table_round_trip(self, loaded):
        backend, guid, _ = loaded
        assert backend.scan_table(guid) == [
            dict(k=1, v=1.5), dict(k=2, v=2.5), dict(k=2, v=4.0)]

    def test_scan_missing_table_raises(self, loaded):
        backend, _, _ = loaded
        with pytest.raises(StorageError):
            backend.scan_table("no-such-guid")

    def test_drop_table_then_scan_raises(self, loaded):
        backend, guid, _ = loaded
        backend.drop_table(guid)
        with pytest.raises(StorageError):
            backend.scan_table(guid)
        backend.drop_table(guid)  # idempotent

    def test_execute_returns_rows_and_stats(self, loaded):
        backend, _, builder = loaded
        result = backend.execute(plan_for(
            builder, "SELECT k, SUM(v) AS s FROM T GROUP BY k"))
        assert sorted(map(repr, result.rows)) == sorted(map(repr, [
            dict(k=1, s=1.5), dict(k=2, s=6.5)]))
        assert result.node_stats
        for _, stats in result.node_stats:
            assert stats.rows_out >= 0 and stats.bytes_out >= 0

    def test_materialize_scan_drop_view(self, loaded):
        backend, _, builder = loaded
        plan = plan_for(builder, "SELECT k FROM T WHERE v > 2")
        spooled = spool(backend, plan, "views/test-view")
        assert spooled.row_count == 2 and spooled.size_bytes > 0
        assert sorted(r["k"] for r in scan_view(
            backend, "views/test-view", ("k",))) == [2, 2]
        backend.drop_view("views/test-view")
        with pytest.raises(StorageError):
            scan_view(backend, "views/test-view", ("k",))

    def test_drop_absent_view_is_noop(self, loaded):
        backend, _, _ = loaded
        backend.drop_view("views/never-existed")

    def test_materialized_size_matches_both_backends(self):
        # The (rows, bytes) a view seals with feeds catalog_digest();
        # both backends must account identically.
        catalog = Catalog()
        schema = schema_of("T", [("k", "int"), ("s", "str")])
        version = catalog.register(schema, 2)
        rows = [dict(k=1, s="abc"), dict(k=None, s=None)]
        sizes = {}
        for name in ("memory", "sqlite"):
            with create_backend(name) as backend:
                backend.load_table(schema, version.guid, rows)
                builder = PlanBuilder(catalog)
                spooled = spool(backend, plan_for(
                    builder, "SELECT k, s FROM T"), "views/v")
                sizes[name] = spooled.row_count, spooled.size_bytes
        assert sizes["memory"] == sizes["sqlite"]


class _Flaky:
    """A backend's connection that answers "database is locked" to the
    next statement starting with ``prefix``, once."""

    def __init__(self, conn, prefix):
        self._conn, self._prefix, self.fired = conn, prefix, False

    def _check(self, sql):
        if not self.fired and sql.startswith(self._prefix):
            self.fired = True
            raise sqlite3.OperationalError("database is locked")

    def execute(self, sql, *args):
        self._check(sql)
        return self._conn.execute(sql, *args)

    def executemany(self, sql, *args):
        self._check(sql)
        return self._conn.executemany(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _stored_names(path):
    """What a file holds: physical tables and manifest keys."""
    conn = sqlite3.connect(path)
    try:
        return ({name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name <> 'repro_catalog'")},
            {key for (key,) in conn.execute(
                "SELECT key FROM repro_catalog")})
    finally:
        conn.close()


class TestSqliteTransactions:
    """Every mutation is one ``_transaction``: transient driver errors
    are translated on all of them, and what the process believes follows
    what the file holds."""

    SCHEMA = schema_of("T", [("k", "int"), ("v", "float")])
    ROWS = [dict(k=1, v=1.5), dict(k=2, v=2.5), dict(k=2, v=4.0)]

    @staticmethod
    def read(backend, kind, key):
        if kind == "view":
            return scan_view(backend, key, ("k", "v"))
        return backend.scan_table(key)

    def stored(self, path):
        backend = SqliteBackend(path)
        backend.load_table(self.SCHEMA, "g-t", self.ROWS)
        spool(backend, Scan("T", ("k", "v"), stream_guid="g-t"), "views/v1")
        return backend

    @pytest.mark.parametrize("kind, key", [("view", "views/v1"),
                                           ("table", "g-t")])
    def test_a_drop_that_fails_at_begin_is_still_there_to_retry(
            self, tmp_path, kind, key):
        """It used to forget the entry first: the retry (and every later
        GC sweep) was then a no-op, the table and its manifest row stayed
        in the file, and a restart resurrected the purged view."""
        path = str(tmp_path / "drop.db")
        backend = self.stored(path)
        drop = getattr(backend, f"drop_{kind}")
        backend._conn = _Flaky(backend._conn, "BEGIN")
        with pytest.raises(TransientBackendError, match="locked"):
            drop(key)
        assert len(self.read(backend, kind, key)) == 3
        drop(key)                       # the engine's retry
        with pytest.raises(StorageError):
            self.read(backend, kind, key)
        backend.close()
        tables, keys = _stored_names(path)
        assert key not in keys and len(tables) == 1
        with SqliteBackend(path) as reopened:
            with pytest.raises(StorageError):
                self.read(reopened, kind, key)

    def test_a_failed_load_is_transient_and_leaves_nothing(self, tmp_path):
        path = str(tmp_path / "load.db")
        backend = self.stored(path)
        backend._conn = _Flaky(backend._conn, "INSERT")
        with pytest.raises(TransientBackendError, match="locked"):
            backend.load_table(self.SCHEMA, "g-new", self.ROWS)
        with pytest.raises(StorageError):
            backend.scan_table("g-new")
        backend.load_table(self.SCHEMA, "g-new", self.ROWS[:1])   # retried
        assert backend.scan_table("g-new") == self.ROWS[:1]
        backend.drop_table("g-new")
        backend.close()
        tables, keys = _stored_names(path)
        assert keys == {"g-t", "views/v1"} and len(tables) == 2
