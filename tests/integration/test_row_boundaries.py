"""Rows exist only at boundaries, and every boundary hands out fresh ones.

"Equal signature => equal rows" holds only if nothing a caller does to the
rows it was given can reach a stored stream or view.  Each test here
mutates what one boundary returned -- a job's result, a UDO's input, the
lists ``scan_table`` and an executed ``ViewScan`` return -- and then
requires that a re-read and a second job see the original rows and the
recorded size.
"""

import pytest

from repro.backends import create_backend
from repro.backends.differential import oracle_config
from repro.catalog import Catalog, schema_of
from repro.executor import Executor, UdoRegistry
from repro.plan import PlanBuilder, normalize
from repro.plan.logical import Process, Scan, ViewScan
from repro.sql import parse
from repro.storage import DataStore
from tests.views import scan_view, spool

QUERY = "SELECT k, s FROM T WHERE v > 3"


def fresh_rows():
    return [dict(k=i % 3, v=float(i), s=f"s{i}") for i in range(12)]


ROWS = fresh_rows()     # compared against, never handed to a backend


def vandalise(rows):
    """Everything a careless caller can do to a list of row dicts."""
    for row in rows:
        for name in row:
            row[name] = "overwritten"
        row["extra"] = 1
    rows.append({"k": 99})
    del rows[0]
    return rows


def test_mutating_a_whole_job_view_hit_does_not_rewrite_the_view():
    with oracle_config("memory").open_session() as session:
        session.engine.register_table(
            schema_of("T", [("k", "int"), ("v", "float"), ("s", "str")]),
            fresh_rows())
        for offset in range(2):
            session.run(QUERY, template_id="q", now=10.0 + offset)
        session.analyze_and_publish()
        built = session.run(QUERY, template_id="q", now=100.0)
        assert built.views_built == 1
        expected = [dict(row) for row in built.rows]
        store = session.engine.store
        (spooled,) = built.run.result.spooled

        first = session.run(QUERY, template_id="q", now=101.0)
        assert isinstance(first.compiled.plan, ViewScan)
        assert first.rows == expected
        vandalise(first.rows)
        vandalise(built.rows)

        second = session.run(QUERY, template_id="q", now=102.0)
        assert isinstance(second.compiled.plan, ViewScan)
        assert second.rows == expected
        assert store.get(spooled.view_path) == expected
        assert store.read(spooled.view_path).size() == spooled.size_bytes


@pytest.fixture
def stored():
    store = DataStore()
    store.put("guid", fresh_rows())
    store.put("views/v", fresh_rows())
    udos = UdoRegistry()
    udos.register("Vandal", vandalise)
    return store, Executor(store, udos)


@pytest.mark.parametrize("source", [
    Scan("T", ("k", "v", "s"), "guid"),
    ViewScan("sig", "views/v", ("k", "v", "s")),
], ids=["scan", "view-scan"])
def test_a_mutating_udo_rewrites_nothing_stored(stored, source):
    store, executor = stored
    sizes = store.read("guid").size(), store.read("views/v").size()
    out = executor.execute(Process(source, "Vandal")).rows
    assert out[-1]["k"] == 99                   # the UDO did run
    assert store.get("guid") == store.get("views/v") == ROWS
    assert (store.read("guid").size(), store.read("views/v").size()) == sizes
    assert executor.execute(source).rows == ROWS


def test_the_rows_of_a_view_scan_are_not_the_view(stored):
    store, executor = stored
    plan = ViewScan("sig", "views/v", ("k", "v", "s"))
    executor.execute(plan).rows[0]["k"] = 99
    assert store.get("views/v") == ROWS
    assert executor.execute(plan).rows == ROWS


@pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
def test_scanned_streams_and_views_are_copies(backend_name):
    catalog = Catalog()
    schema = schema_of("T", [("k", "int"), ("v", "float"), ("s", "str")])
    version = catalog.register(schema, len(ROWS))
    with create_backend(backend_name) as backend:
        backend.load_table(schema, version.guid, fresh_rows())
        builder = PlanBuilder(catalog)
        plan = normalize(builder.build(parse("SELECT k, v, s FROM T")))
        built = spool(backend, plan, "views/all")
        assert built.row_count == len(ROWS)

        vandalise(backend.scan_table(version.guid))
        vandalise(scan_view(backend, "views/all", plan.schema))

        assert backend.scan_table(version.guid) == ROWS
        assert scan_view(backend, "views/all", plan.schema) == ROWS
        assert backend.execute(plan).rows == ROWS
        again = spool(backend, plan, "views/again")
        assert (again.row_count, again.size_bytes) == (
            built.row_count, built.size_bytes)
