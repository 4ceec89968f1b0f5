"""The byte accounting is exact, however few times the rows are walked.

The executor measures a row list once and lets operators that pass their
child's rows on (spools, sorts, filters that kept everything) inherit the
number; the store charges reads the size it recorded at ``put``.  These
tests hold every shortcut to the plain walk: with ``capture_rows=True``
every node's ``bytes_out`` must equal the reference size of the rows it
produced, and ``DataStore.bytes_read`` must grow by the reference size of
every blob a job read.
"""

import enum

import pytest

from repro.backends.differential import _session as differential_session
from repro.catalog import schema_of
from repro.common.clock import SECONDS_PER_DAY
from repro.engine import ScopeEngine
from repro.plan.logical import Scan, Spool, ViewScan
from repro.storage.store import _estimate_bytes
from repro.workload.generator import generate_workload
from repro.workload.tpcds import TPCDS_QUERIES, install_tpcds


def reference_bytes(rows):
    """The width rule as first written -- an ``isinstance`` chain per
    value -- kept here as the oracle for the type-dispatching walk."""
    total = 0
    for row in rows:
        for value in row.values():
            if isinstance(value, bool):
                total += 1
            elif isinstance(value, str):
                total += max(1, len(value))
            else:
                total += 8
    return total


class Colour(enum.IntEnum):
    RED = 1


class Tag(str):
    pass


class Flag(int):
    pass


@pytest.mark.parametrize("value, width", [
    (True, 1), (False, 1), (0, 8), (1, 8), (Flag(1), 8), (Colour.RED, 8),
    (1.5, 8), (float("nan"), 8), (None, 8),
    ("", 1), ("a", 1), ("abc", 3), (Tag(""), 1), (Tag("four"), 4),
    ([1, 2, 3], 8), ({"k": "v"}, 8), ((), 8), (b"bytes", 8),
])
def test_width_rule_matches_the_reference_walk(value, width):
    rows = [{"v": value}, {"v": value, "w": None}]
    assert reference_bytes(rows) == 2 * width + 8
    assert _estimate_bytes(rows) == 2 * width + 8


def test_empty_inputs_measure_zero():
    assert _estimate_bytes([]) == _estimate_bytes([{}, {}]) == 0


# --------------------------------------------------------------------- #
# whole jobs


def _session(clusters):
    session = differential_session("memory", clusters)
    session.engine.executor.capture_rows = True
    return session


class Checked:
    """Runs jobs and holds each to the reference walk."""

    def __init__(self, session):
        self.session = session
        self.store = session.engine.store
        self.operators = set()

    def run(self, sql, **kwargs):
        before = self.store.bytes_read
        job = self.session.run(sql, **kwargs)
        charged = self.store.bytes_read - before
        result = job.run.result
        read = 0
        for node, stats in result.node_stats:
            rows = result.node_rows[id(node)]
            assert stats.rows_out == len(rows)
            assert stats.bytes_out == reference_bytes(rows), (
                node.op_label, node.describe())
            self.operators.add(type(node))
            if isinstance(node, Scan):
                read += reference_bytes(self.store.get(node.stream_guid))
            elif isinstance(node, ViewScan):
                read += reference_bytes(self.store.get(node.view_path))
            elif isinstance(node, Spool):
                assert self.store.size_of(node.view_path) == stats.bytes_out
        assert charged == read
        for spooled in result.spooled:
            assert spooled.size_bytes == reference_bytes(
                self.store.get(spooled.view_path))
        return job


#: One query per way a size is come by: inherited (sort, spool-free
#: pass-throughs, selections that kept every row), summed (union), or
#: walked (selections that dropped rows, projections, joins, aggregates,
#: UDO output, a union input re-keyed to the output schema).
OPERATOR_QUERIES = [
    "SELECT k, s FROM T WHERE k >= 0",
    "SELECT k, s FROM T WHERE k > 1",
    "SELECT k, s FROM T WHERE k > 99",
    "SELECT k, s FROM T ORDER BY s DESC, k",
    "SELECT k FROM T ORDER BY k LIMIT 2",
    "SELECT k FROM T LIMIT 50",
    "SELECT DISTINCT k FROM T",
    "SELECT DISTINCT k, v FROM T",
    "SELECT s FROM T UNION ALL SELECT s FROM T",
    "SELECT s AS n FROM T UNION ALL SELECT name AS n FROM U",
    "SELECT s FROM T UNION ALL SELECT name FROM U",
    "SELECT s AS n FROM T UNION SELECT name AS n FROM U",
    "SELECT k, COUNT(*) AS c, SUM(v) AS total FROM T GROUP BY k",
    "SELECT T.k, name, v FROM T JOIN U ON T.k = U.k WHERE v > 1",
    "SELECT T.k, name FROM T LEFT JOIN U ON T.k = U.k",
    "SELECT s FROM T PROCESS USING Scrub",
    "SELECT s FROM T PROCESS USING Unknown",
]


@pytest.fixture(scope="module")
def small_engine():
    engine = ScopeEngine()
    engine.register_table(
        schema_of("T", [("k", "int"), ("v", "float"), ("s", "str"),
                        ("b", "bool")]),
        [dict(k=i % 4, v=i / 2, s=["", " a", "bcd ", None][i % 4],
              b=bool(i % 2)) for i in range(12)])
    engine.register_table(
        schema_of("U", [("k", "int"), ("name", "str")]),
        [dict(k=0, name="zero"), dict(k=1, name=""), dict(k=7, name=None)])
    engine.executor.capture_rows = True
    return engine


@pytest.mark.parametrize("sql", OPERATOR_QUERIES)
def test_every_operator_reports_the_reference_size(small_engine, sql):
    result = small_engine.run_sql(sql, reuse_enabled=False).result
    for node, stats in result.node_stats:
        assert stats.bytes_out == reference_bytes(
            result.node_rows[id(node)]), (node.op_label, node.describe())


def test_every_node_of_the_tpcds_suite_is_measured_exactly():
    with _session(["default"]) as session:
        install_tpcds(session.engine, scale_rows=300, seed=42)
        checked = Checked(session)
        for round_no in (1, 2):
            for offset, (name, sql) in enumerate(TPCDS_QUERIES):
                checked.run(sql, template_id=name,
                            now=1000.0 * round_no + offset)
            if round_no == 1:
                session.analyze_and_publish()
        assert session.views_reused > 0
        assert {Spool, ViewScan} <= checked.operators


def test_every_node_of_a_cooking_day_with_reuse_is_measured_exactly():
    workload = generate_workload(
        name="bytes", seed=7, virtual_clusters=2, templates_per_vc=4,
        fact_rows_per_day=240, adhoc_per_day=2)
    with _session(list(workload.virtual_clusters)) as session:
        workload.install(session.engine, at=0.0)
        checked = Checked(session)
        for day in range(2):
            if day > 0:
                workload.cook(session.engine, day)
                session.evict_expired(now=day * SECONDS_PER_DAY)
            for job in workload.jobs_for_day(day):
                checked.run(job.template.sql, params=job.params,
                            virtual_cluster=job.virtual_cluster,
                            template_id=job.template.template_id,
                            pipeline_id=job.template.pipeline_id,
                            now=job.submit_time)
            session.analyze_and_publish()
        assert session.views_reused > 0
        assert {Spool, ViewScan} <= checked.operators


def test_a_row_list_is_walked_once_and_never_under_the_store_lock(monkeypatch):
    import repro.executor.executor as executor_module
    import repro.storage.store as store_module

    with _session(["default"]) as session:
        install_tpcds(session.engine, scale_rows=300, seed=42)
        store = session.engine.store
        walked = []

        def walk(rows):
            assert not store._mutex.locked()
            walked.append(rows)     # held, so no two lists share an id
            return _estimate_bytes(rows)

        monkeypatch.setattr(executor_module, "_estimate_bytes", walk)
        monkeypatch.setattr(store_module, "_estimate_bytes", walk)
        for round_no in (1, 2):
            for offset, (name, sql) in enumerate(TPCDS_QUERIES):
                del walked[:]
                result = session.run(sql, template_id=name,
                                     now=1000.0 * round_no + offset).run.result
                ids = {id(rows) for rows in walked}
                assert len(ids) == len(walked) <= len(result.node_stats)
                if round_no == 2:
                    # Round one read the same streams, so every scan's
                    # size is remembered by now; a view's always is.  (A
                    # spool's list is its child's: covered just above.)
                    assert not any(
                        id(result.node_rows[id(node)]) in ids
                        for node, _ in result.node_stats
                        if isinstance(node, (Scan, ViewScan)))
            if round_no == 1:
                session.analyze_and_publish()
