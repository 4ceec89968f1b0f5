"""The byte accounting is exact, however few columns are walked.

The executor measures a column list at most once: a column that passes
through an operator (or is renamed) keeps its recorded size, a gather of a
fixed-width column is ``width * n``, an operator that dropped nothing
hands on its child's batch, and the store charges reads the sizes it
recorded at ``put``.  These tests hold every shortcut to the plain
row-by-row walk: with ``capture_rows=True`` every node's ``bytes_out``
must equal the reference size of the rows it produced, and
``DataStore.bytes_read`` must grow by the reference size of every blob a
job read.
"""

import enum

import pytest

from repro.backends.differential import oracle_config
from repro.catalog import schema_of
from repro.common.clock import SECONDS_PER_DAY
from repro.engine import ScopeEngine
from repro.plan.logical import Scan, Spool, ViewScan
from repro.storage.batch import Batch, measure
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
    rows = [{"v": value, "w": None}, {"v": value, "w": None}]
    assert reference_bytes(rows) == 2 * width + 16
    assert Batch.from_rows(rows).size() == 2 * width + 16
    # Alone in its column, and beside NULLs, numbers and strings.
    assert measure([value, value])[0] == 2 * width
    assert measure([None, value, 1, 2.5, "xy"])[0] == width + 26


#: Every kind the width rule tells apart, in one column.
MIXED = [True, 0, Flag(1), Colour.RED, 1.5, float("nan"), None, "", "abc",
         Tag(""), Tag("four"), [1, 2, 3], {"k": "v"}, (), b"bytes"]


def test_one_column_mixing_every_kind_is_measured_by_the_rule():
    rows = [{"v": value} for value in MIXED]
    assert measure(MIXED) == (reference_bytes(rows), 0)
    assert Batch.from_rows(rows).size() == reference_bytes(rows)


@pytest.mark.parametrize("values, width", [
    ([1, 2.5, None], 8), ([None, None], 8), ([True, False], 1),
    ([True, None], 0), ([1, "a"], 0), (["a", "bc"], 0), ([Flag(1)], 0),
    # Plain strings of one length L > 0 share width L; a length sum that
    # only looks uniform, empty strings, a NULL or a subclass do not.
    (["a", "b"], 1), (["d0001", "d0002", "d0003"], 5), (["ab", "c", "abc"], 0),
    (["", ""], 0), (["ab", None], 0), ([Tag("ab")], 0),
])
def test_a_width_is_claimed_only_if_shared(values, width):
    """A claimed width is what lets a gather skip the walk."""
    size, claimed = measure(values)
    assert claimed == width
    assert size == reference_bytes([{"v": value} for value in values])
    taken = Batch({"v": values}, len(values)).take([0, 0, len(values) - 1])
    assert taken.size() == reference_bytes(taken.rows())
    extended = Batch({"v": values}, len(values)).take(
        [0, len(values)], null=True)
    assert extended.size() == reference_bytes(extended.rows())


def test_null_extension_drops_a_claimed_string_width():
    batch = Batch({"v": ["ab", "cd"]}, 2)
    assert batch.size() == 4 and batch.measured["v"] == (4, 2)
    assert batch.take([1, 0, 1]).measured["v"] == (6, 2)
    extended = batch.take([0, 2, 2], null=True)
    assert "v" not in extended.measured
    assert extended.size() == reference_bytes(extended.rows()) == 2 + 16
    assert extended.measured["v"][1] == 0


def test_empty_inputs_measure_zero():
    assert measure([]) == (0, 8)
    assert Batch.from_rows([]).size() == Batch.from_rows([{}, {}]).size() == 0


# --------------------------------------------------------------------- #
# whole jobs


def _session():
    session = oracle_config("memory").open_session()
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
            rows = result.node_batches[id(node)].rows()
            assert stats.rows_out == len(rows)
            assert stats.bytes_out == reference_bytes(rows), (
                node.op_label, node.describe())
            self.operators.add(type(node))
            if isinstance(node, Scan):
                read += reference_bytes(self.store.get(node.stream_guid))
            elif isinstance(node, ViewScan):
                read += reference_bytes(self.store.get(node.view_path))
            elif isinstance(node, Spool):
                assert self.store.read(node.view_path).size() == stats.bytes_out
        assert charged == read
        for spooled in result.spooled:
            assert spooled.size_bytes == reference_bytes(
                self.store.get(spooled.view_path))
        return job


#: One query per way a size is come by: inherited (sort, renames and
#: pass-throughs, selections that kept every row), summed (union, also of
#: an input re-keyed to the output schema), ``width * n`` (gathers of
#: fixed-width columns in selections that dropped rows and in joins,
#: NULL-extension), or walked (computed projections, gathered strings,
#: aggregates, UDO output).
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
    "SELECT T.k, b, name FROM T LEFT JOIN U ON T.k = U.k AND v > 1",
    "SELECT T.k, v * 2 AS w, b FROM T WHERE b = TRUE OR s IS NULL",
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
            result.node_batches[id(node)].rows()), (
                node.op_label, node.describe())


def test_every_node_of_the_tpcds_suite_is_measured_exactly():
    with _session() as session:
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
    with _session() as session:
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


def test_a_column_is_measured_at_most_once(monkeypatch):
    import repro.storage.batch as batch_module

    with _session() as session:
        install_tpcds(session.engine, scale_rows=300, seed=42)
        walked = []

        def walk(values):
            walked.append(values)   # held, so no two lists share an id
            return measure(values)

        monkeypatch.setattr(batch_module, "measure", walk)
        for round_no in (1, 2):
            for offset, (name, sql) in enumerate(TPCDS_QUERIES):
                del walked[:]
                result = session.run(sql, template_id=name,
                                     now=1000.0 * round_no + offset).run.result
                ids = {id(values) for values in walked}
                assert len(ids) == len(walked)
                produced = {id(values): node
                            for node, _ in result.node_stats
                            for values in result.node_batches[
                                id(node)].columns.values()}
                # Only columns this job built are walked -- and a stored
                # stream or view is not one: it was measured when written.
                assert ids <= set(produced)
                assert not any(isinstance(produced[i], (Scan, ViewScan))
                               for i in ids)
            if round_no == 1:
                session.analyze_and_publish()
        assert session.views_reused > 0


def test_a_second_read_of_a_blob_measures_nothing(monkeypatch):
    import repro.storage.batch as batch_module
    from repro.storage import DataStore

    store = DataStore()
    store.put("k", [{"a": 1, "s": "xy", "b": True}] * 3)
    monkeypatch.setattr(batch_module, "measure",
                        lambda values: pytest.fail("measured again"))
    assert store.read("k").size() == 8 * 3 + 2 * 3 + 3
    pruned = store.read_columns("k", ("s", "b", "absent"))
    assert pruned.size() == 2 * 3 + 3 + 8 * 3
    # Fixed widths survive a gather; only the strings would be walked.
    assert store.read_columns("k", ("a", "b")).take([2, 0]).size() == 18
