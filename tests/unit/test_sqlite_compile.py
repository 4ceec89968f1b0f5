"""Plan -> SQL compiler units: every physical operator, NULL and type
edges, checked against the in-memory interpreter on the same data.

The SQLite backend is only correct if its SQL lowering reproduces the
interpreter's Python semantics *including* the awkward corners: three-
valued comparisons collapsed to False, Python truthiness in predicates,
``None == None`` hash-join keys, type-affinity-free storage, and the
shared byte-accounting rule.  Each test here runs one operator shape on
both engines and requires identical canonical rows; the stats tests
additionally require identical per-operator (rows_in, rows_out,
bytes_out) triples, since selection decisions hang off those numbers.
"""

import pytest

from repro.backends.differential import canonical_rows
from repro.backends.memory import InMemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.catalog import Catalog, schema_of
from repro.common.errors import ExecutionError
from repro.plan import PlanBuilder, normalize
from repro.sql import parse


@pytest.fixture
def rig():
    """Same catalog + data loaded into both backends."""
    catalog = Catalog()
    memory = InMemoryBackend()
    sqlite = SqliteBackend()

    def register(schema, rows):
        version = catalog.register(schema, len(rows))
        memory.load_table(schema, version.guid, rows)
        sqlite.load_table(schema, version.guid, rows)

    register(schema_of("T", [
        ("k", "int"), ("v", "float"), ("s", "str"), ("b", "bool"),
        ("d", "date")]), [
        dict(k=1, v=10.5, s="alpha", b=True, d="2021-03-14"),
        dict(k=2, v=-0.0, s="", b=False, d="2021-03-15"),
        dict(k=None, v=None, s=None, b=None, d=None),
        dict(k=3, v=2.5, s="Beta", b=True, d="2022-01-02"),
        dict(k=1, v=7.25, s="gamma", b=False, d="2021-03-14"),
    ])
    register(schema_of("D", [("k", "int"), ("name", "str")]), [
        dict(k=1, name="one"),
        dict(k=2, name="two"),
        dict(k=None, name="none"),
    ])
    builder = PlanBuilder(catalog)
    yield catalog, memory, sqlite, builder
    sqlite.close()
    memory.close()


def both(rig, sql, params=None):
    catalog, memory, sqlite, builder = rig
    builder.params = dict(params or {})
    plan = normalize(builder.build(parse(sql)))
    return memory.execute(plan), sqlite.execute(plan)


def assert_rows_match(rig, sql, params=None):
    mem, sql_res = both(rig, sql, params)
    assert canonical_rows(mem.rows) == canonical_rows(sql_res.rows), sql
    return mem, sql_res


def assert_stats_match(mem, sql_res):
    mem_stats = [(s.operator, s.rows_in, s.rows_out, s.bytes_out)
                 for _, s in mem.node_stats]
    sql_stats = [(s.operator, s.rows_in, s.rows_out, s.bytes_out)
                 for _, s in sql_res.node_stats]
    assert mem_stats == sql_stats


# --------------------------------------------------------------------- #
# one test per physical operator


class TestOperators:
    def test_scan_and_project(self, rig):
        mem, sq = assert_rows_match(rig, "SELECT k, s FROM T")
        assert_stats_match(mem, sq)

    def test_filter_numeric_comparison_drops_nulls(self, rig):
        # Interpreter: None > 1 is False; SQL: NULL > 1 is NULL.  The
        # COALESCE wrapper must collapse both to "row excluded".
        mem, sq = assert_rows_match(rig, "SELECT k FROM T WHERE k > 1")
        assert len(mem.rows) == 2
        assert_stats_match(mem, sq)

    def test_join_null_keys_match_like_python(self, rig):
        # Python hash join: None == None, so the NULL rows pair up; the
        # lowering uses IS, not =, for equi-join keys.
        mem, sq = assert_rows_match(
            rig, "SELECT T.k, name FROM T JOIN D ON T.k = D.k")
        assert any(r["name"] == "none" for r in mem.rows)
        assert_stats_match(mem, sq)

    def test_left_join(self, rig):
        mem, sq = assert_rows_match(
            rig, "SELECT s, name FROM T LEFT JOIN D ON T.k = D.k")
        assert len(mem.rows) == 5
        assert_stats_match(mem, sq)

    def test_group_by_null_key_groups(self, rig):
        mem, sq = assert_rows_match(
            rig, "SELECT k, COUNT(*) AS n, SUM(v) AS sv FROM T GROUP BY k")
        assert_stats_match(mem, sq)

    def test_global_aggregate_without_group_by(self, rig):
        mem, sq = assert_rows_match(
            rig, "SELECT COUNT(*) AS n, AVG(v) AS a, MIN(s) AS lo, "
                 "MAX(k) AS hi FROM T")
        assert len(mem.rows) == 1
        assert_stats_match(mem, sq)

    def test_count_distinct(self, rig):
        assert_rows_match(rig, "SELECT COUNT(DISTINCT k) AS n FROM T")

    def test_distinct(self, rig):
        mem, sq = assert_rows_match(rig, "SELECT DISTINCT k FROM T")
        assert_stats_match(mem, sq)

    def test_union_all(self, rig):
        mem, sq = assert_rows_match(
            rig, "SELECT k FROM T UNION ALL SELECT k FROM D")
        assert len(mem.rows) == 8
        assert_stats_match(mem, sq)

    def test_sort_nulls_order_like_interpreter(self, rig):
        # The interpreter's sort key puts None first ascending; SQLite
        # also sorts NULL first ascending -- the lowering relies on this
        # agreement, so pin it with an ordered (not multiset) compare.
        _, sq = both(rig, "SELECT k FROM T ORDER BY k")
        assert [r["k"] for r in sq.rows] == [None, 1, 1, 2, 3]
        _, sq = both(rig, "SELECT k FROM T ORDER BY k DESC")
        assert [r["k"] for r in sq.rows] == [3, 2, 1, 1, None]

    def test_limit_over_sort_is_deterministic(self, rig):
        _, sq = both(rig, "SELECT k FROM T ORDER BY k LIMIT 2")
        assert [r["k"] for r in sq.rows] == [None, 1]

    def test_process_is_rejected(self, rig):
        catalog, memory, sqlite, builder = rig
        builder.params = {}
        plan = normalize(builder.build(parse(
            "SELECT k FROM T PROCESS USING nosuchudo")))
        with pytest.raises(ExecutionError):
            sqlite.execute(plan)


# --------------------------------------------------------------------- #
# expression edges


class TestExpressions:
    def test_truthiness_of_bare_string_column(self, rig):
        # WHERE s: Python keeps non-empty strings; '' and None drop.
        mem, _ = assert_rows_match(rig, "SELECT s FROM T WHERE s")
        assert sorted(r["s"] for r in mem.rows) == ["Beta", "alpha",
                                                    "gamma"]

    def test_truthiness_of_bool_and_not(self, rig):
        assert_rows_match(rig, "SELECT k FROM T WHERE b")
        assert_rows_match(rig, "SELECT k FROM T WHERE NOT b")

    def test_is_null_and_is_not_null(self, rig):
        mem, _ = assert_rows_match(rig, "SELECT k FROM T WHERE v IS NULL")
        assert len(mem.rows) == 1
        assert_rows_match(rig, "SELECT k FROM T WHERE v IS NOT NULL")

    def test_arithmetic_null_propagation_and_division(self, rig):
        # k / 2 must divide true (Python float), not integer-truncate;
        # NULL operands propagate.
        assert_rows_match(rig, "SELECT k, k / 2 AS half, v + k AS t, "
                               "v * 2 AS dbl, k - 1 AS m FROM T")

    def test_modulo_matches_python_sign(self, rig):
        # Python -1 % 3 == 2; SQLite's native % yields -1.  The py_mod
        # UDF restores Python semantics.
        assert_rows_match(rig, "SELECT k, (0 - k) % 3 AS m FROM T")

    def test_string_concat_plus(self, rig):
        assert_rows_match(rig, "SELECT s + '!' AS x FROM T")

    def test_in_list_with_null_operand(self, rig):
        # None IN (...) is False in the interpreter, never NULL.
        mem, _ = assert_rows_match(
            rig, "SELECT k FROM T WHERE k IN (1, 3)")
        assert sorted(r["k"] for r in mem.rows) == [1, 1, 3]
        assert_rows_match(rig, "SELECT k FROM T WHERE k NOT IN (1, 3)")

    def test_like(self, rig):
        assert_rows_match(rig, "SELECT s FROM T WHERE s LIKE 'a%'")
        assert_rows_match(rig, "SELECT s FROM T WHERE s NOT LIKE '%a%'")

    def test_case_when(self, rig):
        assert_rows_match(
            rig, "SELECT k, CASE WHEN k > 1 THEN 'big' "
                 "WHEN k = 1 THEN 'one' ELSE 'other' END AS size FROM T")

    def test_case_without_else_yields_null(self, rig):
        assert_rows_match(
            rig, "SELECT CASE WHEN k > 2 THEN 'big' END AS size FROM T")

    def test_scalar_functions_via_udfs(self, rig):
        assert_rows_match(
            rig, "SELECT UPPER(s) AS u, LOWER(s) AS l, LEN(s) AS n, "
                 "ABS(v) AS a, ROUND(v) AS r, FLOOR(v) AS f, "
                 "SUBSTR(s, 1, 3) AS pre FROM T")

    def test_round_is_bankers_rounding(self, rig):
        # Python round() is round-half-even; SQLite's ROUND is
        # half-away-from-zero.  2.5 must round to 2, not 3.
        catalog, memory, sqlite, builder = rig
        builder.params = {}
        plan = normalize(builder.build(parse(
            "SELECT ROUND(v) AS r FROM T WHERE v = 2.5")))
        assert sqlite.execute(plan).rows == [{"r": 2}]

    def test_coalesce_lowered_natively(self, rig):
        assert_rows_match(
            rig, "SELECT COALESCE(v, 0.0) AS v0, IFNULL(s, 'x') AS s0 "
                 "FROM T")

    def test_year_month(self, rig):
        assert_rows_match(rig, "SELECT YEAR(d) AS y, MONTH(d) AS m FROM T")


# --------------------------------------------------------------------- #
# type affinity / storage round-trip


class TestStorageRoundTrip:
    def test_typeless_columns_preserve_values_exactly(self, rig):
        # Tables are created with no column affinity, so '0123' must
        # come back as the string '0123', not the integer 123, and
        # floats keep full precision.
        catalog, memory, sqlite, _ = rig
        schema = schema_of("R", [("a", "str"), ("b", "float"),
                                 ("c", "int")])
        version = catalog.register(schema, 1)
        rows = [dict(a="0123", b=0.1 + 0.2, c=10**15 + 1)]
        sqlite.load_table(schema, version.guid, rows)
        got = sqlite.scan_table(version.guid)
        assert got == rows
        assert isinstance(got[0]["a"], str)

    def test_bool_columns_round_trip_as_bool(self, rig):
        # SQLite stores booleans as 0/1; the fetch layer re-coerces
        # columns whose declared class is BOOL.
        catalog, memory, sqlite, builder = rig
        builder.params = {}
        plan = normalize(builder.build(parse("SELECT b FROM T")))
        values = [r["b"] for r in sqlite.execute(plan).rows]
        assert {type(v) for v in values if v is not None} == {bool}

    def test_byte_accounting_matches_store_estimate(self, rig):
        # Selection decisions compare view sizes across backends, so
        # SQL-side SUM(width) must equal the per-column measure exactly.
        mem, sq = both(rig, "SELECT k, v, s, b FROM T")
        mem_bytes = [s.bytes_out for _, s in mem.node_stats]
        sql_bytes = [s.bytes_out for _, s in sq.node_stats]
        assert mem_bytes == sql_bytes
