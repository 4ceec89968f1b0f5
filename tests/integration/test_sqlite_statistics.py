"""The SQLite backend's statistics are exact, however few statements
measure them.

The backend used to measure a job by running it again: every node's
sub-plan lowered from scratch and executed as its own ``SELECT COUNT(*),
SUM(width) FROM (...)`` probe.  It now probes only what it does not know
already (the six rules of ``repro/backends/sqlite/backend.py``: a node is
lowered once, a stored table is measured once, rows that reached Python
are measured in Python, a node that holds the same rows inherits, a
column measured to hold no text sums no width, a ``GroupBy`` whose rows
reached Python measures its own input).  The plain probe -- every
column's width, every node -- lives on here, as :func:`reference_stats`,
and every ``execute`` of every test below is held to it node for node --
and to the in-memory backend's number for the same plan.  Each directed
case names the rule it would catch cutting a corner.
"""

import re

import pytest

from repro.api import Session
from repro.backends.differential import canonical_rows
from repro.backends.memory import InMemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.backends.sqlite import compile as sqlite_compile
from repro.backends.sqlite.compile import PlanCompiler
from repro.catalog import Catalog, schema_of
from repro.common.clock import SECONDS_PER_DAY
from repro.common.errors import TransientBackendError
from repro.core import MultiLevelControls
from repro.faults import FaultPlan, FaultRuntime, FaultSpec, points
from repro.lifecycle import LifecycleConfig
from repro.plan import PlanBuilder, normalize
from repro.plan.expressions import BinaryOp, ColumnRef, FuncCall, Literal
from repro.plan.logical import (
    Distinct,
    Filter,
    GroupBy,
    Join,
    Limit,
    Project,
    Scan,
    Sort,
    Spool,
    Union,
    ViewScan,
)
from repro.selection import SelectionPolicy
from repro.sql import parse
from repro.workload.generator import generate_workload
from repro.workload.tpcds import TPCDS_QUERIES, install_tpcds
from tests.integration.test_byte_accounting import (
    OPERATOR_QUERIES,
    reference_bytes,
)
from tests.views import spool


def reference_stats(backend, plan):
    """The statistics walk as first written: one nested probe per node,
    nothing remembered, nothing inherited -- the oracle."""
    out = []

    def walk(node):
        child_rows = [walk(child) for child in node.children()]
        compiled = PlanCompiler(backend._tables, backend._views).lower(node)
        width = " + ".join(compiled.width_sql()) or "0"
        # (Marked, so that a test counting the backend's own measuring
        # statements does not count the oracle's.)
        rows_out, bytes_out = backend._conn.execute(
            f"/* reference */ SELECT COUNT(*), COALESCE(SUM({width}), 0) "
            f"FROM ({compiled.sql})").fetchone()
        if isinstance(node, (Scan, ViewScan)):
            rows_in = 0
        elif isinstance(node, (Join, Union)):
            rows_in = sum(child_rows)
        else:
            rows_in = child_rows[0] if child_rows else 0
        out.append((node.op_label, rows_in, rows_out, bytes_out))
        return rows_out

    walk(plan)
    return out


def stats_of(result):
    return [(s.operator, s.rows_in, s.rows_out, s.bytes_out)
            for _, s in result.node_stats]


def hold_to_reference(backend):
    """From here on every ``backend.execute`` is compared with the plain
    probe over the state it left, and its root with the rows it returned."""
    plain = backend.execute

    def execute(plan):
        result = plain(plan)
        assert stats_of(result) == reference_stats(backend, plan), \
            plan.explain()
        root = result.node_stats[-1][1]
        assert (root.rows_out, root.bytes_out) == (
            len(result.rows), reference_bytes(result.rows))
        for spooled in result.spooled:
            rows = plain(ViewScan(spooled.signature, spooled.view_path,
                                  spooled.schema)).rows
            assert (spooled.row_count, spooled.size_bytes) == (
                len(rows), reference_bytes(rows))
        return result

    backend.execute = execute
    return backend


# --------------------------------------------------------------------- #
# both backends over the same tables

T_ROWS = [dict(k=i % 4, v=i / 2, s=["", " a", "bcd ", None][i % 4],
               b=[True, False, None][i % 3]) for i in range(12)]
U_ROWS = [dict(k=0, name="zero"), dict(k=1, name=""), dict(k=7, name=None)]


class Rig:
    def __init__(self):
        self.catalog = Catalog()
        self.memory = InMemoryBackend()
        self.sqlite = hold_to_reference(SqliteBackend())
        self.guids = {}
        self.register(schema_of("T", [("k", "int"), ("v", "float"),
                                      ("s", "str"), ("b", "bool")]), T_ROWS)
        self.register(schema_of("U", [("k", "int"), ("name", "str")]),
                      U_ROWS)

    def register(self, schema, rows):
        guid = self.catalog.register(schema, len(rows)).guid
        self.guids[schema.name] = guid
        for backend in (self.memory, self.sqlite):
            backend.load_table(schema, guid, rows)

    def scan(self, dataset, *columns):
        return Scan(dataset, columns, stream_guid=self.guids[dataset])

    def plan(self, sql):
        builder = PlanBuilder(self.catalog)
        builder.params = {}
        return normalize(builder.build(parse(sql)))

    def check(self, plan):
        """``plan`` on both backends: the same rows, the same statistics
        (and, inside ``execute``, the reference's)."""
        if isinstance(plan, str):
            plan = self.plan(plan)
        ours, theirs = self.sqlite.execute(plan), self.memory.execute(plan)
        assert canonical_rows(ours.rows) == canonical_rows(theirs.rows)
        assert stats_of(ours) == stats_of(theirs), plan.explain()
        return ours

    def close(self):
        self.sqlite.close()
        self.memory.close()


@pytest.fixture
def rig():
    rig = Rig()
    yield rig
    rig.close()


def col(name):
    return ColumnRef(name)


def rename(child, **names):
    """``Project`` handing ``names[new] = old`` columns through."""
    return Project(child, tuple(map(col, names.values())), tuple(names))


def count_by(child, key):
    return GroupBy(child, (col(key),), (FuncCall("COUNT"),), (key, "n"))


def positive(child, column="k"):
    return Filter(child, BinaryOp(">", col(column), Literal(0)))


def unfetched(child):
    """``child`` below a root that hands nothing down: its rows reach
    neither Python nor a table."""
    return Limit(child, 100)


@pytest.mark.parametrize(
    "sql", [sql for sql in OPERATOR_QUERIES if "PROCESS" not in sql])
def test_every_operator_reports_the_reference_and_the_memory_number(rig, sql):
    rig.check(sql)


# --------------------------------------------------------------------- #
# rule 4: a node that holds the same rows inherits -- and no other does


def test_a_sort_weighs_what_its_child_does_in_both_directions(rig):
    kept = positive(rig.scan("T", "k", "s"))
    # Downward: the fetched rows are the Sort's, so the Filter's too.
    rig.check(Sort(kept, (col("s"), col("k")), (False, True)))
    # Upward: below a Distinct nothing was fetched; the Filter is probed
    # and the Sort reads the answer off it.
    rig.check(Distinct(Sort(kept, (col("k"),), (True,))))


def test_a_limit_hands_nothing_down_not_even_to_the_sort_it_inlines(rig):
    ordered = Sort(rig.scan("T", "k", "s"), (col("s"),), (True,))
    result = rig.check(Limit(ordered, 2))
    assert [s.rows_out for _, s in result.node_stats] == [12, 12, 2]
    # Bare, it may keep any 5 rows; what it reports is what it returned.
    result = rig.sqlite.execute(Limit(positive(rig.scan("T", "k", "s")), 5))
    assert [s.rows_out for _, s in result.node_stats] == [12, 9, 5]
    # Not at the root it is probed like any operator that drops rows.
    rig.check(Sort(Limit(ordered, 3), (col("k"),), (True,)))


def test_a_distinct_hands_nothing_down(rig):
    result = rig.check(Distinct(rig.scan("T", "k")))
    assert [s.rows_out for _, s in result.node_stats] == [12, 4]


def test_a_rename_maps_its_child_through_even_with_duplicate_names(rig):
    kept = positive(rig.scan("T", "k", "s", "v"))
    # Upward, below a Distinct.  The last of two outputs under one name
    # is the one that counts (a string and a number weigh differently),
    # and a column the Project drops is not counted.
    twice = Project(kept, (col("k"), col("s")), ("x", "x"))
    assert rig.check(Distinct(twice)).node_stats[2][1].bytes_out == \
        reference_bytes([{"x": row["s"]} for row in T_ROWS if row["k"] > 0])
    rig.check(Distinct(rename(kept, a="s")))
    # Downward the same Projects are not one to one: the Filter's three
    # columns cannot be read back from the one that was fetched.
    rig.check(twice)
    rig.check(rename(kept, a="s"))
    rig.check(rename(kept, a="k", b="k", c="s"))
    # One to one and onto, the rename is undone on the way down.
    rig.check(rename(kept, a="s", b="v", c="k"))
    rig.check(Sort(rename(kept, a="s", b="v", c="k"), (col("a"),), (True,)))


def test_a_computing_project_is_probed_duplicate_names_or_not(rig):
    kept = positive(rig.scan("T", "k", "s"))
    plus = BinaryOp("+", col("k"), Literal(1))
    rig.check(Distinct(Project(kept, (plus, col("s")), ("x", "x"))))
    rig.check(Distinct(Project(kept, (col("s"), plus), ("x", "x"))))
    # At the root its rows are fetched; its child's are not.
    rig.check(Project(kept, (plus, col("s")), ("x", "y")))


def test_a_rename_that_drops_a_column_shields_the_group_by_below(rig):
    grouped = count_by(rig.scan("T", "k", "s"), "s")
    result = rig.check(rename(grouped, total="n"))
    assert [s.operator for _, s in result.node_stats][-2:] == [
        "GroupBy", "Project"]
    # Whereas a full rename reaches it: nothing but the Scan's table is
    # left to measure.
    rig.check(rename(grouped, total="n", key="s"))
    rig.check("SELECT k, COUNT(*) AS c, SUM(v) AS total FROM T GROUP BY k")


# --------------------------------------------------------------------- #
# rule 3: rows that reached Python are measured in Python


def test_a_root_union_is_measured_arm_by_arm(rig):
    t = rename(count_by(rig.scan("T", "k", "s"), "s"), name="s", n="n")
    u = rename(count_by(rig.scan("U", "name"), "name"), name="name", n="n")
    result = rig.check(Union((t, u)))
    assert [s.rows_out for _, s in result.node_stats] == [
        12, 4, 4, 3, 3, 3, 7]
    # Rows leave as fresh dicts in plan column order, the arm index gone.
    assert [list(row) for row in result.rows] == [["name", "n"]] * 7
    rig.check(Union((u, t, u)))
    rig.check("SELECT s AS n FROM T UNION ALL SELECT name AS n FROM U")


def test_only_the_root_union_tells_its_arms_apart(rig):
    t = rename(positive(rig.scan("T", "k", "s")), key="k", name="s")
    u = rename(positive(rig.scan("U", "k", "name")), key="k", name="name")
    # The nested Union is one arm of the root: its own arms are not
    # partitioned, and must not be handed the whole arm's rows.
    rig.check(Union((t, Union((u, t)))))
    rig.check(Union((Union((t, u)), Union((u, t)), u)))
    # Under a Sort the Union is not what was fetched arm by arm either.
    rig.check(Sort(Union((t, u)), (col("key"),), (True,)))


def test_a_root_union_with_duplicate_output_names(rig):
    # The schema is the first input's: two outputs named ``x``.  The
    # second arm's two columns are re-keyed onto it by position, so only
    # the last survives -- and the arm's input cannot inherit from it.
    first = Project(positive(rig.scan("T", "k", "s")),
                    (col("k"), col("s")), ("x", "x"))
    second = positive(rig.scan("U", "k", "name"))
    result = rig.check(Union((first, second)))
    assert [list(row) for row in result.rows] == [["x"]] * 11


def test_no_column_name_collides_with_the_arm_index(rig):
    # SQLite names an unnamed constant column after its text: "0", "1".
    arms = [Project(positive(rig.scan("T", "k", "s")),
                    (col("s"), col("k")), names)
            for names in (("0", "1"), ("1", "0"))]
    result = rig.check(Union(arms))
    assert [list(row) for row in result.rows] == [["0", "1"]] * 18
    # Re-keyed by position: ``1`` holds ``k`` in both arms.
    assert {type(row["1"]) for row in result.rows} == {int}


def test_an_empty_result_weighs_nothing(rig):
    none = Filter(rig.scan("T", "k", "s"),
                  BinaryOp(">", col("k"), Literal(99)))
    for plan in (none, rename(none, a="k", b="s"), count_by(none, "k"),
                 Union((none, none)),
                 Union((rename(none, a="k", b="s"),
                        rename(positive(rig.scan("T", "k", "s")),
                               a="k", b="s")))):
        rig.check(plan)


def test_a_bool_column_is_measured_after_the_re_coercion(rig):
    # One byte for a bool, eight for the NULLs beside it: SQLite hands
    # back 0/1, which only weigh one byte once they are ``bool`` again.
    result = rig.check(rig.scan("T", "b"))
    assert result.node_stats[-1][1].bytes_out == 8 * 1 + 4 * 8
    assert {type(row["b"]) for row in result.rows} == {bool, type(None)}
    flags = rename(positive(rig.scan("T", "k", "b")), flag="b", key="k")
    rig.check(flags)
    rig.check(Union((flags, flags)))
    rig.check("SELECT T.k, v * 2 AS w, b FROM T WHERE b = TRUE OR s IS NULL")


# --------------------------------------------------------------------- #
# rule 2: a stored table is measured once, and not beyond its life


def measuring_statements(backend, everything=False):
    """The measuring statements ``backend`` runs from here on -- or,
    ``everything``, all its statements -- by the driver's trace hook."""
    seen = []
    backend._conn.set_trace_callback(
        lambda sql: seen.append(sql)
        if everything or sql.startswith("SELECT COUNT(*)") else None)
    return seen


#: A width term (``CompiledQuery.width_sql``) summed by a statement.
WIDTH_TERM = re.compile(r"SUM\(\(CASE WHEN (typeof\(|\S+ IS NULL THEN 8)")


def test_a_scan_picks_its_columns_from_the_table_measured_once(rig):
    seen = measuring_statements(rig.sqlite)
    for columns in (("k", "s"), ("s",), ("v", "k", "b"), ("k", "k")):
        rig.check(unfetched(Distinct(rig.scan("T", *columns))))
    # One statement for the table, one per Distinct, none per Scan.
    assert len(seen) == 1 + 4


def test_a_scan_of_a_column_the_table_lacks_reads_nulls(rig):
    result = rig.check(unfetched(rig.scan("T", "k", "absent", "s")))
    scan = result.node_stats[0][1]
    assert scan.bytes_out == reference_bytes(
        [dict(k=row["k"], absent=None, s=row["s"]) for row in T_ROWS])
    rig.check(rig.scan("U", "gone"))


def test_a_whole_job_view_scan(rig):
    plan = positive(rig.scan("T", "k", "s", "b"))
    for backend in (rig.memory, rig.sqlite):
        spooled = spool(backend, plan, "views/whole")
        assert (spooled.row_count, spooled.size_bytes) == (
            9, reference_bytes([dict(k=r["k"], s=r["s"], b=r["b"])
                                for r in T_ROWS if r["k"] > 0]))
    seen = measuring_statements(rig.sqlite)
    view = ViewScan("sig", "views/whole", ("k", "s", "b"))
    rig.check(view)
    rig.check(rename(view, a="s"))
    rig.check(unfetched(Distinct(view)))
    assert len(seen) == 1      # the Distinct; the view was measured at birth


def test_a_spool_its_child_and_its_table_weigh_the_same(rig):
    joined = Join(rig.scan("T", "k", "s"), rig.scan("U", "k", "name"),
                  (col("k"),), (col("k"),), drop_right=("k",))
    spooled = Spool(rename(joined, key="k", s="s", name="name"),
                    "sig-1", "views/spooled")
    result = rig.check(count_by(spooled, "key"))
    assert result.spooled[0].row_count == 6
    # A Spool at the root, over a Spool: inner first, each measured once.
    rig.check(Spool(Distinct(Spool(positive(rig.scan("T", "k", "v")),
                                   "sig-2", "views/inner")),
                    "sig-3", "views/outer"))
    rig.check(ViewScan("sig-3", "views/outer", ("k", "v")))


def assert_no_measurement_outlives_its_table(backend):
    live = {info.table for info in (*backend._tables.values(),
                                    *backend._views.values())}
    assert set(backend._measured) <= live


def test_a_reloaded_guid_is_measured_again(rig):
    plan = count_by(rig.scan("U", "k", "name"), "name")
    assert rig.check(plan).node_stats[0][1].rows_out == 3
    rows = U_ROWS + [dict(k=9, name="a longer name"), dict(k=None, name="")]
    for backend in (rig.memory, rig.sqlite):
        backend.load_table(schema_of("U", [("k", "int"), ("name", "str")]),
                           rig.guids["U"], rows)
    assert rig.check(plan).node_stats[0][1].rows_out == 5
    rig.sqlite.drop_table(rig.guids["U"])
    assert_no_measurement_outlives_its_table(rig.sqlite)


def test_a_dropped_and_rebuilt_view_is_measured_again(rig):
    view = ViewScan("sig", "views/v", ("k", "s"))
    for keep in (0, 2):
        plan = positive(rig.scan("T", "k", "s"))
        if keep:
            plan = Filter(plan, BinaryOp("<", col("k"), Literal(keep)))
        for backend in (rig.memory, rig.sqlite):
            backend.drop_view("views/v")
            spool(backend, plan, "views/v")
        assert_no_measurement_outlives_its_table(rig.sqlite)
        assert rig.check(Distinct(view)).node_stats[0][1].rows_out == (
            3 if keep else 9)
    # Replaced in place (no drop in between) it is measured again too.
    spool(rig.sqlite, rig.scan("U", "k", "name"), "views/v")
    assert rig.sqlite.execute(
        ViewScan("sig", "views/v", ("k", "name"))).node_stats[0][1] \
        .rows_out == 3


def test_a_crashed_materialization_leaves_the_old_table_and_its_number(rig):
    sqlite = rig.sqlite
    view = ViewScan("sig", "views/v", ("k", "s"))
    spool(sqlite, positive(rig.scan("T", "k", "s")), "views/v")
    assert sqlite.execute(view).node_stats[0][1].rows_out == 9
    sqlite.faults = FaultRuntime(FaultPlan(specs=(FaultSpec(
        points.BACKEND_MATERIALIZE_MID, "crash", max_fires=1),),
        seed=0, name="mid-ctas"))
    replacement = rig.scan("T", "k", "s")
    with pytest.raises(TransientBackendError):
        spool(sqlite, replacement, "views/v")
    # Rolled back: the old rows, measured afresh.
    assert sqlite.execute(view).node_stats[0][1].rows_out == 9
    # The retry goes through, and the old number does not survive it.
    assert spool(sqlite, replacement, "views/v").row_count == 12
    assert sqlite.execute(Distinct(view)).node_stats[0][1].rows_out == 12
    assert_no_measurement_outlives_its_table(sqlite)


def test_nothing_measured_is_persisted(tmp_path):
    path = str(tmp_path / "stats.db")
    schema = schema_of("U", [("k", "int"), ("name", "str")])
    backend = hold_to_reference(SqliteBackend(path))
    backend.load_table(schema, "g-u", U_ROWS)
    scan = Scan("U", ("k", "name"), stream_guid="g-u")
    spool(backend, scan, "views/u")
    backend.execute(Distinct(scan))
    assert backend._measured
    backend.close()
    reopened = hold_to_reference(SqliteBackend(path))
    try:
        assert not reopened._measured
        seen = measuring_statements(reopened)
        view = ViewScan("sig", "views/u", ("k", "name"))
        reopened.execute(unfetched(Distinct(view)))
        reopened.execute(unfetched(Distinct(view)))
        assert len(seen) == 3      # the table once, the Distinct twice
        reopened.execute(unfetched(Distinct(scan)))
    finally:
        reopened.close()


# --------------------------------------------------------------------- #
# rule 5: a column measured to hold no text sums no width


def test_a_str_in_an_int_column_keeps_its_width_term(rig):
    schema = schema_of("W", [("k", "int"), ("n", "int")])
    rig.register(schema, [dict(k=1, n=5), dict(k=2, n="a long text"),
                          dict(k=3, n=None), dict(k=4, n=7)])
    # The class says NUM; the table says text, and text is what counts.
    kept = positive(rig.scan("W", "k", "n"), "k")
    rig.check(unfetched(Distinct(kept)))
    rig.check(count_by(Join(kept, rig.scan("T", "k", "s"), (col("k"),),
                            (col("k"),), drop_right=("k",)), "s"))
    rig.check(Union((rename(kept, a="n"), rename(kept, a="k"))))


def test_a_left_join_extends_with_nulls_that_weigh_eight_and_bools_one(rig):
    # U's ``k`` is text-free and NULL-extended: 8 bytes a row either way.
    # T's ``b`` is a text-free bool: 1 byte a value, 8 a NULL -- its term
    # stays.  ``name`` holds text.
    for left, right in ((rig.scan("T", "k", "b"), rig.scan("U", "k", "name")),
                        (rig.scan("U", "k", "name"), rig.scan("T", "k", "b"))):
        joined = Join(left, right, (col("k"),), (col("k"),), how="left",
                      drop_right=("k",))
        rig.check(unfetched(Distinct(joined)))
        rig.check(count_by(positive(joined), "k"))


def test_a_reloaded_guid_forgets_which_columns_held_no_text(rig):
    schema = schema_of("R", [("k", "int"), ("tag", "str")])
    rig.register(schema, [dict(k=i, tag=None) for i in range(5)])
    plan = unfetched(Distinct(positive(rig.scan("R", "k", "tag"))))
    rig.check(plan)
    rows = [dict(k=i, tag="x" * i) for i in range(5)]
    for backend in (rig.memory, rig.sqlite):
        backend.load_table(schema, rig.guids["R"], rows)
    assert rig.check(plan).node_stats[-2][1].bytes_out == \
        reference_bytes([dict(k=r["k"], tag=r["tag"]) for r in rows[1:]])


# --------------------------------------------------------------------- #
# rule 6: a GroupBy whose rows reached Python measures its own input


def test_a_fetched_group_by_measures_its_input_without_a_probe(rig):
    seen = measuring_statements(rig.sqlite)
    grouped = count_by(positive(rig.scan("T", "k", "s", "b")), "s")
    rig.check(grouped)
    rig.check(Sort(rename(grouped, n="n", key="s"), (col("n"),), (False,)))
    rig.check(Union((rename(grouped, a="s", n="n"),
                     rename(count_by(positive(rig.scan("U", "k", "name")),
                                     "name"), a="name", n="n"))))
    # Two tables, each measured once; no Filter is probed.
    assert len(seen) == 2


def test_a_group_by_under_a_spool_is_tapped_inside_the_ctas(rig):
    seen = measuring_statements(rig.sqlite)
    grouped = count_by(positive(rig.scan("T", "k", "s")), "s")
    result = rig.check(Distinct(Spool(grouped, "sig-g", "views/grouped")))
    assert result.spooled[0].row_count == 3
    # The table and the view; not the Filter below the GroupBy.
    assert len(seen) == 2


def test_a_group_by_that_occurs_twice_is_not_believed(rig):
    # One node, two arms: the statement runs it twice, and its tap sums
    # both runs.
    u = rename(count_by(positive(rig.scan("U", "k", "name")), "name"),
               a="name", n="n")
    t = rename(count_by(positive(rig.scan("T", "k", "s")), "s"),
               a="s", n="n")
    rig.check(Union((u, t, u)))


def test_a_tap_sums_its_input_columns_not_outputs_of_the_same_name(rig):
    # ``s`` and ``v`` name both input columns and aggregates: inside
    # ``HAVING`` a name must resolve to the input's.
    grouped = GroupBy(positive(rig.scan("T", "k", "s", "v")), (col("k"),),
                      (FuncCall("COUNT"), FuncCall("MAX", (col("v"),))),
                      ("k", "s", "v"))
    rig.check(grouped)
    rig.check(rename(grouped, a="k", b="s", c="v"))


@pytest.mark.parametrize("where", ["under a Filter", "as a Join input",
                                   "under an unsorted Limit"])
def test_a_group_by_its_rows_did_not_reach_python_is_probed(rig, where):
    """Each statement runs the tap over other rows than the input, or
    not at all: a ``WHERE`` that SQLite pushes into the aggregate, a
    join whose other input is empty, a ``LIMIT`` that stops early.  Its
    sums are not read (trusting them fails all three)."""
    grouped = GroupBy(positive(rig.scan("T", "k", "s", "v")), (col("k"),),
                      (FuncCall("COUNT"), FuncCall("SUM", (col("v"),))),
                      ("k", "n", "total"))
    plan = {
        "under a Filter": Filter(grouped, BinaryOp("=", col("k"), Literal(2))),
        "as a Join input": Join(
            Filter(rig.scan("U", "k", "name"),
                   BinaryOp(">", col("k"), Literal(99))),
            grouped, (col("k"),), (col("k"),), drop_right=("k",)),
        "under an unsorted Limit": Limit(grouped, 1),
    }[where]
    seen = measuring_statements(rig.sqlite)
    rig.check(plan)
    # The GroupBy was lowered with its tap: the probe of it runs it too.
    assert any("py_tap(" in sql for sql in seen)


@pytest.mark.parametrize("keys", [(), ("k",)])
def test_a_group_by_over_no_rows(rig, keys):
    # Keyed, it is tapped, and no group means no input row; without keys
    # it is not tapped, and it still returns its one row.
    none = Filter(rig.scan("T", "k", "s"),
                  BinaryOp(">", col("k"), Literal(99)))
    grouped = GroupBy(none, tuple(map(col, keys)),
                      (FuncCall("COUNT"), FuncCall("MAX", (col("s"),))),
                      (*keys, "n", "top"))
    result = rig.check(grouped)
    assert len(result.rows) == (0 if keys else 1)
    rig.check(rename(grouped, **{name: name for name in grouped.names}))


# --------------------------------------------------------------------- #
# whole workloads, both backends in step


def open_session(backend, clusters, journal_dir=None):
    controls = MultiLevelControls()
    for vc in clusters:
        controls.enable_vc(vc)
    return Session(
        backend=backend, controls=controls, selection_algorithm="bigsubs",
        policy=SelectionPolicy(storage_budget_bytes=50_000_000,
                               min_reuses_per_epoch=0.0),
        lifecycle=(LifecycleConfig(journal_dir=str(journal_dir / backend))
                   if journal_dir else None))


class InStep:
    """One SQLite session held to the reference and one in-memory
    session, run job for job."""

    def __init__(self, clusters, journal_dir=None):
        self.sessions = [open_session(name, clusters, journal_dir)
                         for name in ("sqlite", "memory")]
        self.backend = hold_to_reference(self.sessions[0].backend)
        self.operators = set()
        self.jobs = 0

    def each(self, call):
        return [call(session) for session in self.sessions]

    def run(self, sql, **kwargs):
        ours, theirs = self.each(lambda s: s.run(sql, **kwargs).run.result)
        assert stats_of(ours) == stats_of(theirs), sql
        assert ([(s.view_path, s.row_count, s.size_bytes)
                 for s in ours.spooled]
                == [(s.view_path, s.row_count, s.size_bytes)
                    for s in theirs.spooled])
        self.operators.update(type(node) for node, _ in ours.node_stats)
        self.jobs += 1
        return ours

    def run_day(self, workload, day):
        if day > 0:
            self.each(lambda s: workload.cook(s.engine, day))
            self.each(lambda s: s.evict_expired(now=day * SECONDS_PER_DAY))
        for job in workload.jobs_for_day(day):
            self.run(job.template.sql, params=job.params,
                     virtual_cluster=job.virtual_cluster,
                     template_id=job.template.template_id,
                     pipeline_id=job.template.pipeline_id,
                     now=job.submit_time)
        self.each(lambda s: s.analyze_and_publish())

    def close(self):
        assert len({s.catalog_digest() for s in self.sessions}) == 1
        assert self.sessions[0].views_reused > 0
        assert {Spool, ViewScan} <= self.operators
        assert_no_measurement_outlives_its_table(self.backend)
        self.each(lambda s: s.close())


def cooking_workload():
    return generate_workload(
        name="bytes", seed=7, virtual_clusters=2, templates_per_vc=4,
        fact_rows_per_day=240, adhoc_per_day=2)


def test_every_node_of_the_tpcds_suite_matches_the_reference():
    both = InStep(["default"])
    both.each(lambda s: install_tpcds(s.engine, scale_rows=300, seed=42))
    for round_no in (1, 2):
        for offset, (name, sql) in enumerate(TPCDS_QUERIES):
            both.run(sql, template_id=name, now=1000.0 * round_no + offset)
        if round_no == 1:
            both.each(lambda s: s.analyze_and_publish())
    both.close()


def test_every_node_of_a_cooking_day_with_reuse_matches_the_reference():
    workload = cooking_workload()
    both = InStep(list(workload.virtual_clusters))
    both.each(lambda s: workload.install(s.engine, at=0.0))
    for day in range(2):
        both.run_day(workload, day)
    both.close()


def test_a_forget_in_the_middle_of_a_day(tmp_path):
    """The stream is rewritten under a new GUID and every view over it is
    purged and dropped while jobs keep building and reading views."""
    workload = cooking_workload()
    both = InStep(list(workload.virtual_clusters), journal_dir=tmp_path)
    both.each(lambda s: workload.install(s.engine, at=0.0))
    both.run_day(workload, 0)
    jobs = workload.jobs_for_day(1)
    both.each(lambda s: workload.cook(s.engine, 1))
    for index, job in enumerate(jobs):
        if index == len(jobs) // 2:
            before = set(both.backend._views)
            both.each(lambda s: s.engine.gdpr_forget(
                "Events", lambda row: row["UserId"] % 10 != 0,
                at=job.submit_time))
            both.each(lambda s: s.gc_sweep(job.submit_time))
            assert set(both.backend._views) < before
            assert_no_measurement_outlives_its_table(both.backend)
        both.run(job.template.sql, params=job.params,
                 virtual_cluster=job.virtual_cluster,
                 template_id=job.template.template_id,
                 pipeline_id=job.template.pipeline_id, now=job.submit_time)
    both.close()


# --------------------------------------------------------------------- #
# the statement budget


def test_a_pinned_cooking_day_stays_inside_its_statement_budget(monkeypatch):
    """Rules 1-6 as three counts, in the hash-budget style, on the third
    day of a cooking workload of the benchmark's shape (96 templates;
    views and annotations exist).  Before the rules: 573 measuring
    statements for these 89 jobs (6.4 a job; 107 after rules 1-4, 72 now),
    2,022 lowerings of their 545 nodes (one per ancestor that probed the
    node; 493 now), and 699 width terms summed after rules 1-4 (271 now,
    taps included)."""
    workload = generate_workload(
        name="budget", seed=7, virtual_clusters=3, templates_per_vc=32,
        fact_rows_per_day=300)
    lowered = []
    for operator, handler in sqlite_compile._OP_HANDLERS.items():
        monkeypatch.setitem(
            sqlite_compile._OP_HANDLERS, operator,
            lambda self, plan, _handler=handler:
            lowered.append(plan) or _handler(self, plan))
    jobs = nodes = spools = 0
    with open_session("sqlite", list(workload.virtual_clusters)) as session:
        workload.install(session.engine, at=0.0)
        statements = measuring_statements(session.backend, everything=True)
        for day in range(3):
            if day > 0:
                workload.cook(session.engine, day)
                session.evict_expired(now=day * SECONDS_PER_DAY)
            del statements[:], lowered[:]
            for job in workload.jobs_for_day(day):
                result = session.run(
                    job.template.sql, params=job.params,
                    virtual_cluster=job.virtual_cluster,
                    template_id=job.template.template_id,
                    pipeline_id=job.template.pipeline_id,
                    now=job.submit_time).run.result
                if day == 2:
                    jobs += 1
                    nodes += len(result.node_stats)
                    spools += len(result.spooled)
            session.analyze_and_publish()
    assert jobs == 89 and spools
    seen = [sql for sql in statements if sql.startswith("SELECT COUNT(*)")]
    terms = sum(len(WIDTH_TERM.findall(sql)) for sql in statements)
    assert len(seen) <= 0.85 * jobs, (len(seen), jobs)
    assert terms <= 3.2 * jobs, (terms, jobs)
    assert len(lowered) <= nodes + spools, (len(lowered), nodes, spools)
