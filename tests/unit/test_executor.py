"""Unit tests for the column-batch executor."""

import pytest

from repro.catalog import Catalog, schema_of
from repro.common.errors import ExecutionError
from repro.core.runner import LOOP_JOIN_THRESHOLD, choose_join_algorithm
from repro.executor import Executor, UdoRegistry
from repro.executor import executor as executor_module
from repro.plan import PlanBuilder, Spool, normalize
from repro.plan.logical import Join, Scan
from repro.sql import parse
from repro.storage import DataStore


@pytest.fixture
def setup():
    catalog = Catalog()
    store = DataStore()

    def register(schema, rows):
        version = catalog.register(schema, len(rows))
        store.put(version.guid, rows)

    register(schema_of("Sales", [
        ("CustomerId", "int"), ("PartId", "int"), ("Price", "float"),
        ("Quantity", "int")]), [
        dict(CustomerId=1, PartId=1, Price=10.0, Quantity=2),
        dict(CustomerId=1, PartId=2, Price=20.0, Quantity=1),
        dict(CustomerId=2, PartId=1, Price=5.0, Quantity=4),
        dict(CustomerId=3, PartId=3, Price=7.5, Quantity=2),
    ])
    register(schema_of("Customer", [
        ("CustomerId", "int"), ("MktSegment", "str")]), [
        dict(CustomerId=1, MktSegment="Asia"),
        dict(CustomerId=2, MktSegment="Europe"),
        dict(CustomerId=3, MktSegment="Asia"),
    ])
    register(schema_of("Parts", [
        ("PartId", "int"), ("Brand", "str")]), [
        dict(PartId=1, Brand="b1"),
        dict(PartId=2, Brand="b2"),
        dict(PartId=3, Brand="b1"),
    ])
    executor = Executor(store)
    builder = PlanBuilder(catalog)
    return catalog, store, executor, builder


def run(setup, sql, params=None):
    catalog, store, executor, builder = setup
    builder.params = dict(params or {})
    plan = normalize(builder.build(parse(sql)))
    return executor.execute(plan)


class TestBasicOperators:
    def test_scan_projects_catalog_columns(self, setup):
        result = run(setup, "SELECT * FROM Parts")
        assert len(result.rows) == 3
        assert set(result.rows[0]) == {"PartId", "Brand"}

    def test_filter(self, setup):
        result = run(setup, "SELECT CustomerId FROM Sales WHERE Price > 9")
        assert sorted(r["CustomerId"] for r in result.rows) == [1, 1]

    def test_projection_expression(self, setup):
        result = run(setup,
                     "SELECT Price * Quantity AS total FROM Sales "
                     "WHERE CustomerId = 1")
        assert sorted(r["total"] for r in result.rows) == [20.0, 20.0]

    def test_distinct(self, setup):
        result = run(setup, "SELECT DISTINCT Brand FROM Parts")
        assert sorted(r["Brand"] for r in result.rows) == ["b1", "b2"]

    def test_order_by_desc_limit(self, setup):
        result = run(setup,
                     "SELECT Price FROM Sales ORDER BY Price DESC LIMIT 2")
        assert [r["Price"] for r in result.rows] == [20.0, 10.0]

    def test_union_all(self, setup):
        result = run(setup,
                     "SELECT Brand AS n FROM Parts "
                     "UNION ALL SELECT MktSegment AS n FROM Customer")
        assert len(result.rows) == 6

    def test_union_distinct(self, setup):
        result = run(setup,
                     "SELECT Brand AS n FROM Parts "
                     "UNION SELECT Brand AS n FROM Parts")
        assert len(result.rows) == 2


class TestJoins:
    def test_natural_join(self, setup):
        result = run(setup, "SELECT MktSegment FROM Sales JOIN Customer")
        assert len(result.rows) == 4

    def test_join_filter_combination(self, setup):
        result = run(setup,
                     "SELECT CustomerId FROM Sales JOIN Customer "
                     "WHERE MktSegment = 'Asia'")
        assert sorted(r["CustomerId"] for r in result.rows) == [1, 1, 3]

    def test_three_way_join(self, setup):
        result = run(setup,
                     "SELECT Brand FROM Sales JOIN Customer JOIN Parts "
                     "WHERE MktSegment = 'Asia'")
        assert sorted(r["Brand"] for r in result.rows) == ["b1", "b1", "b2"]

    def test_left_join_preserves_unmatched(self, setup):
        catalog, store, executor, builder = setup
        version = catalog.register(
            schema_of("Extra", [("CustomerId", "int"), ("Flag", "str")]),
            1)
        store.put(version.guid, [dict(CustomerId=1, Flag="x")])
        result = run(setup,
                     "SELECT c.CustomerId, Flag FROM Customer c "
                     "LEFT JOIN Extra e ON c.CustomerId = e.CustomerId")
        by_customer = {r["CustomerId"]: r["Flag"] for r in result.rows}
        assert by_customer == {1: "x", 2: None, 3: None}

    def test_cross_join(self, setup):
        catalog, store, executor, builder = setup
        version = catalog.register(schema_of("Two", [("x", "int")]), 2)
        store.put(version.guid, [dict(x=1), dict(x=2)])
        result = run(setup, "SELECT Brand, x FROM Parts JOIN Two")
        assert len(result.rows) == 6

    def test_join_residual_predicate(self, setup):
        result = run(setup,
                     "SELECT s.CustomerId FROM Sales s JOIN Customer c "
                     "ON s.CustomerId = c.CustomerId "
                     "AND c.MktSegment = 'Europe'")
        assert [r["CustomerId"] for r in result.rows] == [2]

    def test_join_algorithm_selection(self, setup):
        """The *modelled* choice Fig. 9 is labelled by: it lives with the
        workload-repository ingest, and the executor knows nothing of it."""
        assert not hasattr(executor_module, "choose_join_algorithm")
        catalog, _, _, builder = setup
        plan = normalize(builder.build(parse(
            "SELECT MktSegment FROM Sales JOIN Customer")))
        join = next(n for n in plan.walk() if isinstance(n, Join))
        big = LOOP_JOIN_THRESHOLD * 5
        assert choose_join_algorithm(join, big, big) == "hash"
        assert choose_join_algorithm(join, big, 2) == "loop"
        cross = Join(join.left, join.right)
        assert choose_join_algorithm(cross, big, big) == "loop"
        multi = Join(join.left, join.right,
                     join.left_keys * 2, join.right_keys * 2)
        assert choose_join_algorithm(multi, big, big) == "merge"


class TestAggregates:
    def test_group_by_avg(self, setup):
        result = run(setup,
                     "SELECT CustomerId, AVG(Price) AS a FROM Sales "
                     "GROUP BY CustomerId")
        by_customer = {r["CustomerId"]: r["a"] for r in result.rows}
        assert by_customer[1] == 15.0
        assert by_customer[2] == 5.0

    def test_global_aggregates(self, setup):
        result = run(setup,
                     "SELECT SUM(Quantity) AS q, COUNT(*) AS c, "
                     "MIN(Price) AS mn, MAX(Price) AS mx FROM Sales")
        row = result.rows[0]
        assert row == {"q": 9, "c": 4, "mn": 5.0, "mx": 20.0}

    def test_count_distinct(self, setup):
        result = run(setup,
                     "SELECT COUNT(DISTINCT CustomerId) AS c FROM Sales")
        assert result.rows[0]["c"] == 3

    def test_having(self, setup):
        result = run(setup,
                     "SELECT CustomerId FROM Sales GROUP BY CustomerId "
                     "HAVING SUM(Quantity) > 2")
        assert sorted(r["CustomerId"] for r in result.rows) == [1, 2]

    def test_global_aggregate_on_empty_input(self, setup):
        result = run(setup,
                     "SELECT COUNT(*) AS c, SUM(Price) AS s FROM Sales "
                     "WHERE Price > 1000")
        assert result.rows == [{"c": 0, "s": None}]

    def test_group_by_on_empty_input_yields_no_groups(self, setup):
        result = run(setup,
                     "SELECT CustomerId FROM Sales WHERE Price > 1000 "
                     "GROUP BY CustomerId")
        assert result.rows == []

    def test_arithmetic_over_aggregates(self, setup):
        result = run(setup,
                     "SELECT SUM(Price) / COUNT(*) AS avg_price FROM Sales")
        assert result.rows[0]["avg_price"] == pytest.approx(10.625)


class TestUdos:
    def test_registered_udo_applies(self, setup):
        catalog, store, _, builder = setup
        udos = UdoRegistry()
        udos.register("Double", lambda rows: rows + rows)
        executor = Executor(store, udos)
        plan = normalize(builder.build(parse(
            "SELECT Brand FROM Parts PROCESS USING Double")))
        assert len(executor.execute(plan).rows) == 6

    def test_unknown_udo_passthrough(self, setup):
        result = run(setup, "SELECT Brand FROM Parts PROCESS USING Unknown")
        assert len(result.rows) == 3


class TestSpoolAndStats:
    def test_spool_writes_and_passes_through(self, setup):
        catalog, store, executor, builder = setup
        plan = normalize(builder.build(parse(
            "SELECT CustomerId FROM Sales WHERE Price > 9")))
        spooled = Spool(plan, signature="sig1", view_path="views/sig1")
        result = executor.execute(spooled)
        assert len(result.rows) == 2
        assert store.get("views/sig1") == result.rows
        assert len(result.spooled) == 1
        assert result.spooled[0].row_count == 2

    def test_node_stats_cover_every_operator(self, setup):
        catalog, store, executor, builder = setup
        plan = normalize(builder.build(parse(
            "SELECT CustomerId, SUM(Price) FROM Sales JOIN Customer "
            "WHERE MktSegment = 'Asia' GROUP BY CustomerId")))
        result = executor.execute(plan)
        recorded = {id(node) for node, _ in result.node_stats}
        assert all(id(node) in recorded for node in plan.walk())

    def test_input_accounting(self, setup):
        result = run(setup, "SELECT MktSegment FROM Sales JOIN Customer")
        assert result.input_rows == 7  # 4 sales + 3 customers
        assert result.input_bytes > 0
        assert result.data_read_bytes >= result.input_bytes

    def test_unbound_scan_raises(self, setup):
        catalog, store, executor, _ = setup
        with pytest.raises(ExecutionError):
            executor.execute(Scan("Sales", ("CustomerId",), None))

