"""Edge-case tests across the frontend and engine."""

import pytest

from repro.catalog import Catalog, schema_of
from repro.common.errors import (BindError, CatalogError, ParseError,
                                 StorageError)
from repro.engine import ScopeEngine
from repro.plan import PlanBuilder, normalize
from repro.sql import parse


@pytest.fixture
def engine():
    eng = ScopeEngine()
    eng.register_table(
        schema_of("T", [("a", "int"), ("b", "str"), ("c", "float")]),
        [dict(a=1, b="x", c=1.5), dict(a=2, b="y", c=2.5),
         dict(a=None, b=None, c=None)])
    return eng


class TestNullHandling:
    def test_nulls_filtered_by_comparison(self, engine):
        run = engine.run_sql("SELECT a FROM T WHERE a > 0",
                             reuse_enabled=False)
        assert sorted(r["a"] for r in run.rows) == [1, 2]

    def test_is_null(self, engine):
        run = engine.run_sql("SELECT b FROM T WHERE a IS NULL",
                             reuse_enabled=False)
        assert run.rows == [{"b": None}]

    def test_aggregates_skip_nulls(self, engine):
        run = engine.run_sql(
            "SELECT COUNT(a) AS ca, COUNT(*) AS cs, AVG(c) AS avg FROM T",
            reuse_enabled=False)
        assert run.rows == [{"ca": 2, "cs": 3, "avg": 2.0}]

    def test_group_by_null_key_forms_group(self, engine):
        run = engine.run_sql("SELECT a, COUNT(*) AS n FROM T GROUP BY a",
                             reuse_enabled=False)
        assert len(run.rows) == 3

    def test_null_sorts_first(self, engine):
        run = engine.run_sql("SELECT a FROM T ORDER BY a",
                             reuse_enabled=False)
        assert run.rows[0]["a"] is None


class TestParserEdges:
    def test_empty_string(self):
        with pytest.raises(ParseError):
            parse("")

    def test_keyword_as_identifier_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT SELECT FROM T")

    def test_deeply_nested_parentheses(self):
        query = parse("SELECT ((((a)))) FROM T")
        assert query.selects[0].items[0].expr.name == "a"

    def test_nested_subqueries(self):
        query = parse(
            "SELECT x FROM (SELECT x FROM (SELECT a AS x FROM T) AS i) AS o")
        assert query.selects[0].relation.alias == "o"

    def test_case_insensitive_functions(self):
        expr = parse("SELECT sum(a) FROM T").selects[0].items[0].expr
        assert expr.name == "SUM"

    def test_negative_literal_in_comparison(self):
        stmt = parse("SELECT a FROM T WHERE a > -5").selects[0]
        assert stmt.where.right.op == "-"

    def test_string_with_unicode(self):
        stmt = parse("SELECT a FROM T WHERE b = 'héllo→世界'").selects[0]
        assert stmt.where.right.value == "héllo→世界"

    def test_comment_only_after_statement(self):
        query = parse("SELECT a FROM T -- trailing comment")
        assert query.selects[0].relation.name == "T"


class TestBuilderEdges:
    @pytest.fixture
    def catalog(self):
        cat = Catalog()
        cat.register(schema_of("T", [("a", "int"), ("b", "str")]), 5)
        return cat

    def test_self_join_with_aliases(self, catalog):
        plan = PlanBuilder(catalog).build(parse(
            "SELECT x.a FROM T x JOIN T y ON x.a = y.a"))
        assert plan.schema == ("a",)

    def test_self_join_without_aliases_rejected(self, catalog):
        with pytest.raises(BindError):
            PlanBuilder(catalog).build(parse(
                "SELECT a FROM T JOIN T ON a = a"))

    def test_group_by_qualified_column(self, catalog):
        plan = PlanBuilder(catalog).build(parse(
            "SELECT t.a, COUNT(*) AS n FROM T t GROUP BY t.a"))
        assert plan.schema == ("a", "n")

    def test_unbound_param_left_symbolic(self, catalog):
        plan = PlanBuilder(catalog).build(parse(
            "SELECT a FROM T WHERE b = @later"))
        from repro.plan import Filter
        flt = next(n for n in plan.walk() if isinstance(n, Filter))
        assert flt.predicate.right.param_name == "later"
        assert flt.predicate.right.value is None

    def test_extra_params_ignored(self, catalog):
        plan = PlanBuilder(catalog, params={"unused": 1}).build(parse(
            "SELECT a FROM T"))
        assert plan.schema == ("a",)


class TestEngineEdges:
    def test_empty_table(self):
        engine = ScopeEngine()
        engine.register_table(schema_of("E", [("x", "int")]), [])
        run = engine.run_sql("SELECT x, COUNT(*) AS n FROM E GROUP BY x",
                             reuse_enabled=False)
        assert run.rows == []

    def test_duplicate_table_registration_rejected(self, engine):
        with pytest.raises(CatalogError):
            engine.register_table(schema_of("T", [("z", "int")]), [])

    def test_bulk_update_gc_keeps_recent_versions(self, engine):
        guids = [engine.catalog.current_guid("T")]
        for i in range(5):
            engine.bulk_update("T", [dict(a=i, b="x", c=0.0)],
                               keep_versions=2)
            guids.append(engine.catalog.current_guid("T"))
        # The most recent versions remain readable; ancient ones are gone.
        assert engine.store.read(guids[-1]).length == 1
        assert engine.store.read(guids[-2]).length == 1
        with pytest.raises(StorageError):
            engine.store.read(guids[0])

    def test_current_version_always_readable_after_gc(self, engine):
        for i in range(4):
            engine.bulk_update("T", [dict(a=i, b="b", c=1.0)],
                               keep_versions=1)
        run = engine.run_sql("SELECT a FROM T", reuse_enabled=False)
        assert run.rows == [{"a": 3}]

    def test_run_after_runtime_upgrade_still_correct(self, engine):
        before = engine.run_sql("SELECT a FROM T WHERE a > 0",
                                reuse_enabled=False)
        engine.set_runtime_version("scope-r9")
        after = engine.run_sql("SELECT a FROM T WHERE a > 0",
                               reuse_enabled=False)
        assert sorted(map(repr, before.rows)) == sorted(map(repr, after.rows))
