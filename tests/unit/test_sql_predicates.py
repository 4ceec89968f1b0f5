"""Unit tests for IN / BETWEEN / LIKE predicates end to end."""

import pytest

from repro.catalog import Catalog, schema_of
from repro.common.errors import ParseError
from repro.executor import Executor
from repro.plan import InList, Like, PlanBuilder, normalize
from repro.signatures import strict_signature
from repro.sql import parse
from repro.storage import DataStore
from tests.batches import evaluate_batch


@pytest.fixture
def env():
    catalog = Catalog()
    store = DataStore()
    version = catalog.register(
        schema_of("T", [("k", "int"), ("name", "str"), ("v", "float")]), 8)
    store.put(version.guid, [
        dict(k=1, name="alpha", v=1.0),
        dict(k=2, name="beta", v=2.0),
        dict(k=3, name="alphabet", v=3.0),
        dict(k=4, name="gamma", v=4.0),
        dict(k=5, name=None, v=5.0),
        dict(k=6, name="al", v=6.0),
        dict(k=7, name="ALPHA", v=7.0),
        dict(k=8, name="beta", v=None),
    ])
    return catalog, store


def run(env, sql):
    catalog, store = env
    plan = normalize(PlanBuilder(catalog).build(parse(sql)))
    return Executor(store).execute(plan).rows


class TestInList:
    def test_basic_in(self, env):
        rows = run(env, "SELECT k FROM T WHERE k IN (1, 3, 5)")
        assert sorted(r["k"] for r in rows) == [1, 3, 5]

    def test_not_in(self, env):
        rows = run(env, "SELECT k FROM T WHERE k NOT IN (1, 2, 3, 4, 5, 6)")
        assert sorted(r["k"] for r in rows) == [7, 8]

    def test_string_in(self, env):
        rows = run(env, "SELECT k FROM T WHERE name IN ('alpha', 'beta')")
        assert sorted(r["k"] for r in rows) == [1, 2, 8]

    def test_null_never_in(self, env):
        rows = run(env, "SELECT k FROM T WHERE name IN ('alpha')")
        assert 5 not in {r["k"] for r in rows}
        rows = run(env, "SELECT k FROM T WHERE name NOT IN ('alpha')")
        assert 5 not in {r["k"] for r in rows}  # SQL-ish: NULL matches nothing

    def test_in_signature_order_insensitive(self, env):
        catalog, _ = env
        a = normalize(PlanBuilder(catalog).build(parse(
            "SELECT k FROM T WHERE k IN (1, 2, 3)")))
        b = normalize(PlanBuilder(catalog).build(parse(
            "SELECT k FROM T WHERE k IN (3, 1, 2)")))
        assert strict_signature(a) == strict_signature(b)

    def test_in_requires_literals(self, env):
        with pytest.raises(ParseError):
            parse("SELECT k FROM T WHERE k IN (v, 2)")

    def test_in_parses_to_inlist_node(self):
        stmt = parse("SELECT k FROM T WHERE k IN (1, 2)").selects[0]
        assert isinstance(stmt.where, InList)
        assert not stmt.where.negated


class TestBetween:
    def test_between_inclusive(self, env):
        rows = run(env, "SELECT k FROM T WHERE k BETWEEN 2 AND 4")
        assert sorted(r["k"] for r in rows) == [2, 3, 4]

    def test_not_between(self, env):
        rows = run(env, "SELECT k FROM T WHERE k NOT BETWEEN 2 AND 7")
        assert sorted(r["k"] for r in rows) == [1, 8]

    def test_between_desugars_to_range(self, env):
        catalog, _ = env
        a = normalize(PlanBuilder(catalog).build(parse(
            "SELECT k FROM T WHERE k BETWEEN 2 AND 4")))
        b = normalize(PlanBuilder(catalog).build(parse(
            "SELECT k FROM T WHERE k >= 2 AND k <= 4")))
        assert strict_signature(a) == strict_signature(b)

    def test_between_in_conjunction(self, env):
        rows = run(env,
                   "SELECT k FROM T WHERE k BETWEEN 1 AND 6 AND v > 2.5")
        assert sorted(r["k"] for r in rows) == [3, 4, 5, 6]


class TestLike:
    def test_prefix_match(self, env):
        rows = run(env, "SELECT k FROM T WHERE name LIKE 'alpha%'")
        assert sorted(r["k"] for r in rows) == [1, 3]

    def test_underscore_single_char(self, env):
        rows = run(env, "SELECT k FROM T WHERE name LIKE 'a_'")
        assert sorted(r["k"] for r in rows) == [6]

    def test_contains_match(self, env):
        rows = run(env, "SELECT k FROM T WHERE name LIKE '%et%'")
        assert sorted(r["k"] for r in rows) == [2, 3, 8]

    def test_not_like(self, env):
        rows = run(env, "SELECT k FROM T WHERE name NOT LIKE '%a%'")
        # 'beta' x2 contain 'a'... check: beta has 'a'; so only k=7? ALPHA
        # is uppercase (LIKE is case sensitive here).
        assert sorted(r["k"] for r in rows) == [7]

    def test_like_is_case_sensitive(self, env):
        rows = run(env, "SELECT k FROM T WHERE name LIKE 'ALPHA'")
        assert sorted(r["k"] for r in rows) == [7]

    def test_null_never_like(self, env):
        rows = run(env, "SELECT k FROM T WHERE name LIKE '%'")
        assert 5 not in {r["k"] for r in rows}

    def test_like_regex_chars_escaped(self, env):
        catalog, store = env
        version = catalog.register(
            schema_of("P", [("s", "str")]), 2)
        store.put(version.guid, [dict(s="a.b"), dict(s="axb")])
        rows = run((catalog, store), "SELECT s FROM P WHERE s LIKE 'a.b'")
        assert [r["s"] for r in rows] == ["a.b"]

    def test_pattern_regex_is_built_once(self):
        from repro.plan.expressions import (
            ColumnRef,
            _like_match,
            _like_regex,
        )
        assert _like_regex("a.b_%") is _like_regex("a.b_%")
        assert _like_regex("a.b_%").pattern == r"a\.b..*"
        assert _like_match("a.bxyz", "a.b_%")
        assert not _like_match("axbxyz", "a.b_%")
        row = dict(s="a.bx")
        like = Like(ColumnRef("s"), "a.b_")
        assert like.evaluate(row) is True
        assert evaluate_batch(like, [row]) == [True]

    def test_like_parses_to_node(self):
        stmt = parse("SELECT k FROM T WHERE name LIKE 'x%'").selects[0]
        assert isinstance(stmt.where, Like)
        assert stmt.where.pattern == "x%"


class TestLogicalNotStillWorks:
    def test_plain_not_predicate(self, env):
        rows = run(env, "SELECT k FROM T WHERE NOT k = 1")
        assert 1 not in {r["k"] for r in rows}

    def test_not_in_within_and(self, env):
        rows = run(env,
                   "SELECT k FROM T WHERE v > 1 AND k NOT IN (2, 3)")
        assert sorted(r["k"] for r in rows) == [4, 5, 6, 7]
