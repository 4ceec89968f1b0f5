"""Unit tests for the mini TPC-DS workload."""

import pytest

from repro.engine import ScopeEngine
from repro.extensions import sparkcruise_tpcds
from repro.workload.tpcds import (
    TPCDS_QUERIES,
    install_tpcds,
    tpcds_schemas,
)


@pytest.fixture(scope="module")
def engine():
    eng = ScopeEngine()
    install_tpcds(eng, scale_rows=800)
    return eng


class TestSchema:
    def test_all_five_tables(self, engine):
        names = {s.name for s in tpcds_schemas()}
        assert names == {"store_sales", "date_dim", "item", "customer",
                         "store"}
        for name in names:
            assert engine.catalog.has(name)

    def test_fact_table_scale(self, engine):
        assert engine.catalog.current_version("store_sales").row_count == 800

    def test_foreign_keys_resolve(self, engine):
        sales = engine.store.get(engine.catalog.current_guid("store_sales"))
        dates = {r["d_date_sk"] for r in engine.store.get(
            engine.catalog.current_guid("date_dim"))}
        items = {r["i_item_sk"] for r in engine.store.get(
            engine.catalog.current_guid("item"))}
        assert all(r["ss_sold_date_sk"] in dates for r in sales)
        assert all(r["ss_item_sk"] in items for r in sales)

    def test_data_deterministic(self):
        a, b = ScopeEngine(), ScopeEngine()
        install_tpcds(a, scale_rows=200, seed=5)
        install_tpcds(b, scale_rows=200, seed=5)
        assert a.store.get(a.catalog.current_guid("store_sales")) == \
            b.store.get(b.catalog.current_guid("store_sales"))


class TestQueries:
    def test_all_queries_compile_and_run(self, engine):
        for name, sql in TPCDS_QUERIES:
            run = engine.run_sql(sql, reuse_enabled=False)
            assert isinstance(run.rows, list), name

    def test_date_window_queries_share_fragment(self, engine):
        from repro.signatures import enumerate_subexpressions
        sharers = [sql for _, sql in TPCDS_QUERIES if "d_qoy" in sql]
        assert len(sharers) >= 6
        signature_sets = []
        for sql in sharers[:4]:
            compiled = engine.compile(sql, reuse_enabled=False)
            signature_sets.append({
                s.strict for s in enumerate_subexpressions(
                    compiled.optimized.logical, engine.signature_salt)})
        common = set.intersection(*signature_sets)
        assert common  # the shared date-window core

    def test_suite_counters(self):
        suite = sparkcruise_tpcds(scale_rows=800, reuse=False)
        assert suite.work > 0
        assert suite.built == 0 and suite.reused == 0
        assert list(suite.results) == [name for name, _ in TPCDS_QUERIES]

    def test_brand_revenue_is_positive(self):
        suite = sparkcruise_tpcds(scale_rows=800, reuse=False)
        rows = suite.results["q3_brand_revenue"].rows
        assert rows
        assert all(r["revenue"] > 0 for r in rows)
