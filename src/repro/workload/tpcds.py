"""A miniature TPC-DS-style decision-support workload.

The paper evaluates SparkCruise on TPC-DS: "On TPC-DS benchmarks,
SparkCruise can reduce the running time by approximately 30%"
(Section 5.5), and the original CloudViews work used TPC-DS in
pre-production too.  This module provides a scaled-down star schema
(store_sales fact with date, item, customer, and store dimensions) and a
suite of simplified TPC-DS-inspired query templates.  Like the real
benchmark, many queries share the same date-filtered fact/dimension join
cores, which is exactly the redundancy computation reuse exploits.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

from repro.catalog.schema import TableSchema, schema_of
from repro.common.rng import rng_for
from repro.engine.engine import ScopeEngine
from repro.plan.expressions import Row
from repro.scheduler.scheduler import JobRequest

CATEGORIES = ["Books", "Electronics", "Home", "Music", "Shoes", "Sports"]
STATES = ["CA", "TX", "WA", "NY", "GA", "IL"]
EDUCATION = ["College", "HighSchool", "Advanced"]


def tpcds_schemas() -> List[TableSchema]:
    return [
        schema_of("store_sales", [
            ("ss_sold_date_sk", "int"), ("ss_item_sk", "int"),
            ("ss_customer_sk", "int"), ("ss_store_sk", "int"),
            ("ss_quantity", "int"), ("ss_sales_price", "float"),
            ("ss_net_profit", "float")]),
        schema_of("date_dim", [
            ("d_date_sk", "int"), ("d_year", "int"), ("d_moy", "int"),
            ("d_qoy", "int")]),
        schema_of("item", [
            ("i_item_sk", "int"), ("i_category", "str"),
            ("i_brand", "str"), ("i_current_price", "float")]),
        schema_of("customer", [
            ("c_customer_sk", "int"), ("c_state", "str"),
            ("c_education", "str"), ("c_birth_year", "int")]),
        schema_of("store", [
            ("s_store_sk", "int"), ("s_state", "str"),
            ("s_floor_space", "int")]),
    ]


def install_tpcds(engine: ScopeEngine, scale_rows: int = 2000,
                  seed: int = 42) -> None:
    """Register the star schema with synthetic data.

    ``scale_rows`` is the fact-table row count; dimensions scale with it.
    """
    rng = rng_for(seed, "tpcds")
    dates = max(12, scale_rows // 100)
    items = max(20, scale_rows // 40)
    customers = max(30, scale_rows // 20)
    stores = max(6, scale_rows // 300)

    tables: Dict[str, List[Row]] = {
        "date_dim": [
            dict(d_date_sk=i, d_year=1998 + i % 5, d_moy=1 + i % 12,
                 d_qoy=1 + (i % 12) // 3)
            for i in range(dates)],
        "item": [
            dict(i_item_sk=i, i_category=rng.choice(CATEGORIES),
                 i_brand=f"brand#{i % 10}",
                 i_current_price=round(rng.uniform(1.0, 300.0), 2))
            for i in range(items)],
        "customer": [
            dict(c_customer_sk=i, c_state=rng.choice(STATES),
                 c_education=rng.choice(EDUCATION),
                 c_birth_year=rng.randint(1940, 2000))
            for i in range(customers)],
        "store": [
            dict(s_store_sk=i, s_state=rng.choice(STATES),
                 s_floor_space=rng.randint(5_000, 9_000))
            for i in range(stores)],
        "store_sales": [
            dict(ss_sold_date_sk=rng.randrange(dates),
                 ss_item_sk=rng.randrange(items),
                 ss_customer_sk=rng.randrange(customers),
                 ss_store_sk=rng.randrange(stores),
                 ss_quantity=rng.randint(1, 20),
                 ss_sales_price=round(rng.uniform(1.0, 300.0), 2),
                 ss_net_profit=round(rng.uniform(-50.0, 120.0), 2))
            for _ in range(scale_rows)],
    }
    for schema in tpcds_schemas():
        engine.register_table(schema, tables[schema.name])


#: The shared core most queries build on: the 1998 Q1-Q2 slice of sales.
_SALES_IN_WINDOW = ("store_sales JOIN date_dim "
                    "ON ss_sold_date_sk = d_date_sk")
_WINDOW = "d_year = 1998 AND d_qoy <= 2"

#: Simplified TPC-DS-inspired templates.  Queries 1-8 share the
#: date-window core (as e.g. TPC-DS q3/q7/q19/q42/q52/q55 share the
#: date_dim x store_sales x item shape); 9-12 are distinct shapes.
TPCDS_QUERIES: Tuple[Tuple[str, str], ...] = (
    ("q3_brand_revenue",
     f"SELECT i_brand, SUM(ss_sales_price) AS revenue "
     f"FROM {_SALES_IN_WINDOW} JOIN item ON ss_item_sk = i_item_sk "
     f"WHERE {_WINDOW} GROUP BY i_brand"),
    ("q42_category_revenue",
     f"SELECT i_category, SUM(ss_sales_price) AS revenue "
     f"FROM {_SALES_IN_WINDOW} JOIN item ON ss_item_sk = i_item_sk "
     f"WHERE {_WINDOW} GROUP BY i_category"),
    ("q52_brand_quantity",
     f"SELECT i_brand, SUM(ss_quantity) AS qty "
     f"FROM {_SALES_IN_WINDOW} JOIN item ON ss_item_sk = i_item_sk "
     f"WHERE {_WINDOW} GROUP BY i_brand"),
    ("q55_category_profit",
     f"SELECT i_category, SUM(ss_net_profit) AS profit "
     f"FROM {_SALES_IN_WINDOW} JOIN item ON ss_item_sk = i_item_sk "
     f"WHERE {_WINDOW} GROUP BY i_category"),
    ("q7_state_avg_price",
     f"SELECT c_state, AVG(ss_sales_price) AS avg_price "
     f"FROM {_SALES_IN_WINDOW} "
     f"JOIN customer ON ss_customer_sk = c_customer_sk "
     f"WHERE {_WINDOW} GROUP BY c_state"),
    ("q7_education_quantity",
     f"SELECT c_education, SUM(ss_quantity) AS qty "
     f"FROM {_SALES_IN_WINDOW} "
     f"JOIN customer ON ss_customer_sk = c_customer_sk "
     f"WHERE {_WINDOW} GROUP BY c_education"),
    ("q19_store_profit",
     f"SELECT s_state, SUM(ss_net_profit) AS profit "
     f"FROM {_SALES_IN_WINDOW} JOIN store ON ss_store_sk = s_store_sk "
     f"WHERE {_WINDOW} GROUP BY s_state"),
    ("q19_store_volume",
     f"SELECT s_state, COUNT(*) AS transactions "
     f"FROM {_SALES_IN_WINDOW} JOIN store ON ss_store_sk = s_store_sk "
     f"WHERE {_WINDOW} GROUP BY s_state"),
    ("q96_monthly_counts",
     "SELECT d_moy, COUNT(*) AS n FROM store_sales JOIN date_dim "
     "ON ss_sold_date_sk = d_date_sk WHERE d_year = 1999 GROUP BY d_moy"),
    ("q9_price_buckets",
     "SELECT ss_store_sk, COUNT(*) AS n FROM store_sales "
     "WHERE ss_sales_price > 150 GROUP BY ss_store_sk"),
    ("q26_pricey_items",
     "SELECT i_category, AVG(i_current_price) AS avg_price FROM item "
     "WHERE i_current_price > 50 GROUP BY i_category"),
    ("q1_profitable_customers",
     "SELECT c_state, COUNT(*) AS n "
     "FROM store_sales JOIN customer ON ss_customer_sk = c_customer_sk "
     "WHERE ss_net_profit > 0 GROUP BY c_state"),
)


def tpcds_history(scale_rows: int, reuse: bool) -> list:
    """Two rounds of the suite, one job per wave, selection between them
    (a history for :func:`repro.history.replay`)."""
    rounds = [[("wave", 1000.0 * round_no + offset, [(
                   f"r{round_no}:{name}",
                   JobRequest(sql=sql, template_id=name,
                              reuse_enabled=reuse))])
               for offset, (name, sql) in enumerate(TPCDS_QUERIES)]
              for round_no in (1, 2)]
    install = functools.partial(install_tpcds, scale_rows=scale_rows)
    return [("install", install), *rounds[0],
            *([("publish",)] if reuse else []), *rounds[1]]
