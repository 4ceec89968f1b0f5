"""Figure 4: computation reuse across three analysts on shared datasets.

The paper's scenario: three analysts over Customer/Sales/Parts, all
studying the Asia segment.  Their queries look different, but their plans
share large subexpressions; CloudViews materializes the common fragments
and rewrites the later plans to scan them (Figure 4b).
"""

from repro.api import Session
from repro.catalog import schema_of
from repro.core import MultiLevelControls
from repro.plan import ViewScan
from repro.selection import SelectionPolicy

Q1 = ("SELECT CustomerId, AVG(Price * Quantity) FROM Sales JOIN Customer "
      "WHERE MktSegment = 'Asia' GROUP BY CustomerId")
Q2 = ("SELECT Brand, AVG(Discount) FROM Sales JOIN Customer JOIN Parts "
      "WHERE MktSegment = 'Asia' GROUP BY Brand")
Q3 = ("SELECT PartType, SUM(Quantity) FROM Sales JOIN Customer JOIN Parts "
      "WHERE MktSegment = 'Asia' GROUP BY PartType")


def make_cloudviews():
    controls = MultiLevelControls()
    controls.enable_vc("analysts")
    cv = Session(controls=controls,
                 policy=SelectionPolicy(min_reuses_per_epoch=0.0))
    engine = cv.engine
    engine.register_table(
        schema_of("Sales", [
            ("CustomerId", "int"), ("PartId", "int"), ("Price", "float"),
            ("Quantity", "int"), ("Discount", "float")]),
        [dict(CustomerId=i % 20, PartId=i % 8, Price=float(i % 97),
              Quantity=1 + i % 5, Discount=(i % 10) / 100.0)
         for i in range(400)])
    engine.register_table(
        schema_of("Customer", [("CustomerId", "int"), ("MktSegment", "str")]),
        [dict(CustomerId=i,
              MktSegment=["Asia", "Europe", "Americas"][i % 3])
         for i in range(20)])
    engine.register_table(
        schema_of("Parts", [("PartId", "int"), ("Brand", "str"),
                            ("PartType", "str")]),
        [dict(PartId=i, Brand=f"brand{i % 3}", PartType=f"type{i % 2}")
         for i in range(8)])
    return cv


def run_scenario():
    cv = make_cloudviews()
    # Day 0: the three analysts run their reports; CloudViews observes.
    for template, sql in (("t1", Q1), ("t2", Q2), ("t3", Q3)):
        cv.run(sql, virtual_cluster="analysts", template_id=template,
               now=0.0)
    selection = cv.analyze_and_publish()
    # Day 0 (later): the recurring reports run again over the same inputs.
    runs = [cv.run(sql, virtual_cluster="analysts", template_id=template,
                   now=100.0 + i)
            for i, (template, sql) in enumerate(
                (("t1", Q1), ("t2", Q2), ("t3", Q3)))]
    return cv, selection, runs


def test_fig4_analyst_reuse(benchmark):
    cv, selection, runs = benchmark.pedantic(run_scenario, rounds=1,
                                             iterations=1)
    r1, r2, r3 = runs

    print("\nFigure 4: three analysts, shared Asia-segment fragments")
    print(f"view selection: {selection.summary()}")
    for name, run in (("Q1 avg sales/customer", r1),
                      ("Q2 avg discount/brand", r2),
                      ("Q3 total quantity/part type", r3)):
        print(f"{name:<32} built={run.compiled.built_views} "
              f"reused={run.compiled.reused_views}")
        print(run.compiled.plan.explain())

    # The common computation was selected and materialized once...
    assert selection.selected
    assert cv.views_created >= 1
    # ...and at least the later analysts' plans were rewritten to scan it
    # (Figure 4b: CloudView boxes replace the shared subplans).
    assert r2.compiled.reused_views + r3.compiled.reused_views >= 2
    assert any(isinstance(n, ViewScan) for n in r2.compiled.plan.walk())
    assert any(isinstance(n, ViewScan) for n in r3.compiled.plan.walk())

    # Correctness: identical answers to a reuse-free engine.
    for sql, run in ((Q1, r1), (Q2, r2), (Q3, r3)):
        clean = cv.engine.run_sql(sql, reuse_enabled=False, now=200.0)
        assert sorted(map(repr, run.rows)) == sorted(map(repr, clean.rows))
