"""Property-based tests (hypothesis) for core invariants.

The invariants that make CloudViews *safe* in production:

* signatures are deterministic, normalization-stable, and sensitive to
  semantic changes;
* plan rewrites (pushdown, folding, normalization) never change results;
* reuse never changes results: a query answered from a materialized view
  returns exactly the rows of the recomputed query;
* the containment checker is sound (never claims containment that a
  brute-force evaluation refutes);
* selection never exceeds its storage budget.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, schema_of
from repro.executor import Executor
from repro.extensions import ContainmentChecker
from repro.optimizer import apply_rewrites
from repro.plan import PlanBuilder, normalize
from repro.plan.expressions import BinaryOp, ColumnRef, Literal, conjoin
from repro.selection import SelectionPolicy, greedy_select
from repro.selection.candidates import ReuseCandidate
from repro.selection.schedule import effective_frequency
from repro.signatures import strict_signature
from repro.sql import parse
from repro.storage import DataStore
from repro.telemetry import percentile

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# --------------------------------------------------------------------- #
# a small random-query universe over one fixed schema


def _environment():
    catalog = Catalog()
    store = DataStore()
    rows_events = [dict(UserId=i % 7, Value=float(i % 23),
                        Clicks=i % 5, Day=f"d{i % 3}")
                   for i in range(60)]
    rows_users = [dict(UserId=i, Segment=["Asia", "Europe", "Americas"][i % 3])
                  for i in range(7)]
    version = catalog.register(schema_of("Events", [
        ("UserId", "int"), ("Value", "float"), ("Clicks", "int"),
        ("Day", "str")]), len(rows_events))
    store.put(version.guid, rows_events)
    version = catalog.register(schema_of("Users", [
        ("UserId", "int"), ("Segment", "str")]), len(rows_users))
    store.put(version.guid, rows_users)
    return catalog, store


CATALOG, STORE = _environment()
EXECUTOR = Executor(STORE)

_NUMERIC_COLS = ["Value", "Clicks", "UserId"]
_COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]

predicates = st.lists(
    st.tuples(st.sampled_from(_NUMERIC_COLS),
              st.sampled_from(_COMPARISONS),
              st.integers(min_value=0, max_value=25)),
    min_size=1, max_size=3)

group_keys = st.sampled_from(["UserId", "Day", "Segment"])
aggregates = st.sampled_from(["SUM(Value)", "COUNT(*)", "MAX(Clicks)",
                              "AVG(Value)"])
join_flags = st.booleans()


def build_sql(conjuncts_spec, key, agg, with_join):
    where = " AND ".join(f"{c} {op} {v}" for c, op, v in conjuncts_spec)
    table = "Events JOIN Users" if with_join else "Events"
    if not with_join and key == "Segment":
        key = "Day"
    return (f"SELECT {key}, {agg} AS m FROM {table} "
            f"WHERE {where} GROUP BY {key}")


def run_plan(plan):
    return sorted(tuple(sorted(r.items())) for r in EXECUTOR.execute(plan).rows)


def compile_plan(sql):
    return PlanBuilder(CATALOG).build(parse(sql))


# --------------------------------------------------------------------- #
# signature invariants


@SETTINGS
@given(predicates, group_keys, aggregates, join_flags)
def test_signature_deterministic(spec, key, agg, join):
    sql = build_sql(spec, key, agg, join)
    a = normalize(apply_rewrites(compile_plan(sql)))
    b = normalize(apply_rewrites(compile_plan(sql)))
    assert strict_signature(a) == strict_signature(b)


@SETTINGS
@given(predicates, group_keys, aggregates, join_flags,
       st.randoms(use_true_random=False))
def test_signature_stable_under_conjunct_permutation(spec, key, agg, join, rng):
    shuffled = list(spec)
    rng.shuffle(shuffled)
    a = normalize(apply_rewrites(compile_plan(build_sql(spec, key, agg, join))))
    b = normalize(apply_rewrites(compile_plan(
        build_sql(shuffled, key, agg, join))))
    assert strict_signature(a) == strict_signature(b)


@SETTINGS
@given(predicates, group_keys, aggregates, join_flags)
def test_signature_sensitive_to_literal_change(spec, key, agg, join):
    column, op, value = spec[0]
    changed = [(column, op, value + 1000)] + list(spec[1:])
    a = normalize(apply_rewrites(compile_plan(build_sql(spec, key, agg, join))))
    b = normalize(apply_rewrites(compile_plan(
        build_sql(changed, key, agg, join))))
    assert strict_signature(a) != strict_signature(b)


# --------------------------------------------------------------------- #
# rewrite correctness


@SETTINGS
@given(predicates, group_keys, aggregates, join_flags)
def test_rewrites_preserve_results(spec, key, agg, join):
    sql = build_sql(spec, key, agg, join)
    raw = compile_plan(sql)
    rewritten = normalize(apply_rewrites(raw))
    assert run_plan(raw) == run_plan(rewritten)


@SETTINGS
@given(predicates, group_keys, aggregates, join_flags)
def test_reuse_preserves_results(spec, key, agg, join):
    """Materialize a random subexpression, re-match it, compare results."""
    from repro.optimizer import OptimizerContext, optimize, Annotation
    from repro.signatures import enumerate_subexpressions, signature_tag
    from repro.storage import ViewStore

    sql = build_sql(spec, key, agg, join)
    plan = normalize(apply_rewrites(compile_plan(sql)))
    expected = run_plan(plan)

    subs = [s for s in enumerate_subexpressions(plan)
            if s.height >= 1 and s.eligible]
    if not subs:
        return
    target = subs[len(subs) // 2]
    ctx = OptimizerContext(catalog=CATALOG, view_store=ViewStore(),
                           annotations={target.recurring: Annotation(
                               target.recurring, signature_tag(target.recurring))})
    first = optimize(plan, ctx, now=0.0)
    result_first = EXECUTOR.execute(first.plan)
    for spool in result_first.spooled:
        ctx.view_store.seal(spool.signature, 0.5, spool.row_count,
                            spool.size_bytes)
    second = optimize(plan, ctx, now=1.0)
    rows_second = sorted(tuple(sorted(r.items()))
                         for r in EXECUTOR.execute(second.plan).rows)
    assert sorted(tuple(sorted(r.items()))
                  for r in result_first.rows) == expected
    assert rows_second == expected


# --------------------------------------------------------------------- #
# containment soundness


range_specs = st.tuples(st.sampled_from(["<", "<=", ">", ">=", "="]),
                        st.integers(-20, 20))


@SETTINGS
@given(range_specs, range_specs, st.lists(st.integers(-25, 25), min_size=20,
                                          max_size=60))
def test_containment_soundness(general_spec, specific_spec, samples):
    """If the checker claims containment, no sample value refutes it."""
    checker = ContainmentChecker()
    gop, gval = general_spec
    sop, sval = specific_spec
    general = BinaryOp(gop, ColumnRef("x"), Literal(gval))
    specific = BinaryOp(sop, ColumnRef("x"), Literal(sval))
    if checker.contains(general, specific):
        for value in samples:
            row = {"x": value}
            if specific.evaluate(row):
                assert general.evaluate(row)


# --------------------------------------------------------------------- #
# selection / scheduling / percentile invariants


candidates_strategy = st.lists(
    st.tuples(st.integers(2, 20),           # frequency
              st.integers(1, 5),            # instances
              st.integers(1, 500),          # avg_rows
              st.integers(8, 100_000),      # avg_bytes
              st.floats(min_value=1.0, max_value=1e6)),  # avg_work
    min_size=0, max_size=30)


@SETTINGS
@given(candidates_strategy, st.integers(0, 200_000))
def test_greedy_never_exceeds_budget(specs, budget):
    candidates = []
    for index, (freq, inst, rows, size, work) in enumerate(specs):
        inst = min(inst, freq)
        candidates.append(ReuseCandidate(
            recurring=f"r{index}", tag=f"t{index}", operator="Join",
            height=2, frequency=freq, instances=inst, distinct_jobs=freq,
            avg_rows=rows, avg_bytes=size, avg_work=work,
            virtual_clusters=frozenset({"vc"}),
            instance_times=tuple((0.0,) * (freq // inst + 1)
                                 for _ in range(inst))))
    policy = SelectionPolicy(storage_budget_bytes=budget,
                             min_reuses_per_epoch=0.0)
    result = greedy_select(candidates, policy)
    assert result.storage_used <= budget
    assert all(c.benefit > 0 for c in result.selected)


@SETTINGS
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                max_size=40),
       st.floats(min_value=0, max_value=1e5))
def test_effective_frequency_bounds(times, lag):
    effective = effective_frequency(tuple(sorted(times)), lag)
    assert 1 <= effective <= len(times)


@SETTINGS
@given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False), min_size=1, max_size=50),
       st.floats(min_value=0, max_value=100))
def test_percentile_within_bounds(values, pct):
    result = percentile(values, pct)
    assert min(values) <= result <= max(values)


@SETTINGS
@given(st.lists(st.integers(0, 100), min_size=1, max_size=50))
def test_percentile_monotone_in_pct(values):
    p25 = percentile(values, 25)
    p50 = percentile(values, 50)
    p75 = percentile(values, 75)
    assert p25 <= p50 <= p75
