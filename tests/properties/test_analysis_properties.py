"""Property-based soundness tests over every plan the builder produces.

* Signatures: a structural rebuild (fresh operator objects) and a
  shuffle of Union inputs keep both signatures; probing the time-varying
  inputs (fresh stream GUIDs, perturbed parameter values) keeps the
  recurring signature and moves the strict one.
* The debug-mode validator: random SQL, the TPC-DS suite and the
  generated cooking templates, rewritten and normalized, are their own
  normal form, so ``optimize(..., normalized=True)`` accepts them with
  debug checks on (it raises ``LintError`` otherwise).

``tests/unit/test_analysis_rules.py`` holds the corruption-driven tests.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, schema_of
from repro.common.rng import rng_for
from repro.optimizer import OptimizerContext, optimize
from repro.optimizer.rules import apply_rewrites
from repro.plan import PlanBuilder, normalize
from repro.plan.expressions import Literal, rewrite
from repro.plan.logical import Filter, GroupBy, Join, Project, Scan, Union
from repro.signatures import recurring_signature, strict_signature
from repro.sql import parse
from repro.storage import ViewStore
from repro.workload import generate_workload
from repro.workload.tpcds import TPCDS_QUERIES, tpcds_schemas


def rebuild(plan):
    """Structurally identical clone built from fresh operator objects."""
    children = plan.children()
    if not children:
        return plan
    return plan.with_children([rebuild(child) for child in children])


def _probe_literal(expr):
    if isinstance(expr, Literal) and expr.param_name is not None:
        return Literal(f"{expr.value!r}«probe»", expr.param_name)
    return None


def probe_inputs(plan):
    """Rewrite time-varying inputs: fresh stream GUIDs on every Scan and
    perturbed values in every parameter-bound literal.

    Returns the rewritten plan and whether anything changed.  The
    recurring signature must be invariant under this rewrite; the strict
    signature must not be.
    """
    changed = False

    def visit(node):
        nonlocal changed
        children = [visit(child) for child in node.children()]
        if children and any(n is not o for n, o in
                            zip(children, node.children())):
            node = node.with_children(children)
        if isinstance(node, Scan):
            changed = True
            return dataclasses.replace(
                node, stream_guid=f"probe-{node.stream_guid or 'fresh'}")
        replacements = {}
        if isinstance(node, Filter):
            replacements["predicate"] = rewrite(node.predicate,
                                                _probe_literal)
        elif isinstance(node, Project):
            replacements["exprs"] = tuple(
                rewrite(e, _probe_literal) for e in node.exprs)
        elif isinstance(node, Join):
            replacements["left_keys"] = tuple(
                rewrite(e, _probe_literal) for e in node.left_keys)
            replacements["right_keys"] = tuple(
                rewrite(e, _probe_literal) for e in node.right_keys)
            if node.residual is not None:
                replacements["residual"] = rewrite(node.residual,
                                                   _probe_literal)
        elif isinstance(node, GroupBy):
            replacements["aggregates"] = tuple(
                rewrite(a, _probe_literal) for a in node.aggregates)
        else:
            return node
        if all(_same_exprs(getattr(node, name), value)
               for name, value in replacements.items()):
            return node
        changed = True
        return dataclasses.replace(node, **replacements)

    return visit(plan), changed


def _same_exprs(old, new):
    if isinstance(old, tuple):
        return len(old) == len(new) and all(o is n for o, n in zip(old, new))
    return old is new


SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

SALT = "scope-r1"


def _catalog():
    catalog = Catalog()
    catalog.register(schema_of("Events", [
        ("UserId", "int"), ("Value", "float"), ("Clicks", "int"),
        ("Day", "str")]), 100)
    catalog.register(schema_of("Users", [
        ("Id", "int"), ("Segment", "str")]), 10)
    return catalog


CATALOG = _catalog()

_NUMERIC_COLS = ["Value", "Clicks", "UserId"]
_COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]

predicates = st.lists(
    st.tuples(st.sampled_from(_NUMERIC_COLS),
              st.sampled_from(_COMPARISONS),
              st.integers(min_value=0, max_value=25)),
    min_size=0, max_size=3)

aggregates = st.sampled_from(
    ["COUNT(*)", "SUM(Value)", "MIN(Clicks)", "MAX(Value)", "AVG(Clicks)"])

group_keys = st.sampled_from(["UserId", "Day"])

join_flags = st.booleans()


def build_sql(key, agg, preds, joined, param_day):
    where = " AND ".join(f"{col} {op} {value}"
                         for col, op, value in preds)
    if param_day:
        clause = "Day = @runDate"
        where = f"{where} AND {clause}" if where else clause
    source = ("Events JOIN Users ON UserId = Id"
              if joined else "Events")
    sql = f"SELECT {key}, {agg} AS metric FROM {source}"
    if where:
        sql += f" WHERE {where}"
    sql += f" GROUP BY {key}"
    return sql


def build_plan(key, agg, preds, joined, param_day):
    params = {"runDate": "d0042"} if param_day else None
    sql = build_sql(key, agg, preds, joined, param_day)
    return normalize(PlanBuilder(CATALOG, params).build(parse(sql)))


def assert_debug_checks_accept(plan, catalog):
    """What the engine hands ``optimize`` -- the rewritten, normalized
    plan -- passes the debug-mode check that it is its own normal form."""
    logical = normalize(apply_rewrites(plan))
    ctx = OptimizerContext(catalog=catalog, view_store=ViewStore(),
                           salt=SALT, debug_checks=True)
    assert optimize(logical, ctx, normalized=True).logical is logical


@given(key=group_keys, agg=aggregates, preds=predicates,
       joined=join_flags, param_day=st.booleans())
@SETTINGS
def test_validator_accepts_every_built_plan(key, agg, preds, joined,
                                            param_day):
    plan = build_plan(key, agg, preds, joined, param_day)
    assert_debug_checks_accept(plan, CATALOG)


@given(key=group_keys, agg=aggregates, preds=predicates,
       joined=join_flags, param_day=st.booleans())
@SETTINGS
def test_signatures_survive_structural_rebuild(key, agg, preds, joined,
                                               param_day):
    plan = build_plan(key, agg, preds, joined, param_day)
    clone = rebuild(plan)
    assert strict_signature(clone, SALT) == strict_signature(plan, SALT)
    assert recurring_signature(clone, SALT) == \
        recurring_signature(plan, SALT)


@given(key=group_keys, agg=aggregates, preds=predicates,
       joined=join_flags)
@SETTINGS
def test_recurring_mask_invariant_under_probe(key, agg, preds, joined):
    plan = build_plan(key, agg, preds, joined, param_day=True)
    probed, changed = probe_inputs(plan)
    assert changed  # every plan scans at least one stream
    assert recurring_signature(probed, SALT) == \
        recurring_signature(plan, SALT)
    assert strict_signature(probed, SALT) != strict_signature(plan, SALT)


@given(seed=st.integers(min_value=0, max_value=10_000))
@SETTINGS
def test_union_signature_is_input_order_invariant(seed):
    rng = rng_for(seed, "analysis-properties", "union")
    inputs = [build_plan("UserId", "SUM(Value)",
                         [("Clicks", ">", i)], False, False)
              for i in range(3)]
    union = Union(tuple(inputs))
    shuffled_inputs = list(inputs)
    rng.shuffle(shuffled_inputs)
    shuffled = Union(tuple(shuffled_inputs))
    assert strict_signature(union, SALT) == \
        strict_signature(shuffled, SALT)


# --------------------------------------------------------------------- #
# whole-workload acceptance: the bundled suites pass the debug checks


def _tpcds_catalog():
    catalog = Catalog()
    for schema in tpcds_schemas():
        catalog.register(schema, 100)
    return catalog


@pytest.mark.parametrize("name,sql", TPCDS_QUERIES)
def test_validator_accepts_tpcds_query(name, sql):
    catalog = _tpcds_catalog()
    assert_debug_checks_accept(PlanBuilder(catalog).build(parse(sql)),
                               catalog)


def test_validator_accepts_pattern_workload_templates():
    workload = generate_workload(seed=11, virtual_clusters=2,
                                 templates_per_vc=6)
    catalog = Catalog()
    from repro.engine.engine import ScopeEngine

    engine = ScopeEngine(catalog=catalog)
    workload.install(engine)
    instances = workload.jobs_for_day(0)
    assert instances
    for instance in instances:
        assert_debug_checks_accept(PlanBuilder(
            catalog, instance.params).build(parse(instance.template.sql)),
            catalog)
