"""Unit tests for strict/recurring signatures and eligibility."""

import pytest

from repro.catalog import Catalog, schema_of
from repro.plan import Filter, PlanBuilder, Process, Scan, Spool, normalize
from repro.signatures import (
    enumerate_subexpressions,
    is_reuse_eligible,
    recurring_signature,
    signature_tag,
    strict_signature,
)
from repro.sql import parse


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(schema_of("Sales", [
        ("CustomerId", "int"), ("Price", "float"), ("Day", "str")]), 100)
    cat.register(schema_of("Customer", [
        ("CustomerId", "int"), ("MktSegment", "str")]), 50)
    return cat


def build(catalog, sql, params=None):
    return normalize(PlanBuilder(catalog, params).build(parse(sql)))


def test_identical_queries_same_strict_signature(catalog):
    sql = "SELECT CustomerId FROM Sales WHERE Price > 5"
    assert strict_signature(build(catalog, sql)) == \
        strict_signature(build(catalog, sql))


def test_commutative_predicates_normalize(catalog):
    a = build(catalog, "SELECT CustomerId FROM Sales WHERE Price > 5 AND CustomerId = 1")
    b = build(catalog, "SELECT CustomerId FROM Sales WHERE CustomerId = 1 AND Price > 5")
    assert strict_signature(a) == strict_signature(b)


def test_flipped_comparison_normalizes(catalog):
    a = build(catalog, "SELECT CustomerId FROM Sales WHERE Price > 5")
    b = build(catalog, "SELECT CustomerId FROM Sales WHERE 5 < Price")
    assert strict_signature(a) == strict_signature(b)


def test_semantically_different_predicates_differ(catalog):
    a = build(catalog, "SELECT CustomerId FROM Sales WHERE Price > 5")
    b = build(catalog, "SELECT CustomerId FROM Sales WHERE Price > 6")
    assert strict_signature(a) != strict_signature(b)


def test_syntactic_only_no_algebraic_equivalence(catalog):
    """The paper's stated limitation: 2*x > 10 is NOT matched with x > 5."""
    a = build(catalog, "SELECT CustomerId FROM Sales WHERE CustomerId > 5")
    b = build(catalog, "SELECT CustomerId FROM Sales WHERE 2 * CustomerId > 10")
    assert strict_signature(a) != strict_signature(b)


def test_strict_signature_changes_on_bulk_update(catalog):
    sql = "SELECT CustomerId FROM Sales"
    before = strict_signature(build(catalog, sql))
    catalog.bulk_update("Sales")
    after = strict_signature(build(catalog, sql))
    assert before != after


def test_recurring_signature_survives_bulk_update(catalog):
    sql = "SELECT CustomerId FROM Sales"
    before = recurring_signature(build(catalog, sql))
    catalog.bulk_update("Sales")
    after = recurring_signature(build(catalog, sql))
    assert before == after


def test_strict_signature_changes_with_gdpr_forget(catalog):
    sql = "SELECT CustomerId FROM Sales"
    before = strict_signature(build(catalog, sql))
    catalog.gdpr_forget("Sales", rows_removed=1)
    after = strict_signature(build(catalog, sql))
    assert before != after


def test_param_values_in_strict_not_in_recurring(catalog):
    sql = "SELECT CustomerId FROM Sales WHERE Day = @run"
    a = build(catalog, sql, params={"run": "2020-02-01"})
    b = build(catalog, sql, params={"run": "2020-02-02"})
    assert strict_signature(a) != strict_signature(b)
    assert recurring_signature(a) == recurring_signature(b)


def test_plain_literal_stays_in_recurring(catalog):
    a = build(catalog, "SELECT CustomerId FROM Sales WHERE Day = 'x'")
    b = build(catalog, "SELECT CustomerId FROM Sales WHERE Day = 'y'")
    assert recurring_signature(a) != recurring_signature(b)


def test_salt_models_runtime_version_change(catalog):
    plan = build(catalog, "SELECT CustomerId FROM Sales")
    assert strict_signature(plan, salt="v1") != strict_signature(plan, salt="v2")


def test_spool_is_transparent(catalog):
    plan = build(catalog, "SELECT CustomerId FROM Sales WHERE Price > 5")
    spooled = Spool(plan, signature="sig", view_path="p")
    assert strict_signature(spooled) == strict_signature(plan)


def test_nondeterministic_udo_ineligible(catalog):
    plan = build(catalog, "SELECT CustomerId FROM Sales "
                          "PROCESS USING NowStamp NONDETERMINISTIC")
    assert not is_reuse_eligible(plan)


def test_deep_dependency_chain_ineligible(catalog):
    plan = build(catalog, "SELECT CustomerId FROM Sales "
                          "PROCESS USING DeepLib DEPTH 99")
    assert not is_reuse_eligible(plan)


def test_shallow_deterministic_udo_eligible(catalog):
    plan = build(catalog, "SELECT CustomerId FROM Sales "
                          "PROCESS USING Scrub DEPTH 3")
    assert is_reuse_eligible(plan)


def test_udo_name_is_part_of_signature(catalog):
    a = build(catalog, "SELECT CustomerId FROM Sales PROCESS USING U1")
    b = build(catalog, "SELECT CustomerId FROM Sales PROCESS USING U2")
    assert strict_signature(a) != strict_signature(b)


def test_enumerate_subexpressions_root_first(catalog):
    plan = build(catalog,
                 "SELECT CustomerId FROM Sales JOIN Customer "
                 "WHERE MktSegment = 'Asia'")
    subs = enumerate_subexpressions(plan)
    assert subs[0].plan is plan
    assert subs[0].depth == 0
    assert subs[0].height == max(s.height for s in subs)
    leaf_ops = {s.operator for s in subs if s.height == 0}
    assert leaf_ops == {"Scan"}


def test_enumerate_marks_ineligible_subtrees(catalog):
    plan = build(catalog, "SELECT CustomerId FROM Sales "
                          "PROCESS USING X NONDETERMINISTIC")
    subs = enumerate_subexpressions(plan)
    root = subs[0]
    assert not root.eligible
    scan = next(s for s in subs if isinstance(s.plan, Scan))
    assert scan.eligible  # the scan below the UDO is still fine


def test_tag_is_short_and_stable(catalog):
    plan = build(catalog, "SELECT CustomerId FROM Sales")
    sig = recurring_signature(plan)
    assert signature_tag(sig) == signature_tag(sig)
    assert len(signature_tag(sig)) == 8
