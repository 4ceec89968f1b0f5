"""Golden signatures: every digest stays bit-identical across refactors.

``tests/fixtures/tpcds_signatures.json`` holds strict / recurring / tag /
eligible for every subexpression of the 12 TPC-DS templates under two
salts.  It was generated at the commit *before* signatures moved onto the
plan node (``PYTHONPATH=src python tests/unit/test_signature_golden.py``
rewrites it); a change that moves any digest silently orphans every
materialized view and annotation in a live deployment.
"""

import json
from pathlib import Path

from repro.engine import ScopeEngine
from repro.optimizer.rules import apply_rewrites
from repro.plan.builder import PlanBuilder
from repro.plan.normalize import normalize
from repro.signatures import enumerate_subexpressions
from repro.sql.parser import parse
from repro.workload.tpcds import TPCDS_QUERIES, install_tpcds

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / \
    "tpcds_signatures.json"
SALTS = ("", "scope-r2")


def signature_table():
    engine = ScopeEngine()
    install_tpcds(engine, scale_rows=200, seed=5)
    table = {}
    for name, sql in TPCDS_QUERIES:
        plan = normalize(apply_rewrites(
            PlanBuilder(engine.catalog, None).build(parse(sql))))
        for salt in SALTS:
            table[f"{name}@{salt}"] = [
                [sub.operator, sub.strict, sub.recurring, sub.tag,
                 sub.eligible]
                for sub in enumerate_subexpressions(plan, salt)]
    return table


def test_tpcds_signatures_match_golden_fixture():
    golden = json.loads(FIXTURE.read_text())
    assert signature_table() == golden


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(signature_table(), indent=1) + "\n")
