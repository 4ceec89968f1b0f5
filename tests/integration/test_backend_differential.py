"""The differential harness as a test: byte-equal results and identical
reuse decisions across backends, on both bundled workloads.

This is the tentpole acceptance gate: if the SQLite lowering diverges
from the interpreter anywhere a workload can reach -- expression
semantics, NULL handling, byte accounting, spool/view-scan plumbing --
one of these multiset row comparisons or catalog digests breaks.
"""

import pytest

from repro.backends.differential import (
    canonical_rows,
    canonical_value,
    run_cooking_differential,
    run_tpcds_differential,
)


class TestCanonicalization:
    def test_bool_and_int_collapse(self):
        assert canonical_value(True) == "1"
        assert canonical_value(False) == "0"
        assert canonical_value(1) == "1"

    def test_integral_float_collapses_to_int(self):
        assert canonical_value(5.0) == canonical_value(5)

    def test_negative_zero_collapses(self):
        assert canonical_value(-0.0) == canonical_value(0.0)

    def test_float_rounds_to_nine_significant_digits(self):
        assert canonical_value(1.0000000001) == "1"
        assert canonical_value(0.1) == "0.1"

    def test_null_and_strings_exact(self):
        assert canonical_value(None) is None
        assert canonical_value("0123") == "0123"

    def test_rows_are_order_independent(self):
        a = [dict(x=1, y="a"), dict(x=2, y="b")]
        assert canonical_rows(a) == canonical_rows(list(reversed(a)))


@pytest.fixture(scope="module")
def tpcds_report():
    return run_tpcds_differential(scale_rows=300)


@pytest.fixture(scope="module")
def cooking_report():
    return run_cooking_differential(days=2)


class TestTpcdsDifferential:
    def test_no_mismatches(self, tpcds_report):
        assert tpcds_report.ok, tpcds_report.mismatches

    def test_reuse_actually_happened(self, tpcds_report):
        # The invariance claim is vacuous unless the reuse-on runs
        # really did build and reuse views on both backends.
        for (_, reuse), trace in tpcds_report.traces.items():
            if reuse:
                assert trace.views_created > 0
                assert trace.views_reused > 0

    def test_catalog_digest_invariant_across_backends(self, tpcds_report):
        digests = {backend: t.live_digest
                   for (backend, reuse), t in tpcds_report.traces.items()
                   if reuse}
        assert len(set(digests.values())) == 1, digests


class TestCookingDifferential:
    def test_no_mismatches(self, cooking_report):
        assert cooking_report.ok, cooking_report.mismatches

    def test_reuse_actually_happened(self, cooking_report):
        for (_, reuse), trace in cooking_report.traces.items():
            if reuse:
                assert trace.views_reused > 0

    def test_catalog_digest_invariant_across_backends(self, cooking_report):
        digests = {backend: t.live_digest
                   for (backend, reuse), t in cooking_report.traces.items()
                   if reuse}
        assert len(set(digests.values())) == 1, digests
