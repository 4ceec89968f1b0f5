"""Backend matrix: reuse parity across execution backends.

Runs the same two-round TPC-DS flow (observe, select, re-run with reuse)
on every registered execution backend, with CloudViews on and off, and
emits ``BENCH_backends.json`` at the repo root.  The *reuse* columns
must not differ between backends: identical views created, views
reused, and catalog digest on every backend, or the backend abstraction
is leaking into selection.  No cell is timed: two rounds are the
observation round and the round that *builds* the views, never a steady
state, so a jobs/s figure here read as "reuse is a loss" --
``benchmarks/e2e/run.py`` is where throughput is measured.
"""

import json
import pathlib

from repro.api import Session
from repro.backends import backend_names
from repro.core import MultiLevelControls
from repro.selection import SelectionPolicy
from repro.workload.tpcds import TPCDS_QUERIES, install_tpcds

SCALE_ROWS = 800
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_backends.json"


def run_cell(backend: str, reuse: bool):
    """One matrix cell: the two-round TPC-DS flow on one backend."""
    controls = MultiLevelControls()
    controls.enable_vc("default")
    with Session(backend=backend, controls=controls,
                 selection_algorithm="bigsubs",
                 policy=SelectionPolicy(storage_budget_bytes=50_000_000,
                                        min_reuses_per_epoch=0.0)) as session:
        install_tpcds(session.engine, scale_rows=SCALE_ROWS)
        jobs = 0
        for round_no in (1, 2):
            for offset, (name, sql) in enumerate(TPCDS_QUERIES):
                session.run(sql, template_id=name, reuse_override=reuse,
                            now=1000.0 * round_no + offset)
                jobs += 1
            if round_no == 1 and reuse:
                session.analyze_and_publish()
        return {
            "backend": backend,
            "reuse": reuse,
            "jobs": jobs,
            "views_created": session.views_created,
            "views_reused": session.views_reused,
            "catalog_digest": session.catalog_digest(),
        }


def run_matrix():
    cells = [run_cell(backend, reuse)
             for backend in sorted(backend_names())
             for reuse in (True, False)]
    return {
        "benchmark": "backend_matrix",
        "workload": "tpcds",
        "scale_rows": SCALE_ROWS,
        "queries": len(TPCDS_QUERIES),
        "cells": cells,
    }


def test_backend_matrix(benchmark):
    report = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    print("\nBackend matrix (two-round TPC-DS)")
    print(f"{'backend':<10}{'reuse':<7}{'created':>9}{'reused':>8}  digest")
    for cell in report["cells"]:
        print(f"{cell['backend']:<10}{str(cell['reuse']):<7}"
              f"{cell['views_created']:>9}{cell['views_reused']:>8}  "
              f"{cell['catalog_digest'][:12]}")

    # Parity: selection outcomes are backend-invariant.
    for reuse in (True, False):
        group = [c for c in report["cells"] if c["reuse"] == reuse]
        assert len({c["catalog_digest"] for c in group}) == 1
        assert len({(c["views_created"], c["views_reused"])
                    for c in group}) == 1
    with_reuse = [c for c in report["cells"] if c["reuse"]]
    assert all(c["views_reused"] > 0 for c in with_reuse)

    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"matrix -> {OUTPUT}")


if __name__ == "__main__":
    OUTPUT.write_text(json.dumps(run_matrix(), indent=2) + "\n")
    print(f"matrix -> {OUTPUT}")
