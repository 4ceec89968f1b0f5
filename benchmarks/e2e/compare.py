"""Compare two result files of ``run.py --out``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric) with A's median (the base),
B's median, their ratio and a verdict:

``ok``          B's median is no worse than A's by more than the bound
                ``BENCHMARK.json`` fixes for the metric;
``regressed``   it is worse by more than the bound;
``unresolved``  the min-max spread of either side is wider than the
                bound and the two ranges overlap, so the runs cannot
                tell -- reported as such, never as unchanged.

Two guards ride along per workload: ``jobs_reusing_share`` may not drop
by more than 0.02 absolute (getting faster by reusing less), and the
share of failed jobs may not rise at all.  Exit status is 1 when any
row regressed, else 0.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
REUSING_SHARE_DROP = 0.02


def verdict(base: Dict[str, float], new: Dict[str, float], better: str,
            bound: float) -> Tuple[float, str]:
    """``(ratio, verdict)`` for one metric; sides carry median/min/max."""
    ratio = new["median"] / base["median"]
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    overlap = new["min"] <= base["max"] and base["min"] <= new["max"]
    wide = any((side["max"] - side["min"]) / side["median"] > bound
               for side in (base, new))
    if wide and overlap:
        return ratio, "unresolved"
    return ratio, "regressed" if worse_by > bound else "ok"


def compare(base: Dict[str, object], new: Dict[str, object],
            benchmark: Dict[str, object]) -> List[Tuple]:
    rows: List[Tuple] = []
    for name, old in base["workloads"].items():
        cur = new["workloads"].get(name)
        if cur is None:
            rows.append((name, "(workload)", None, None, None, "regressed"))
            continue
        for metric in benchmark["end_to_end"]:
            a = old["end_to_end"][metric["name"]]
            b = cur["end_to_end"][metric["name"]]
            ratio, word = verdict(a, b, metric["better"], metric["bound"])
            rows.append((name, metric["name"], a["median"], b["median"],
                         ratio, word))
        a = old["per_layer"]["jobs_reusing_share"]["value"]
        b = cur["per_layer"]["jobs_reusing_share"]["value"]
        rows.append((name, "jobs_reusing_share", a, b, b / a if a else None,
                     "regressed" if a - b > REUSING_SHARE_DROP else "ok"))
        a = old["failed"] / max(1, old["attempted"])
        b = cur["failed"] / max(1, cur["attempted"])
        rows.append((name, "failed_share", a, b, None,
                     "regressed" if b > a or not cur["correct"] else "ok"))
    return rows


def _cell(value: Optional[float]) -> str:
    return f"{value:12.5g}" if value is not None else f"{'-':>12s}"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        base = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        new = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    rows = compare(base, new, benchmark)
    print(f"{'workload':24s} {'metric':20s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>12s}  verdict")
    for name, metric, a, b, ratio, word in rows:
        print(f"{name:24s} {metric:20s} {_cell(a)} {_cell(b)} "
              f"{_cell(ratio)}  {word}")
    counts = {word: sum(1 for row in rows if row[-1] == word)
              for word in ("ok", "regressed", "unresolved")}
    print(", ".join(f"{count} {word}" for word, count in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
