"""Shared helpers for the Figure 6/7 cumulative-series benchmarks."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.simulation import ClusterReport


def paired_series(enabled: ClusterReport, baseline: ClusterReport,
                  metric: str) -> List[Tuple[int, float, float]]:
    """(day, cumulative baseline, cumulative cloudviews) rows."""
    base = dict(baseline.cumulative_daily(metric))
    with_cv = dict(enabled.cumulative_daily(metric))
    days = sorted(set(base) | set(with_cv))
    rows = []
    last_base = last_cv = 0.0
    for day in days:
        last_base = base.get(day, last_base)
        last_cv = with_cv.get(day, last_cv)
        rows.append((day, last_base, last_cv))
    return rows


def print_series(title: str, unit: str,
                 rows: List[Tuple[int, float, float]]) -> None:
    print(f"\n{title}")
    print(f"{'day':>4} {'baseline':>16} {'cloudviews':>16} {'gain':>8}")
    for day, base, cv in rows:
        gain = (base - cv) / base * 100 if base else 0.0
        print(f"{day:>4} {base:>16,.0f} {cv:>16,.0f} {gain:>7.1f}%  ({unit})")


def final_improvement(rows: List[Tuple[int, float, float]]) -> float:
    _, base, cv = rows[-1]
    return (base - cv) / base * 100 if base else 0.0


def assert_cumulative_monotone(rows: List[Tuple[int, float, float]]) -> None:
    for (_, b0, c0), (_, b1, c1) in zip(rows, rows[1:]):
        assert b1 >= b0 and c1 >= c0
