"""Figures 6b-6d and 7a-7d: daily cumulative series, baseline vs CloudViews.

One table: a row names the ``JobTelemetry`` metric, the paper's cumulative
improvement, our bounds, and the *shape* the paper reads off that figure.
"""

import math
from typing import Callable, NamedTuple

import pytest

from series_util import (
    assert_cumulative_monotone,
    final_improvement,
    paired_series,
    print_series,
)


def _daily(rows):
    """(day, baseline, cloudviews) per day, from the cumulative rows."""
    previous = (0.0, 0.0)
    for day, base, cv in rows:
        yield day, base - previous[0], cv - previous[1]
        previous = (base, cv)


def _gain(enabled, baseline, metric: str) -> float:
    return final_improvement(paired_series(enabled, baseline, metric))


def staggered_across_days(rows, improvement, enabled, baseline):
    """6b: "latency improvements are staggered and minimal on several
    days" -- reuse helps latency only on the critical path."""
    gains = [(base - cv) / base for _, base, cv in _daily(rows) if base > 0]
    assert max(gains) - min(gains) > 0.05


def visible_every_day(rows, improvement, enabled, baseline):
    """6c: "more distinct change in processing time" -- savings do not
    depend on the critical path, so post-warmup every day shows them."""
    for day, base, cv in _daily(rows):
        if day >= 2 and base > 0:
            assert cv < base


def at_least_the_latency_gain(rows, improvement, enabled, baseline):
    """6d: less reliance on bonus processing; in the paper it is the
    largest time-metric gain."""
    assert improvement > _gain(enabled, baseline, "latency") - 10.0


def reusers_ask_for_fewer_containers(rows, improvement, enabled, baseline):
    """7a: reuse "circumvents" cardinality over-estimation -- jobs that
    reused views asked for fewer containers than their baseline twins."""
    def key(t):
        return t.virtual_cluster, round(t.submit_time, 3)
    twins = {key(t): t for t in baseline.telemetry}
    reusers = [t for t in enabled.telemetry if t.views_reused > 0]
    fewer = sum(1 for t in reusers if key(t) in twins
                and t.containers < twins[key(t)].containers)
    assert fewer > len(reusers) * 0.5


def reusers_read_a_smaller_input(rows, improvement, enabled, baseline):
    """7b: views "end up being much smaller than the initial input sizes"
    -- a reusing job reads the stored view, never zero input."""
    reusers = [t for t in enabled.telemetry if t.views_reused > 0]
    assert reusers
    assert all(t.input_bytes > 0 for t in reusers)


def exceeds_the_input_gain(rows, improvement, enabled, baseline):
    """7c: data read "improves by 39%, which is more than the improvements
    in input read" -- intermediate I/O shrinks too."""
    assert improvement > _gain(enabled, baseline, "input_bytes") - 2.0


def smallest_of_table1(rows, improvement, enabled, baseline):
    """7d: shorter queues because jobs finish faster -- the smallest of
    the Table-1 improvements."""
    for metric in (s.metric for s in SERIES
                   if s.shape is not smallest_of_table1):
        assert improvement <= _gain(enabled, baseline, metric) + 1e-9, metric


class Series(NamedTuple):
    figure: str
    metric: str     # JobTelemetry field
    title: str      # the printed series' heading
    label: str      # the improvement line's name for it
    unit: str
    paper: int      # the paper's cumulative improvement, percent
    low: float      # improvement must land strictly inside (low, high)
    high: float
    shape: Callable


SERIES = (
    Series("6b", "latency", "latency", "latency", "s",
           34, 10.0, 70.0, staggered_across_days),
    Series("6c", "processing_time", "processing time", "processing",
           "container-s", 39, 15.0, 65.0, visible_every_day),
    Series("6d", "bonus_processing_time", "bonus processing", "bonus",
           "container-s", 45, 15.0, math.inf, at_least_the_latency_gain),
    Series("7a", "containers", "containers", "containers", "containers",
           36, 10.0, 60.0, reusers_ask_for_fewer_containers),
    Series("7b", "input_bytes", "input size", "input", "bytes",
           36, 15.0, 60.0, reusers_read_a_smaller_input),
    Series("7c", "data_read_bytes", "data read", "data-read", "bytes",
           39, 15.0, 65.0, exceeds_the_input_gain),
    Series("7d", "queue_length_at_submit", "queue lengths", "queue", "jobs",
           13, 0.0, math.inf, smallest_of_table1),
)


@pytest.mark.parametrize("series", SERIES, ids=lambda s: f"fig{s.figure}")
def test_cumulative_series(series, benchmark, enabled_report,
                           baseline_report):
    rows = benchmark.pedantic(
        paired_series, (enabled_report, baseline_report, series.metric),
        rounds=1, iterations=1)
    print_series(f"Figure {series.figure}: cumulative {series.title}",
                 series.unit, rows)
    assert_cumulative_monotone(rows)
    improvement = final_improvement(rows)
    print(f"cumulative {series.label} improvement: {improvement:.1f}% "
          f"(paper: {series.paper}%)")
    assert series.low < improvement < series.high
    series.shape(rows, improvement, enabled_report, baseline_report)
