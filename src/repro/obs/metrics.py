"""Metrics pillar of the flight recorder.

Counters, gauges, and histograms for the reuse feedback loop, in the
spirit of the paper's operational telemetry: "the modified query plans are
... logged into the telemetry for future analyses" (Figure 5), and the
Section-4 controls assume operators can watch lock contention,
annotation-serving latency, and view hit rates while a rollout is in
flight.

Everything runs off the *simulated* clock (:mod:`repro.common.clock`), so
a metrics dump from a deterministic simulation is itself deterministic and
can be diffed across runs.  Histograms keep their raw observations (the
simulated workloads are laptop-scale), so the p50/p95/p99 summaries are
exact rather than sketched.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple
from repro.common.errors import ConfigError

#: The summary percentiles every histogram reports.
SUMMARY_PERCENTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)


def percentile(values: Iterable[float], pct: float) -> float:
    """Nearest-rank-with-interpolation percentile in [0, 100].

    Shared by the histogram summaries here and the baseline-comparison
    harness in :mod:`repro.telemetry.comparison`.
    """
    ordered = sorted(values)
    if not ordered:
        raise ConfigError("percentile of empty sequence")
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high or ordered[low] == ordered[high]:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


@dataclass
class Histogram:
    """Exact distribution of one measurement (e.g. fetch latency)."""

    name: str
    values: List[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.values else 0.0

    @property
    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def quantile(self, pct: float) -> float:
        """The pct-th percentile; 0.0 on an empty histogram."""
        if not self.values:
            return 0.0
        return percentile(self.values, pct)

    def summary(self) -> Dict[str, float]:
        out = {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        for pct in SUMMARY_PERCENTILES:
            out[f"p{pct:g}"] = self.quantile(pct)
        return out


class MetricsRegistry:
    """Named counters, gauges, and histograms.

    Names are dotted strings (``insights.fetch.latency``); the registry is
    intentionally label-free — the simulation is single-tenant enough that
    per-VC splits belong in the event log, not in metric cardinality.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # writes

    def inc(self, name: str, value: float = 1.0) -> float:
        """Increment (and return) a monotonic counter."""
        self.counters[name] = self.counters.get(name, 0.0) + value
        return self.counters[name]

    def set_gauge(self, name: str, value: float) -> None:
        """Set an instantaneous level (storage in use, free containers)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into a histogram."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        histogram.observe(value)

    # ------------------------------------------------------------------ #
    # reads

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def gauge(self, name: str) -> float:
        return self.gauges.get(name, 0.0)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self.histograms.get(name)

    # ------------------------------------------------------------------ #
    # export

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable dump (the ``metrics.json`` capture schema)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                name: self.histograms[name].summary()
                for name in sorted(self.histograms)
            },
        }

    def dump_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @staticmethod
    def render_dict(dump: Dict[str, object]) -> str:
        """Render a :meth:`to_dict`-shaped dump as the operator report."""
        lines = ["Flight recorder — metrics"]
        counters = dump.get("counters", {})
        hits, misses = (counters.get(f"engine.plan_cache.{name}", 0)
                        for name in ("hits", "misses"))
        if hits + misses:
            lines.append(f"plan-template cache: {hits:,.0f} of "
                         f"{hits + misses:,.0f} compiles re-bound a cached "
                         f"plan skeleton ({hits / (hits + misses):.1%})")
        if counters:
            lines.append("counters:")
            for name in sorted(counters):
                lines.append(f"  {name:<44}{counters[name]:>14,.0f}")
        gauges = dump.get("gauges", {})
        if gauges:
            lines.append("gauges:")
            for name in sorted(gauges):
                lines.append(f"  {name:<44}{gauges[name]:>14,.1f}")
        histograms = dump.get("histograms", {})
        if histograms:
            lines.append("histograms (count / mean / p50 / p95 / p99):")
            for name in sorted(histograms):
                s = histograms[name]
                lines.append(
                    f"  {name:<34}{s['count']:>8,.0f}  "
                    f"{s['mean']:>10.4f} {s['p50']:>10.4f} "
                    f"{s['p95']:>10.4f} {s['p99']:>10.4f}")
        return "\n".join(lines)

    def render(self) -> str:
        return self.render_dict(self.to_dict())
