"""Baseline-vs-CloudViews comparison harness.

Two methodologies, both from the paper:

* **Pre-production A/B** (:func:`compare_reports`): run the identical
  workload twice -- CloudViews enabled and disabled -- and compare the
  cumulative metrics.  "It is easy to measure performance improvements in
  a pre-production environment by re-running both the baseline and the
  modified version" (Section 4).
* **Production percentile baseline** (:func:`percentile_baseline`): the
  trick the team used once re-running everything became impossible: "we
  took previous instances of the queries that qualified for CloudView
  optimization and collected four weeks' worth of observations before
  enabling CloudViews ... took the 75th percentile value of each of the
  performance metrics ... and compared them with each of the newer
  instances of that query once CloudViews was enabled" (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.simulator import JobTelemetry
from repro.obs.metrics import percentile  # noqa: F401  (re-exported; the
# percentile math is shared with the flight recorder's histograms)

#: The Table-1 performance rows, in paper order.
TABLE1_METRICS: Tuple[Tuple[str, str], ...] = (
    ("latency", "Latency Improvement"),
    ("processing_time", "Processing Time Improvement"),
    ("bonus_processing_time", "Bonus Processing Time Improvement"),
    ("containers", "Containers Count Improvement"),
    ("input_bytes", "Input Size Improvement"),
    ("data_read_bytes", "Data Read Improvement"),
    ("queue_length_at_submit", "Queuing Length Improvement"),
)


@dataclass
class MetricComparison:
    """Cumulative improvement of one metric."""

    metric: str
    baseline_total: float
    cloudviews_total: float

    @property
    def improvement(self) -> float:
        """Fractional improvement; positive means CloudViews wins."""
        if self.baseline_total == 0:
            return 0.0
        return (self.baseline_total - self.cloudviews_total) / self.baseline_total

    @property
    def improvement_percent(self) -> float:
        return self.improvement * 100.0


@dataclass
class ComparisonReport:
    """All Table-1 comparisons plus per-job distributional statistics."""

    metrics: Dict[str, MetricComparison] = field(default_factory=dict)
    median_latency_improvement: float = 0.0
    jobs_baseline: int = 0
    jobs_cloudviews: int = 0

    def improvement_percent(self, metric: str) -> float:
        return self.metrics[metric].improvement_percent

    def rows(self) -> List[Tuple[str, float]]:
        return [(label, self.metrics[metric].improvement_percent)
                for metric, label in TABLE1_METRICS
                if metric in self.metrics]


def compare_telemetry(baseline: Sequence[JobTelemetry],
                      cloudviews: Sequence[JobTelemetry]) -> ComparisonReport:
    """Pre-production A/B comparison over two telemetry sets."""
    report = ComparisonReport(
        jobs_baseline=len(baseline),
        jobs_cloudviews=len(cloudviews),
    )
    for metric, _ in TABLE1_METRICS:
        report.metrics[metric] = MetricComparison(
            metric=metric,
            baseline_total=float(sum(getattr(t, metric) for t in baseline)),
            cloudviews_total=float(sum(getattr(t, metric) for t in cloudviews)),
        )
    report.median_latency_improvement = _median_improvement(
        baseline, cloudviews, "latency")
    return report


def _median_improvement(baseline: Sequence[JobTelemetry],
                        cloudviews: Sequence[JobTelemetry],
                        metric: str) -> float:
    """Median per-job improvement, matching jobs by (VC, submit time).

    The paper reports "a median per-job latency improvement of 15%"
    alongside the 34% cumulative number (Section 3.2).
    """
    base_by_key = {(t.virtual_cluster, round(t.submit_time, 3)): t
                   for t in baseline}
    improvements: List[float] = []
    for t in cloudviews:
        match = base_by_key.get((t.virtual_cluster, round(t.submit_time, 3)))
        if match is None:
            continue
        before = getattr(match, metric)
        after = getattr(t, metric)
        if before > 0:
            improvements.append((before - after) / before)
    if not improvements:
        return 0.0
    return percentile(improvements, 50.0)


@dataclass
class PercentileBaseline:
    """Per-template 75th-percentile baselines from pre-enable history."""

    metric: str
    pct: float
    thresholds: Dict[str, float] = field(default_factory=dict)

    def improvement_for(self, template_id: str, observed: float) -> Optional[float]:
        baseline = self.thresholds.get(template_id)
        if baseline is None or baseline <= 0:
            return None
        return (baseline - observed) / baseline


def percentile_baseline(history: Sequence[JobTelemetry],
                        template_of: Dict[str, str],
                        metric: str = "latency",
                        pct: float = 75.0) -> PercentileBaseline:
    """Build the Section-4 production baseline from pre-enable history.

    ``template_of`` maps job ids to their recurring template; jobs without
    a template are ignored (one-off jobs have no baseline).
    """
    per_template: Dict[str, List[float]] = {}
    for t in history:
        template = template_of.get(t.job_id)
        if not template:
            continue
        per_template.setdefault(template, []).append(float(getattr(t, metric)))
    baseline = PercentileBaseline(metric=metric, pct=pct)
    for template, values in per_template.items():
        baseline.thresholds[template] = percentile(values, pct)
    return baseline


def evaluate_against_baseline(baseline: PercentileBaseline,
                              enabled: Sequence[JobTelemetry],
                              template_of: Dict[str, str]) -> Dict[str, float]:
    """Median and mean improvement of post-enable jobs vs the baseline."""
    improvements: List[float] = []
    for t in enabled:
        template = template_of.get(t.job_id)
        if not template:
            continue
        improvement = baseline.improvement_for(
            template, float(getattr(t, baseline.metric)))
        if improvement is not None:
            improvements.append(improvement)
    if not improvements:
        return {"jobs": 0, "median": 0.0, "mean": 0.0}
    return {
        "jobs": float(len(improvements)),
        "median": percentile(improvements, 50.0),
        "mean": sum(improvements) / len(improvements),
    }
