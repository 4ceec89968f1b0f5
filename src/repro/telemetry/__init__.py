"""Telemetry: baseline-vs-CloudViews comparison harnesses."""

from repro.telemetry.micromodels import (
    MicroModel,
    MicroModelBank,
    PredictionQuality,
    evaluate_micromodels,
    fit_micromodels,
)
from repro.telemetry.comparison import (
    TABLE1_METRICS,
    ComparisonReport,
    MetricComparison,
    PercentileBaseline,
    compare_telemetry,
    evaluate_against_baseline,
    percentile,
    percentile_baseline,
)

__all__ = [
    "TABLE1_METRICS", "ComparisonReport", "MetricComparison",
    "PercentileBaseline", "compare_telemetry",
    "evaluate_against_baseline", "percentile", "percentile_baseline",
    "MicroModel", "MicroModelBank",
    "PredictionQuality", "evaluate_micromodels", "fit_micromodels",
]
