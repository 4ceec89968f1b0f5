"""Unit tests for the flight recorder's metrics pillar."""

import json

import pytest

from repro.obs import Histogram, MetricsRegistry, percentile
from repro.telemetry.comparison import percentile as comparison_percentile


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_single_value_is_every_percentile(self):
        for pct in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert percentile([42.0], pct) == 42.0

    def test_median_of_odd_count(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_median_interpolates_even_count(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5

    def test_extremes(self):
        values = list(range(101))
        assert percentile(values, 0.0) == 0
        assert percentile(values, 100.0) == 100

    def test_p95_p99_on_uniform_grid(self):
        values = [float(v) for v in range(101)]  # 0..100
        assert percentile(values, 95.0) == pytest.approx(95.0)
        assert percentile(values, 99.0) == pytest.approx(99.0)

    def test_interpolation_weighting(self):
        # rank = 0.9 * 1 -> 0.9 between 10 and 20 = 19
        assert percentile([10.0, 20.0], 90.0) == pytest.approx(19.0)

    def test_shared_with_comparison_harness(self):
        # telemetry/comparison must use the exact same math.
        assert comparison_percentile is percentile


class TestHistogram:
    def test_summary_percentiles(self):
        histogram = Histogram("latency")
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert summary["p99"] == pytest.approx(99.01)
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["mean"] == pytest.approx(50.5)

    def test_empty_histogram_is_all_zero(self):
        histogram = Histogram("empty")
        summary = histogram.summary()
        assert summary["count"] == 0
        assert summary["p50"] == 0.0
        assert summary["p99"] == 0.0


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("jobs")
        registry.inc("jobs", 4)
        assert registry.counters == {"jobs": 5}

    def test_gauges_overwrite(self):
        registry = MetricsRegistry()
        registry.set_gauge("bytes", 10)
        registry.set_gauge("bytes", 7)
        assert registry.gauges == {"bytes": 7}

    def test_histograms_created_on_first_observe(self):
        registry = MetricsRegistry()
        registry.observe("lat", 1.0)
        registry.observe("lat", 3.0)
        assert registry.histogram("lat").count == 2
        assert registry.histogram("nope") is None

    def test_counters_with_prefix(self):
        registry = MetricsRegistry()
        registry.inc("events.view.sealed")
        registry.inc("events.lock.denied", 2)
        registry.inc("other")
        assert {name: value for name, value in registry.counters.items()
                if name.startswith("events.")} == {
            "events.view.sealed": 1.0,
            "events.lock.denied": 2.0,
        }

    def test_dump_and_render_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("views.created", 3)
        registry.set_gauge("views.live_bytes", 1024)
        for value in (0.015, 0.0015, 0.015):
            registry.observe("insights.fetch.latency", value)
        path = tmp_path / "metrics.json"
        registry.dump_json(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["counters"]["views.created"] == 3
        assert loaded["gauges"]["views.live_bytes"] == 1024
        assert loaded["histograms"]["insights.fetch.latency"]["count"] == 3
        rendered = MetricsRegistry.render_dict(loaded)
        assert "views.created" in rendered
        assert "insights.fetch.latency" in rendered
        assert MetricsRegistry.render_dict(registry.to_dict()) == rendered
