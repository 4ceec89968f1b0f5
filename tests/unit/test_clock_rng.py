"""Unit tests for the simulated clock and seeded RNG helpers."""

import pytest

from repro.common.clock import SimClock
from repro.common.rng import rng_for, zipf_weights


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_is_monotonic(self):
        clock = SimClock(100.0)
        clock.advance_to(50.0)
        assert clock.now == 100.0
        clock.advance_to(200.0)
        assert clock.now == 200.0


class TestRng:
    def test_rng_for_reproducible(self):
        assert rng_for(1, "a").random() == rng_for(1, "a").random()

    def test_rng_for_independent_names(self):
        assert rng_for(1, "a").random() != rng_for(1, "b").random()

    def test_zipf_weights_sum_to_one(self):
        weights = zipf_weights(100)
        assert abs(sum(weights) - 1.0) < 1e-9

    def test_zipf_weights_decreasing(self):
        weights = zipf_weights(10)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_zipf_weights_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
