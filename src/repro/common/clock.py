"""A simulated clock for the cluster and insights-service simulations.

The reproduction never reads wall-clock time: all components share a
:class:`SimClock` so experiments are deterministic and can compress months of
"production" activity into seconds of real time.  Times are plain floats in
*simulated seconds* since the epoch of the experiment.
"""

from __future__ import annotations

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


class SimClock:
    """Monotonically advancing simulated time source."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to ``timestamp`` (no-op if in the past)."""
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.1f}s)"
