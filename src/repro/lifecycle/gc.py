"""Background GC janitor: expiry sweeps, purge collection, budget eviction.

"Our current eviction policies expire each of the views after one week of
creation, thus consuming a fixed amount of storage in the stable state"
(Section 3.1) -- but the serial simulation only evicted at day boundaries,
and nothing ever reclaimed purged entries or enforced an actual byte
budget.  The janitor is a clock-driven daemon thread that periodically
runs the lifecycle manager's sweep:

1. evict expired views (skipping any pinned by an in-flight reader);
2. hard-remove catalog entries whose views were purged (user request or
   invalidation cascade) once no reader pins them;
3. under storage-budget pressure, evict live views in ascending
   cost/benefit order -- following the cloud cost-model framing of
   Perriot et al.: a view earns its storage through reuse, and old, large,
   rarely-reused views go first.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.common.clock import SECONDS_PER_DAY
from repro.common.sync import RANK_LIFECYCLE, TrackedLock
from repro.obs import events as obs_events
from repro.obs.recorder import NULL_RECORDER
from repro.storage.views import MaterializedView


def gc_score(view: MaterializedView, now: float) -> float:
    """Cost/benefit retention score; the *lowest*-scored view evicts first.

    Benefit grows with observed reuse; cost grows with the bytes held and
    with age (an old view is closer to expiry, so the compute it could
    still save shrinks).  The +1 terms keep fresh, never-reused views from
    dividing by zero without dominating genuinely hot views.
    """
    age_days = max(0.0, now - view.created_at) / SECONDS_PER_DAY
    return (1.0 + view.reuse_count) / ((1.0 + view.size_bytes)
                                       * (1.0 + age_days))


@dataclass
class SweepResult:
    """Outcome of one GC sweep (the benchmark's unit of measurement)."""

    at: float = 0.0
    expired: int = 0
    removed: int = 0
    budget_evicted: int = 0
    storage_before: int = 0
    storage_after: int = 0
    pinned_skipped: int = 0
    duration_seconds: float = 0.0
    evicted_signatures: List[str] = field(default_factory=list)

    @property
    def reclaimed_bytes(self) -> int:
        return max(0, self.storage_before - self.storage_after)

    @property
    def total_collected(self) -> int:
        return self.expired + self.removed + self.budget_evicted


class GcJanitor:
    """Daemon thread driving periodic sweeps against a simulated clock.

    ``sweep`` is the lifecycle manager's synchronous sweep entry point;
    ``clock`` supplies the *simulated* "now" each wakeup (wall time by
    default, a fake in tests).  The thread itself paces on wall time.
    """

    def __init__(self, sweep: Callable[[float], SweepResult],
                 interval_seconds: float = 60.0,
                 clock: Optional[Callable[[], float]] = None,
                 recorder=NULL_RECORDER) -> None:
        self._sweep = sweep
        self.interval_seconds = interval_seconds
        self.clock = clock or time.time
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._mutex = TrackedLock("lifecycle.gc", RANK_LIFECYCLE + 10)
        self.recorder = recorder
        self.sweeps = 0
        self.last_result: Optional[SweepResult] = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-gc-janitor", daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> bool:
        """Shut the janitor down; returns True once no thread remains.

        Idempotent: calling again after a successful (or never-started)
        stop is a no-op returning True.  If the thread fails to join
        within ``timeout`` (a sweep wedged on a lock or a huge catalog),
        the daemon is *not* forgotten: the thread handle is kept so a
        later ``stop()`` can try again, and the failure is reported both
        by the return value and a ``gc.stop_timeout`` recorder event
        instead of being silently leaked.
        """
        self._stop.set()
        thread = self._thread
        if thread is None:
            return True
        thread.join(timeout=timeout)
        if thread.is_alive():
            self.recorder.event(obs_events.GC_STOP_TIMEOUT,
                                timeout_seconds=timeout,
                                thread=thread.name, sweeps=self.sweeps)
            return False
        self._thread = None
        return True

    def run_once(self, now: Optional[float] = None) -> SweepResult:
        """One synchronous sweep (CLI ``repro gc --sweep`` and tests)."""
        result = self._sweep(self.clock() if now is None else now)
        with self._mutex:
            self.sweeps += 1
            self.last_result = result
        return result

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            try:
                self.run_once()
            except Exception:  # noqa: BLE001 - janitor must not die
                # A sweep hitting a transient race (view vanished between
                # listing and removal) must not kill the daemon; the next
                # wakeup retries.  Real failures surface through the
                # flight recorder's gc events drying up.
                continue
