"""Unit tests for the tracked locks and the runtime lock sanitizer."""

import os
import threading

import pytest

from repro.common.errors import ConfigError, DeadlockError, LockOrderError
from repro.common.sync import (
    RANK_CATALOG,
    RANK_INSIGHTS,
    RANK_LIFECYCLE,
    RANK_STORAGE,
    TrackedLock,
    TrackedRLock,
    disable_sanitizer,
    enable_sanitizer,
    rank_tier,
    sanitizer,
)
from repro.obs import events as obs_events
from repro.obs.recorder import FlightRecorder


@pytest.fixture(autouse=True)
def _no_ambient_sanitizer():
    """Each test installs (or not) its own sanitizer explicitly."""
    had = sanitizer()
    disable_sanitizer()
    yield
    disable_sanitizer()
    if had is not None:
        # Restore the ambient sanitizer REPRO_DEBUG_CHECKS installed so
        # later tests in the same process keep their coverage.
        enable_sanitizer(recorder=had.recorder,
                         raise_on_violation=had.raise_on_violation,
                         check_hierarchy=had.check_hierarchy,
                         detect_deadlocks=had.detect_deadlocks)


class TestTrackedLockSurface:
    def test_is_a_drop_in_lock(self):
        lock = TrackedLock("t.lock", RANK_STORAGE)
        assert not lock.locked()
        assert lock.acquire()
        assert lock.locked()
        lock.release()
        assert not lock.locked()
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_requires_a_name(self):
        with pytest.raises(ConfigError):
            TrackedLock("", RANK_STORAGE)

    def test_rlock_is_reentrant(self):
        lock = TrackedRLock("t.rlock", RANK_STORAGE)
        with lock:
            with lock:
                assert lock.locked()
        assert not lock.locked()

    def test_non_blocking_acquire(self):
        lock = TrackedLock("t.nb", RANK_STORAGE)
        assert lock.acquire(blocking=False)
        assert not lock.acquire(blocking=False)
        lock.release()

    def test_rank_tier_rendering(self):
        assert rank_tier(RANK_CATALOG) == "catalog"
        assert rank_tier(RANK_LIFECYCLE + 20) == "lifecycle"
        assert rank_tier(10) == "leaf"


class TestSanitizerHierarchy:
    def test_descending_acquisition_is_legal(self):
        enable_sanitizer()
        outer = TrackedLock("t.outer", RANK_LIFECYCLE)
        inner = TrackedLock("t.inner", RANK_STORAGE)
        with outer:
            with inner:
                assert sanitizer().held_names() == ["t.outer", "t.inner"]
        assert sanitizer().held_names() == []
        assert sanitizer().violations == []

    def test_ascending_acquisition_raises(self):
        enable_sanitizer()
        low = TrackedLock("t.low", RANK_CATALOG)
        high = TrackedLock("t.high", RANK_INSIGHTS)
        with low:
            with pytest.raises(LockOrderError, match="t.high"):
                high.acquire()
        assert sanitizer().violations[0]["kind"] == "hierarchy"

    def test_equal_rank_is_also_a_violation(self):
        enable_sanitizer()
        a = TrackedLock("t.a", RANK_STORAGE)
        b = TrackedLock("t.b", RANK_STORAGE)
        with a:
            with pytest.raises(LockOrderError):
                b.acquire()

    def test_reentrant_reacquire_is_exempt(self):
        enable_sanitizer()
        lock = TrackedRLock("t.re", RANK_STORAGE)
        with lock:
            with lock:  # same lock: no hierarchy check
                pass
        assert sanitizer().violations == []

    def test_non_reentrant_reacquire_is_self_deadlock(self):
        enable_sanitizer(detect_deadlocks=False)
        lock = TrackedLock("t.self", RANK_STORAGE)
        lock.acquire()
        try:
            with pytest.raises(LockOrderError, match="non-reentrant"):
                lock.acquire()
        finally:
            lock.release()
        assert sanitizer().violations[0]["kind"] == "self-deadlock"

    def test_collect_only_mode_does_not_raise(self):
        san = enable_sanitizer(raise_on_violation=False)
        low = TrackedLock("t.low2", RANK_CATALOG)
        high = TrackedLock("t.high2", RANK_INSIGHTS)
        with low:
            with high:
                pass
        assert len(san.violations) == 1
        assert san.violations[0]["lock"] == "t.high2"

    def test_violation_emits_flight_recorder_event(self):
        recorder = FlightRecorder()
        enable_sanitizer(recorder=recorder, raise_on_violation=False)
        low = TrackedLock("t.low3", RANK_CATALOG)
        high = TrackedLock("t.high3", RANK_INSIGHTS)
        with low:
            with high:
                pass
        events = recorder.events.events(obs_events.SANITIZER_VIOLATION)
        assert len(events) == 1
        assert events[0].attrs["violation"] == "hierarchy"
        assert events[0].attrs["lock"] == "t.high3"


class TestSanitizerDeadlock:
    def test_abba_deadlock_detected_not_hung(self):
        """Two threads acquiring {a, b} in opposite orders: one of them
        gets a DeadlockError at acquire time instead of hanging."""
        enable_sanitizer(check_hierarchy=False)
        a = TrackedLock("t.dead.a", RANK_STORAGE)
        b = TrackedLock("t.dead.b", RANK_STORAGE + 1)
        barrier = threading.Barrier(2, timeout=5.0)
        outcomes = {}

        def worker(name, first, second):
            first.acquire()
            barrier.wait()
            try:
                # One of the two second-acquires must close the cycle.
                second.acquire(timeout=5.0)
                second.release()
                outcomes[name] = "ok"
            except DeadlockError:
                outcomes[name] = "deadlock"
            finally:
                first.release()

        t1 = threading.Thread(target=worker, args=("t1", a, b))
        t2 = threading.Thread(target=worker, args=("t2", b, a))
        t1.start(); t2.start()
        t1.join(timeout=10.0); t2.join(timeout=10.0)
        assert not t1.is_alive() and not t2.is_alive()
        assert "deadlock" in outcomes.values()
        kinds = [v["kind"] for v in sanitizer().violations]
        assert "deadlock" in kinds


class TestHistograms:
    def test_wait_and_hold_histograms_recorded(self):
        recorder = FlightRecorder()
        lock = TrackedLock("t.hist", RANK_STORAGE, recorder)
        with lock:
            pass
        wait = recorder.metrics.histogram("lock.wait_seconds.t.hist")
        hold = recorder.metrics.histogram("lock.hold_seconds.t.hist")
        assert wait is not None and wait.count == 1
        assert hold is not None and hold.count == 1

    def test_rlock_hold_measures_outermost_only(self):
        recorder = FlightRecorder()
        lock = TrackedRLock("t.hist.r", RANK_STORAGE, recorder)
        with lock:
            with lock:
                pass
        hold = recorder.metrics.histogram("lock.hold_seconds.t.hist.r")
        assert hold is not None and hold.count == 1

    def test_null_recorder_records_nothing(self):
        lock = TrackedLock("t.hist.null", RANK_STORAGE)
        with lock:
            pass
        # No recorder, no sanitizer: nothing to assert beyond not crashing
        # -- the fast path must not touch any histogram machinery.
        assert not lock.locked()


class TestEnableDisable:
    def test_disable_reverts_to_fast_path(self):
        enable_sanitizer()
        assert sanitizer() is not None
        disable_sanitizer()
        assert sanitizer() is None
        low = TrackedLock("t.off.low", RANK_CATALOG)
        high = TrackedLock("t.off.high", RANK_INSIGHTS)
        with low:
            with high:  # no sanitizer: inversion passes silently
                pass

    def test_toggle_mid_hold_is_safe(self):
        """Enabling the sanitizer while a lock is held (fast-path
        acquire, slow-path release) must not corrupt state."""
        lock = TrackedLock("t.toggle", RANK_STORAGE)
        lock.acquire()
        enable_sanitizer()
        lock.release()  # depth is 0: slow path must tolerate it
        disable_sanitizer()
        assert not lock.locked()


class TestFork:
    def test_child_forked_under_a_lock_starts_with_nothing_held(self):
        """The shard supervisor forks workers while holding its own lock;
        the worker's first higher-ranked acquire must not be judged
        against a held stack inherited from the parent thread."""
        enable_sanitizer()
        low = TrackedLock("t.fork.low", RANK_CATALOG)
        high = TrackedLock("t.fork.high", RANK_INSIGHTS)
        with low:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with high:
                        held = sanitizer().held_names()
                    if held == ["t.fork.high"] \
                            and not sanitizer().violations:
                        status = 0
                finally:
                    os._exit(status)
            _, exit_status = os.waitpid(pid, 0)
            # The parent still holds (and is still checked against) it.
            assert sanitizer().held_names() == ["t.fork.low"]
            with pytest.raises(LockOrderError):
                high.acquire()
        assert os.WIFEXITED(exit_status) and os.WEXITSTATUS(exit_status) == 0
