"""Tracked-lock overhead: raw Lock vs TrackedLock, sanitizer off and on.

The tracked locks replaced every ``threading.Lock`` on the hot paths
(the scheduler's wave count, insights fetch, view-store pinning), so with
``REPRO_DEBUG_CHECKS`` off they must cost essentially nothing beyond the
raw primitive -- the fast path is one attribute check in front of the
stdlib acquire.  With the sanitizer enabled the per-acquire hierarchy
and wait-for bookkeeping is the price of deadlock detection, reported
here so the debug-mode slowdown is a known number rather than a
surprise.
"""

import threading
import time

from repro.common.sync import (
    RANK_STORAGE,
    TrackedLock,
    disable_sanitizer,
    enable_sanitizer,
    sanitizer,
)

ACQUIRES = 200_000


def time_lock(lock):
    started = time.perf_counter()
    for _ in range(ACQUIRES):
        with lock:
            pass
    return time.perf_counter() - started


def run_trio():
    ambient = sanitizer()
    disable_sanitizer()
    try:
        raw_seconds = time_lock(threading.Lock())
        off_seconds = time_lock(TrackedLock("bench.off", RANK_STORAGE))
        enable_sanitizer(raise_on_violation=False)
        on_seconds = time_lock(TrackedLock("bench.on", RANK_STORAGE))
        assert sanitizer().violations == []
    finally:
        disable_sanitizer()
        if ambient is not None:
            enable_sanitizer(recorder=ambient.recorder,
                             raise_on_violation=ambient.raise_on_violation,
                             check_hierarchy=ambient.check_hierarchy,
                             detect_deadlocks=ambient.detect_deadlocks)
    return {
        "raw_seconds": raw_seconds,
        "off_seconds": off_seconds,
        "on_seconds": on_seconds,
    }


def test_lock_overhead(benchmark):
    result = benchmark.pedantic(run_trio, rounds=1, iterations=1)

    per_raw = result["raw_seconds"] / ACQUIRES * 1e9
    per_off = result["off_seconds"] / ACQUIRES * 1e9
    per_on = result["on_seconds"] / ACQUIRES * 1e9
    off_ratio = result["off_seconds"] / max(result["raw_seconds"], 1e-9)
    on_ratio = result["on_seconds"] / max(result["raw_seconds"], 1e-9)
    print(f"\nLock overhead ({ACQUIRES:,} uncontended acquire/release)")
    print(f"{'threading.Lock':<28}{per_raw:>10.0f} ns/acquire")
    print(f"{'TrackedLock (checks off)':<28}{per_off:>10.0f} ns/acquire"
          f"  ({off_ratio:.2f}x raw)")
    print(f"{'TrackedLock (sanitizer on)':<28}{per_on:>10.0f} ns/acquire"
          f"  ({on_ratio:.2f}x raw)")

    # The production posture: with debug checks off, a tracked lock is a
    # thin veneer over the stdlib primitive.  Generous bound -- the fast
    # path adds one attribute test and a method-call hop, and CI machines
    # are noisy.
    assert off_ratio < 5.0
