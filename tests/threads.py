"""Callers of the tests' own that race the draining thread.

A scheduler wave runs on the thread that drains it, so a test about
lock, pin or counter races brings its own concurrent callers: ``call``
once on each of a few threads while the ``with`` block drains a wave.
"""

import contextlib
import sys
import threading


@contextlib.contextmanager
def alongside(call, threads=3):
    """Run ``call()`` once on each of ``threads`` threads while the block
    runs, under a 10 us switch interval; yield the list their results
    (or exceptions) land in, complete once the block has exited."""
    outcomes = []

    def run():
        try:
            outcomes.append(call())
        except Exception as error:  # the test asserts on it
            outcomes.append(error)

    callers = [threading.Thread(target=run) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        yield outcomes
    finally:
        for caller in callers:
            caller.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
