"""Tracked locking primitives and the runtime lock sanitizer.

The concurrent subsystems (``Session`` callers, their GC sweeps,
invalidation cascades) share one process and a dozen locks; the paper's
Section-4 lesson is that *silently* broken invariants are the expensive
kind.  This module makes the locking discipline explicit and checkable:

* :class:`TrackedLock` / :class:`TrackedRLock` wrap the stdlib primitives
  with a **name** and a **hierarchy rank**.  When nothing is watching
  (no sanitizer, null recorder) an acquire is a single extra attribute
  check over the raw lock -- measured by ``benchmarks/bench_lock_overhead``.
* With a real flight recorder attached, every lock records wait-time and
  hold-time histograms (``lock.wait_seconds.<name>`` /
  ``lock.hold_seconds.<name>``) so contention is visible in captures.
* With ``REPRO_DEBUG_CHECKS`` on (or :func:`enable_sanitizer` called), a
  process-wide :class:`LockSanitizer` checks every acquire against the
  documented hierarchy and maintains a wait-for graph that reports actual
  deadlock cycles *at acquire time* instead of hanging the test run.

The documented hierarchy (see DESIGN "Concurrency model") is::

    catalog < storage < insights < scheduler < lifecycle

with rank values ascending in that order.  The acquisition rule is
**descending**: a thread holding a lock may only acquire locks of
*strictly lower* rank.  Outermost coordination locks (the invalidation
bus, which holds its lock across a whole purge cascade) therefore carry
the highest ranks, and terminal bookkeeping locks (the journal's WAL
handle, the lineage table) sit in the ``RANK_LEAF`` band at the bottom --
they guard leaf resources and never acquire anything themselves.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

from repro.common.errors import ConfigError, DeadlockError, LockOrderError
from repro.obs import events as obs_events
from repro.obs.recorder import NULL_RECORDER

# ---------------------------------------------------------------------- #
# the documented hierarchy: catalog < storage < insights < scheduler
# < lifecycle, plus a leaf band for terminal bookkeeping locks.

RANK_LEAF = 50
RANK_CATALOG = 100
RANK_STORAGE = 200
RANK_INSIGHTS = 300
RANK_SCHEDULER = 400
RANK_LIFECYCLE = 500

#: Tier boundaries, ascending; used to render a rank as a band name.
_TIERS = (
    (RANK_LEAF, "leaf"),
    (RANK_CATALOG, "catalog"),
    (RANK_STORAGE, "storage"),
    (RANK_INSIGHTS, "insights"),
    (RANK_SCHEDULER, "scheduler"),
    (RANK_LIFECYCLE, "lifecycle"),
)


def rank_tier(rank: int) -> str:
    """The hierarchy band a numeric rank falls in (for messages)."""
    name = "leaf"
    for floor, tier in _TIERS:
        if rank >= floor:
            name = tier
    return name


def debug_checks_enabled() -> bool:
    """The one reader of ``REPRO_DEBUG_CHECKS``: the lock sanitizer and
    ``EngineConfig.debug_checks`` both default to it."""
    return os.environ.get("REPRO_DEBUG_CHECKS", "") not in ("", "0", "false")


class LockSanitizer:
    """Process-wide hierarchy checker and wait-for-graph deadlock detector.

    Tracks, per thread, the stack of tracked locks currently held, and,
    globally, which thread holds which lock and which lock each blocked
    thread is waiting for.  Both checks run *before* the real acquire:

    * **hierarchy** -- the incoming lock's rank must be strictly below the
      rank of the thread's most recently acquired lock (re-acquiring a
      reentrant lock already held is always allowed);
    * **deadlock** -- if the lock is held elsewhere, walk holder ->
      waited-for-lock -> holder ... in the wait-for graph; closing the
      cycle back to the requesting thread means the acquire can never
      succeed, so the sanitizer raises instead of blocking.

    Violations are appended to :attr:`violations`, emitted as
    ``sanitizer.violation`` flight-recorder events, and (by default)
    raised as :class:`LockOrderError` / :class:`DeadlockError` so tests
    fail loudly.  The checks themselves run under one internal meta-lock;
    the sanitizer is a debug tool, not a fast path.
    """

    def __init__(self, recorder=NULL_RECORDER,
                 raise_on_violation: bool = True,
                 check_hierarchy: bool = True,
                 detect_deadlocks: bool = True) -> None:
        self.recorder = recorder
        self.raise_on_violation = raise_on_violation
        self.check_hierarchy = check_hierarchy
        self.detect_deadlocks = detect_deadlocks
        #: Every violation seen, raised or not (tests and operators).
        self.violations: List[Dict[str, object]] = []
        self._meta = threading.Lock()
        #: id(lock) -> ident of the thread holding it.
        self._holders: Dict[int, int] = {}
        #: thread ident -> the TrackedLock it is currently blocked on.
        self._waiting: Dict[int, "TrackedLock"] = {}
        self._held = threading.local()

    def reset_after_fork(self) -> None:
        """Forget every held lock and waiter: run in a forked child.

        The child inherits the forking thread's held stack and the
        wait-for graph of threads that do not exist in it, so a lock held
        across ``fork`` (the shard supervisor spawns under its own) would
        fail the child's first higher-ranked acquire.  The meta-lock is
        replaced because another parent thread may have held it.
        """
        self._meta = threading.Lock()
        self._holders = {}
        self._waiting = {}
        self._held = threading.local()

    # ------------------------------------------------------------------ #
    # per-thread held stack

    def _stack(self) -> List["TrackedLock"]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def held_names(self) -> List[str]:
        """Names of the locks the calling thread holds, outermost first."""
        return [lock.name for lock in self._stack()]

    # ------------------------------------------------------------------ #
    # acquire/release hooks (called by TrackedLock's slow path)

    def before_acquire(self, lock: "TrackedLock") -> None:
        stack = self._stack()
        if stack and not any(held is lock for held in stack):
            innermost = stack[-1]
            if self.check_hierarchy and lock.rank >= innermost.rank:
                self._violation(
                    "hierarchy", lock,
                    f"acquiring {lock.name!r} (rank {lock.rank}, "
                    f"{rank_tier(lock.rank)}) while holding "
                    f"{innermost.name!r} (rank {innermost.rank}, "
                    f"{rank_tier(innermost.rank)}); held: "
                    f"{self.held_names()}",
                    held=self.held_names())
        elif stack and not lock.reentrant \
                and any(held is lock for held in stack):
            # A plain lock re-acquired by its owner deadlocks for real.
            self._violation(
                "self-deadlock", lock,
                f"thread already holds non-reentrant lock {lock.name!r}",
                held=self.held_names())
        if self.detect_deadlocks:
            me = threading.get_ident()
            with self._meta:
                holder = self._holders.get(id(lock))
                if holder is not None and holder != me:
                    cycle = self._find_cycle(me, holder)
                    if cycle is not None:
                        self._violation(
                            "deadlock", lock,
                            f"acquiring {lock.name!r} closes a wait-for "
                            f"cycle: {' -> '.join(cycle)}",
                            cycle=cycle)
                        return
                    self._waiting[me] = lock

    def _find_cycle(self, me: int, holder: int) -> Optional[List[str]]:
        """Walk holder -> waited-lock -> holder...; meta-lock held."""
        chain: List[str] = []
        seen = set()
        current = holder
        while current is not None and current not in seen:
            seen.add(current)
            waited = self._waiting.get(current)
            if waited is None:
                return None
            chain.append(waited.name)
            if current == me:
                return chain
            current = self._holders.get(id(waited))
            if current == me:
                return chain
        return None

    def after_acquire(self, lock: "TrackedLock", acquired: bool) -> None:
        me = threading.get_ident()
        with self._meta:
            self._waiting.pop(me, None)
            if acquired:
                self._holders[id(lock)] = me
        if acquired:
            self._stack().append(lock)

    def on_release(self, lock: "TrackedLock") -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is lock:
                del stack[index]
                break
        if not any(held is lock for held in stack):
            with self._meta:
                holder = self._holders.get(id(lock))
                if holder == threading.get_ident():
                    del self._holders[id(lock)]

    # ------------------------------------------------------------------ #
    # violations

    def _violation(self, kind: str, lock: "TrackedLock", message: str,
                   **attrs: object) -> None:
        record: Dict[str, object] = {
            "kind": kind,
            "lock": lock.name,
            "rank": lock.rank,
            "thread": threading.current_thread().name,
            "message": message,
        }
        record.update(attrs)
        self.violations.append(record)
        recorder = lock.recorder if lock.recorder.enabled else self.recorder
        recorder.event(obs_events.SANITIZER_VIOLATION, violation=kind,
                       lock=lock.name, rank=lock.rank,
                       thread=threading.current_thread().name,
                       message=message)
        if self.raise_on_violation:
            if kind == "deadlock":
                raise DeadlockError(message)
            raise LockOrderError(message)


#: The active sanitizer, if any.  Reads are a single global lookup, which
#: is what keeps :meth:`TrackedLock.acquire`'s fast path cheap.
_SANITIZER: Optional[LockSanitizer] = None


def enable_sanitizer(recorder=NULL_RECORDER,
                     raise_on_violation: bool = True,
                     check_hierarchy: bool = True,
                     detect_deadlocks: bool = True) -> LockSanitizer:
    """Install (and return) a fresh process-wide :class:`LockSanitizer`."""
    global _SANITIZER
    _SANITIZER = LockSanitizer(recorder=recorder,
                               raise_on_violation=raise_on_violation,
                               check_hierarchy=check_hierarchy,
                               detect_deadlocks=detect_deadlocks)
    return _SANITIZER


def disable_sanitizer() -> None:
    """Remove the active sanitizer; tracked locks revert to the fast path."""
    global _SANITIZER
    _SANITIZER = None


def sanitizer() -> Optional[LockSanitizer]:
    """The active sanitizer, or ``None``."""
    return _SANITIZER


def _reset_sanitizer_in_child() -> None:
    if _SANITIZER is not None:
        _SANITIZER.reset_after_fork()


os.register_at_fork(after_in_child=_reset_sanitizer_in_child)


class TrackedLock:
    """A named, ranked ``threading.Lock`` with optional instrumentation.

    Drop-in for the stdlib lock (``acquire``/``release``/``locked``,
    context manager).  When no sanitizer is installed and the recorder is
    the null recorder, ``acquire`` costs one global read and one attribute
    check over the raw primitive; otherwise the slow path checks the
    hierarchy, maintains the wait-for graph, and records wait/hold
    histograms through the flight recorder.
    """

    reentrant = False
    __slots__ = ("name", "rank", "recorder", "_lock", "_depth",
                 "_held_since")

    def __init__(self, name: str, rank: int,
                 recorder=NULL_RECORDER) -> None:
        if not name:
            raise ConfigError("tracked locks must be named")
        self.name = name
        self.rank = int(rank)
        self.recorder = recorder
        self._lock = self._make()
        # Reentrancy depth, mutated only while the lock is held (so only
        # ever by the owning thread); drives hold-time measurement.
        self._depth = 0
        self._held_since = 0.0

    def _make(self):
        return threading.Lock()

    # ------------------------------------------------------------------ #
    # the lock surface

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if _SANITIZER is None and not self.recorder.enabled:
            return self._lock.acquire(blocking, timeout)
        return self._slow_acquire(blocking, timeout)

    def release(self) -> None:
        san = _SANITIZER
        if san is None and not self.recorder.enabled:
            self._lock.release()
            return
        if self._depth > 0:
            self._depth -= 1
            if self._depth == 0:
                recorder = self._pick_recorder(san)
                if recorder.enabled:
                    recorder.observe(f"lock.hold_seconds.{self.name}",
                                     time.perf_counter() - self._held_since)
        if san is not None:
            san.on_release(self)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}({self.name!r}, rank={self.rank}, "
                f"tier={rank_tier(self.rank)})")

    # ------------------------------------------------------------------ #
    # slow path

    def _pick_recorder(self, san: Optional[LockSanitizer]):
        """The lock's own recorder, else the sanitizer's (if any)."""
        if self.recorder.enabled or san is None:
            return self.recorder
        return san.recorder

    def _slow_acquire(self, blocking: bool, timeout: float) -> bool:
        san = _SANITIZER
        if san is not None:
            san.before_acquire(self)
        started = time.perf_counter()
        acquired = self._lock.acquire(blocking, timeout)
        waited = time.perf_counter() - started
        if san is not None:
            san.after_acquire(self, acquired)
        if acquired:
            self._depth += 1
            if self._depth == 1:
                self._held_since = started + waited
            recorder = self._pick_recorder(san)
            if recorder.enabled:
                recorder.observe(f"lock.wait_seconds.{self.name}", waited)
        return acquired


class TrackedRLock(TrackedLock):
    """A named, ranked ``threading.RLock``.

    Re-acquisition by the owning thread is always legal (the sanitizer
    skips the hierarchy check for a lock the thread already holds);
    hold-time measures the outermost hold.
    """

    reentrant = True
    __slots__ = ()

    def _make(self):
        return threading.RLock()

    def locked(self) -> bool:
        """Whether the *calling thread* owns the lock.

        The C ``RLock`` grew ``locked()`` only in Python 3.12; owner
        introspection is the portable (and for a reentrant lock, the
        more useful) signal.
        """
        return self._lock._is_owned()  # noqa: SLF001 - stdlib debug API


# Honor the environment at import time so every tracked lock in the
# process is sanitized when the test/CI run asks for debug checks.
if debug_checks_enabled():  # pragma: no cover - exercised via CI env
    enable_sanitizer()
