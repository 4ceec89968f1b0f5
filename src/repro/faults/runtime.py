"""The fault runtime: deterministic evaluation of a fault plan.

One :class:`FaultRuntime` is shared by every seam of one session --
backends, scheduler workers, the insights client, the catalog journal,
and the GC sweep all hold a reference to the same runtime, so a single
seeded RNG decides every probabilistic firing in arrival order and a
chaos run is reproducible bit for bit.

Two entry points:

* :meth:`FaultRuntime.check` evaluates the plan at one point and
  *returns* the outcome (kind + delay) without raising -- for seams that
  map failures to their own exception types (the insights client) or
  handle them inline (the journal's torn writes);
* :meth:`FaultRuntime.fire` raises the mapped exception directly --
  the one-liner for backend/scheduler/GC seams.

Probability semantics: all probabilistic specs at one point share a
**single cumulative draw** (with drop=0.3 and error=0.2, one draw lands
in [0, 0.3) for drop and [0.3, 0.5) for error), and an always-on
``delay`` spec adds latency to every surviving arrival without
consuming the draw.

When no plan is installed every seam holds :data:`NULL_FAULTS`, whose
``fire``/``check`` are attribute-lookup-plus-return no-ops -- the
zero-overhead-when-disabled contract ``bench_fault_overhead`` enforces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import (
    ExecutionError,
    InjectedCrash,
    InsightsTimeout,
    StorageError,
    TransientBackendError,
)
from repro.common.sync import RANK_LEAF, TrackedLock
from repro.faults.plan import FaultPlan, FaultSpec


@dataclass(frozen=True)
class FaultOutcome:
    """What one arrival at an injection point drew."""

    point: str = ""
    kind: Optional[str] = None
    delay: float = 0.0


#: The shared no-fault outcome (also what :data:`NULL_FAULTS` returns).
NO_FAULT = FaultOutcome()


class FaultRuntime:
    """Evaluates one :class:`FaultPlan` deterministically; thread-safe."""

    enabled = True

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan()
        self.enabled = self.plan.active
        self._by_point = self.plan.by_point()
        self._rng = random.Random(f"faults-{self.plan.seed}")
        # Bottom of the lock hierarchy: seams fire faults while holding
        # their own locks (the journal handle, the SQLite storage mutex),
        # so this guard must rank below every other tracked lock and
        # never takes one itself.
        self._mutex = TrackedLock("faults.runtime", RANK_LEAF - 10)
        self._arrivals: Dict[str, int] = {}
        self._fires: Dict[int, int] = {}
        #: Deterministic firing log as (point, kind) tuples.
        self.fired_log: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------ #
    # evaluation

    def check(self, point: str) -> FaultOutcome:
        """One arrival at ``point``: decide, count, and return."""
        with self._mutex:
            index = self._arrivals.get(point, 0)
            self._arrivals[point] = index + 1
            live = [spec for spec in self._by_point.get(point, ())
                    if self._live(spec, index)]
            if not live:
                return NO_FAULT
            delay = 0.0
            chosen: Optional[FaultSpec] = None
            walk = [s for s in live
                    if not (s.kind == "delay" and s.probability >= 1.0)]
            if walk:
                draw = self._rng.random()
                cumulative = 0.0
                for spec in walk:
                    cumulative += spec.probability
                    if draw < cumulative:
                        chosen = spec
                        break
            if chosen is None:
                # Survived every probabilistic spec: always-on delay
                # specs still tax the round trip.
                for spec in live:
                    if spec.kind == "delay" and spec.probability >= 1.0:
                        delay += spec.delay_seconds
                        self._count(spec)
                if delay == 0.0:
                    return NO_FAULT
                outcome = FaultOutcome(point=point, kind="delay",
                                       delay=delay)
                self.fired_log.append((point, "delay"))
                return outcome
            self._count(chosen)
            self.fired_log.append((point, chosen.kind))
            return FaultOutcome(point=point, kind=chosen.kind,
                                delay=chosen.delay_seconds)

    def fire(self, point: str) -> FaultOutcome:
        """Like :meth:`check`, but raises the mapped exception."""
        outcome = self.check(point)
        kind = outcome.kind
        if kind is None or kind == "delay":
            return outcome
        message = f"injected {kind} fault at {point}"
        if kind == "crash":
            raise InjectedCrash(message)
        if kind == "transient":
            raise TransientBackendError(message)
        if kind in ("storage", "torn"):
            raise StorageError(message)
        if kind == "drop":
            raise InsightsTimeout(message)
        raise ExecutionError(message)

    def _live(self, spec: FaultSpec, index: int) -> bool:
        if index < spec.after or spec.probability <= 0.0:
            return False
        if spec.max_fires is not None:
            if self._fires.get(id(spec), 0) >= spec.max_fires:
                return False
        return True

    def _count(self, spec: FaultSpec) -> None:
        self._fires[id(spec)] = self._fires.get(id(spec), 0) + 1

    # ------------------------------------------------------------------ #
    # observability

    @property
    def fired_total(self) -> int:
        with self._mutex:
            return len(self.fired_log)

    def stats(self) -> Dict[str, object]:
        """Arrival and firing counts per point (chaos-report payload)."""
        with self._mutex:
            by_kind: Dict[str, int] = {}
            by_point: Dict[str, int] = {}
            for point, kind in self.fired_log:
                by_kind[kind] = by_kind.get(kind, 0) + 1
                by_point[point] = by_point.get(point, 0) + 1
            return {
                "plan": self.plan.name or "(unnamed)",
                "seed": self.plan.seed,
                "arrivals": dict(sorted(self._arrivals.items())),
                "fired": dict(sorted(by_point.items())),
                "fired_by_kind": dict(sorted(by_kind.items())),
                "fired_total": len(self.fired_log),
            }


class NullFaultRuntime:
    """The inert runtime every seam holds by default.

    ``fire``/``check`` return the shared :data:`NO_FAULT` immediately;
    the hot path pays one attribute lookup and one call, which the
    overhead benchmark pins at unmeasurable.
    """

    enabled = False
    plan = FaultPlan()
    fired_log: List[Tuple[str, str]] = []
    fired_total = 0

    def check(self, point: str) -> FaultOutcome:
        return NO_FAULT

    def fire(self, point: str) -> FaultOutcome:
        return NO_FAULT

    def stats(self) -> Dict[str, object]:
        return {"plan": "(none)", "seed": 0, "arrivals": {}, "fired": {},
                "fired_by_kind": {}, "fired_total": 0}


#: Shared inert singleton; identity-comparable (``faults is NULL_FAULTS``).
NULL_FAULTS = NullFaultRuntime()


def resolve_faults(value) -> "FaultRuntime | NullFaultRuntime":
    """Coerce any user-facing ``faults=`` value to a runtime.

    Accepts ``None`` (no faults), a :class:`FaultRuntime` (shared as
    is), a :class:`FaultPlan`, or a string (JSON / DSL, see
    :meth:`FaultPlan.parse`).
    """
    if value is None:
        return NULL_FAULTS
    if isinstance(value, (FaultRuntime, NullFaultRuntime)):
        return value
    if isinstance(value, FaultPlan):
        return FaultRuntime(value)
    if isinstance(value, str):
        return FaultRuntime(FaultPlan.parse(value))
    from repro.common.errors import ConfigError
    raise ConfigError(
        f"faults= expects a FaultPlan, FaultRuntime, plan string, or "
        f"None; got {type(value).__name__}")
