"""Fault-tolerant, caching client for the insights service.

The paper's compiler fleet talks to the annotation serving layer over the
network (~15 ms round trips, Section 5.2) under heavy concurrent job
submission, and Section 4's multi-level controls exist precisely because
that dependency fails in production.  This client is the reproduction of
that operational posture:

* **local TTL cache** -- per-tag annotation lists are cached client-side,
  keyed by the service's publication generation so a re-selection
  invalidates everything at once;
* **timeouts and retries** -- each attempt is bounded by a configurable
  timeout; failures retry with exponential backoff plus deterministic
  jitter (all in *simulated* seconds: the client never sleeps);
* **circuit breaker** -- after enough consecutive failures the breaker
  opens and fetches degrade immediately to the paper's kill-switch
  behavior: the job compiles with reuse disabled instead of failing
  (Section 4, "insight service level control as the uber control").
  After a cool-down the breaker goes half-open and lets probe fetches
  test the service before closing again;
* **fault injection** -- the ``insights.rpc`` point of the session's
  :class:`~repro.faults.FaultRuntime` drops, fails or delays the serving
  round trip, so every degradation path is testable.

Everything here is deterministic: injected faults and jitter come from a
seeded RNG, and time is simulated latency accounting, so a concurrent run
with faults disabled produces byte-identical reuse decisions to a serial
one.  A fetch is one round trip for the calling job's own missing tags,
so the latency it is charged depends on that job and the cache alone,
never on which other jobs happened to be fetching.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigError, InsightsError, InsightsTimeout
from repro.common.sync import RANK_INSIGHTS, TrackedLock
from repro.faults import points as fault_points
from repro.faults.runtime import NULL_FAULTS
from repro.insights.service import SERVICE_SURFACE, InsightsService
from repro.obs import events as obs_events
from repro.obs.recorder import NULL_RECORDER
from repro.optimizer.context import Annotation

#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(kw_only=True)
class InsightsClientConfig:
    """Tunables of the fault-tolerant client (all keyword-only)."""

    #: One attempt may cost at most this much simulated latency before it
    #: counts as an :class:`~repro.common.errors.InsightsTimeout`.
    timeout_seconds: float = 0.060
    #: Retries after the first failed attempt (bounded).
    max_retries: int = 2
    #: Backoff before retry k (1-based) is ``base * multiplier**(k-1)``,
    #: plus up to ``jitter`` of itself, in simulated seconds.
    backoff_base_seconds: float = 0.010
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.25
    #: Per-tag cache lifetime in simulated seconds (also invalidated by
    #: every publication generation).
    cache_ttl_seconds: float = 3600.0
    #: Consecutive exhausted fetches before the breaker opens.
    breaker_failure_threshold: int = 5
    #: Degraded fetches served while open before probing (half-open).
    breaker_cooldown_fetches: int = 20
    #: Successful probes required to close again from half-open.
    breaker_probes_to_close: int = 1
    #: Seed for jitter and fault injection (determinism).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.timeout_seconds <= 0:
            raise ConfigError("timeout_seconds must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.breaker_failure_threshold < 1:
            raise ConfigError("breaker_failure_threshold must be >= 1")
        if self.breaker_cooldown_fetches < 1:
            raise ConfigError("breaker_cooldown_fetches must be >= 1")


class CircuitBreaker:
    """Closed -> open -> half-open -> closed, lock-guarded.

    Cool-down is counted in *fetches served while open* rather than
    wall-clock time: the reproduction never reads real time, and a
    traffic-based cool-down is deterministic under any thread schedule.
    """

    def __init__(self, config: InsightsClientConfig,
                 recorder=NULL_RECORDER) -> None:
        self._config = config
        self._lock = TrackedLock("insights.breaker", RANK_INSIGHTS + 30)
        self._state = CLOSED
        self._consecutive_failures = 0
        self._open_fetches = 0
        self._half_open_successes = 0
        self._probes_in_flight = 0
        self.recorder = recorder
        #: Transition log as (state, fetch-ordinal-free) tuples for tests.
        self.transitions: List[str] = []

    @property
    def recorder(self):
        return self._recorder

    @recorder.setter
    def recorder(self, value) -> None:
        self._recorder = value
        self._lock.recorder = value

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, state: str) -> None:
        self._state = state
        self.transitions.append(state)

    def admit(self) -> str:
        """Decide one fetch: "attempt" (talk to the service) or "degrade".

        While half-open, only a bounded number of probes are admitted at
        once; everybody else degrades until the probes report back.
        """
        with self._lock:
            if self._state == CLOSED:
                return "attempt"
            if self._state == OPEN:
                self._open_fetches += 1
                if self._open_fetches >= self._config.breaker_cooldown_fetches:
                    self._transition(HALF_OPEN)
                    self.recorder.event(obs_events.BREAKER_HALF_OPEN)
                    self._half_open_successes = 0
                    self._probes_in_flight = 1
                    return "attempt"
                return "degrade"
            # HALF_OPEN: admit a bounded number of concurrent probes.
            if self._probes_in_flight < self._config.breaker_probes_to_close:
                self._probes_in_flight += 1
                return "attempt"
            return "degrade"

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._half_open_successes += 1
                if (self._half_open_successes
                        >= self._config.breaker_probes_to_close):
                    self._transition(CLOSED)
                    self.recorder.event(obs_events.BREAKER_CLOSED)

    def record_failure(self) -> bool:
        """Record an exhausted fetch; returns True if the breaker opened."""
        with self._lock:
            if self._state == HALF_OPEN:
                # A failed probe throws the breaker straight back open.
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._reopen()
                return True
            self._consecutive_failures += 1
            if (self._state == CLOSED and self._consecutive_failures
                    >= self._config.breaker_failure_threshold):
                self._reopen()
                return True
            return False

    def _reopen(self) -> None:
        self._transition(OPEN)
        self._open_fetches = 0
        self._consecutive_failures = 0
        self.recorder.event(obs_events.BREAKER_OPEN)


class _CacheEntry:
    __slots__ = ("annotations", "expires_at", "generation")

    def __init__(self, annotations: List[Annotation], expires_at: float,
                 generation: int) -> None:
        self.annotations = annotations
        self.expires_at = expires_at
        self.generation = generation


class InsightsClient:
    """Drop-in, fault-tolerant replacement for the raw service handle.

    Presents the full :class:`~repro.insights.service.InsightsService`
    surface the engine relies on (``fetch_annotations``, the view-lock
    calls, ``enabled``, ``metrics``), so ``ScopeEngine(insights=client)``
    needs no special casing.  Lock operations pass straight through: the
    lock table must stay strongly consistent (it guards buildout), so
    only the *serving* path gets caching and degradation.
    """

    def __init__(self, service: Optional[InsightsService] = None,
                 config: Optional[InsightsClientConfig] = None,
                 recorder=NULL_RECORDER) -> None:
        self.service = service or InsightsService()
        self.config = config or InsightsClientConfig()
        #: The session's fault runtime; ``Session(faults=...)`` installs
        #: a live one so the ``insights.rpc`` seam can fire.
        self.faults = NULL_FAULTS
        self._recorder = recorder
        self.breaker = CircuitBreaker(self.config, recorder=recorder)
        self._jitter_rng = random.Random(f"client-jitter-{self.config.seed}")
        # Top of the insights band: guards the cache and the counters
        # and is never held across a serving round trip.
        self._mutex = TrackedLock("insights.client", RANK_INSIGHTS + 40,
                                  recorder)
        self._cache: Dict[str, _CacheEntry] = {}
        self._fetch_state = threading.local()
        #: Client-side operational counters (lock-guarded like the
        #: service's); monotonic.
        self.degraded_fetches = 0
        self.retries = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------ #
    # recorder plumbing (FlightRecorder.install sets ``.recorder``)

    @property
    def recorder(self):
        return self._recorder

    @recorder.setter
    def recorder(self, value) -> None:
        self._recorder = value
        self._mutex.recorder = value
        self.breaker.recorder = value
        self.service.recorder = value

    # ------------------------------------------------------------------ #
    # the service surface: state reads through, the three publication
    # calls also drop the local cache, every other operation is a plain
    # forward installed from SERVICE_SURFACE below the class

    @property
    def enabled(self) -> bool:
        return self.service.enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self.service.enabled = value

    @property
    def metrics(self):
        return self.service.metrics

    @property
    def generation(self) -> int:
        return self.service.generation

    def publish(self, annotations) -> int:
        count = self.service.publish(annotations)
        with self._mutex:
            self._cache.clear()
        return count

    def bump_generation(self) -> int:
        """Pass-through cache invalidation (the local cache is keyed by
        generation, so entries die on the next fetch; clearing eagerly
        just returns the memory sooner)."""
        generation = self.service.bump_generation()
        with self._mutex:
            self._cache.clear()
        return generation

    def retract(self, recurring_signatures) -> int:
        removed = self.service.retract(recurring_signatures)
        if removed:
            with self._mutex:
                self._cache.clear()
        return removed

    # ------------------------------------------------------------------ #
    # per-thread fetch bookkeeping

    @property
    def last_fetch_latency(self) -> float:
        return getattr(self._fetch_state, "latency", 0.0)

    @property
    def last_fetch_degraded(self) -> bool:
        """True when the calling thread's last fetch fell back to the
        reuse-disabled degradation path."""
        return getattr(self._fetch_state, "degraded", False)

    # ------------------------------------------------------------------ #
    # the serving path

    def fetch_annotations(self, tags: Iterable[str],
                          now: Optional[float] = None
                          ) -> Dict[str, Annotation]:
        """Fetch one job's annotations with caching and fault tolerance.

        Never raises on serving failure: after retries are exhausted (or
        with the breaker open) it returns an empty mapping and flags the
        thread-local ``last_fetch_degraded``, so the engine compiles the
        job with reuse disabled -- exactly the paper's incident posture.
        """
        now = 0.0 if now is None else now
        tags = tuple(tags)
        self._fetch_state.degraded = False
        self._fetch_state.latency = 0.0
        if not self.service.begin_fetch():
            return {}

        generation = self.service.generation
        needed: List[str] = []
        per_tag: Dict[str, List[Annotation]] = {}
        latency = 0.0
        with self._mutex:
            for tag in tags:
                entry = self._cache.get(tag)
                if (entry is not None and entry.generation == generation
                        and now < entry.expires_at):
                    per_tag[tag] = entry.annotations
                    self.cache_hits += 1
                else:
                    needed.append(tag)
                    self.cache_misses += 1
        self._recorder.inc("client.cache_hits", len(per_tag))
        self._recorder.inc("client.cache_misses", len(needed))

        if needed:
            decision = self.breaker.admit()
            if decision == "degrade":
                return self._degrade(reason="breaker-open")
            fetched, latency, ok = self._fetch_with_retries(tuple(needed))
            if not ok:
                return self._degrade(reason="fetch-failed")
            self.breaker.record_success()
            with self._mutex:
                for tag, annotations in fetched.items():
                    self._cache[tag] = _CacheEntry(
                        annotations, now + self.config.cache_ttl_seconds,
                        generation)
            per_tag.update(fetched)

        self._fetch_state.latency = latency
        return self.service.finish_fetch(per_tag.get(tag, ()) for tag in tags)

    def _degrade(self, reason: str) -> Dict[str, Annotation]:
        self._fetch_state.degraded = True
        self._fetch_state.latency = 0.0
        with self._mutex:
            self.degraded_fetches += 1
        self._recorder.inc("client.degraded_fetches")
        self._recorder.event(obs_events.FETCH_DEGRADED, reason=reason,
                             breaker_state=self.breaker.state)
        return {}

    # ------------------------------------------------------------------ #
    # attempts and retries

    def _fetch_with_retries(self, tags: Tuple[str, ...]
                            ) -> Tuple[Dict[str, List[Annotation]], float, bool]:
        """Returns (per-tag results, accumulated simulated latency, ok)."""
        latency = 0.0
        attempts = self.config.max_retries + 1
        for attempt in range(attempts):
            try:
                results, cost = self._round_trip(tags)
                return results, latency + cost, True
            except InsightsError:
                latency += self.config.timeout_seconds
                if attempt + 1 < attempts:
                    with self._mutex:
                        self.retries += 1
                    self._recorder.inc("client.retries")
                    self._recorder.event(obs_events.FETCH_RETRY,
                                         attempt=attempt + 1,
                                         tags=len(tags))
                    latency += self._backoff(attempt)
        opened = self.breaker.record_failure()
        if opened:
            self._recorder.inc("client.breaker_opens")
        return {}, latency, False

    def _backoff(self, attempt: int) -> float:
        base = (self.config.backoff_base_seconds
                * self.config.backoff_multiplier ** attempt)
        with self._mutex:
            jitter = self._jitter_rng.random()
        return base * (1.0 + self.config.backoff_jitter * jitter)

    def _round_trip(self, tags: Tuple[str, ...]
                    ) -> Tuple[Dict[str, List[Annotation]], float]:
        """The raw serving-layer call, with fault injection and timeout."""
        delay = 0.0
        if self.faults.enabled:
            injected = self.faults.check(fault_points.INSIGHTS_RPC)
            if injected.kind == "drop":
                raise InsightsTimeout(
                    f"injected drop after {self.config.timeout_seconds}s")
            if injected.kind == "error":
                raise InsightsError("injected serving-layer error")
            delay = injected.delay
        results = self.service.fetch_tag_annotations(tags)
        cost = self.service.last_fetch_latency + delay
        if cost > self.config.timeout_seconds:
            raise InsightsTimeout(
                f"round trip took {cost * 1000:.1f}ms "
                f"(timeout {self.config.timeout_seconds * 1000:.1f}ms)")
        return results, cost


def _forward(name: str):
    def method(self: InsightsClient, *args: object, **kwargs: object):
        return getattr(self.service, name)(*args, **kwargs)
    method.__name__ = name
    method.__doc__ = f"Forwards to :meth:`InsightsService.{name}`."
    return method


# Real class attributes (not ``__getattr__``): instrumentation patches
# ``InsightsClient.__dict__[name]`` by name.
for _name in SERVICE_SURFACE:
    if _name not in InsightsClient.__dict__:
        setattr(InsightsClient, _name, _forward(_name))
