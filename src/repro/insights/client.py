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
  :class:`~repro.faults.FaultRuntime` drops, fails or delays a job's
  trip to the serving layer, so every degradation path is testable.

Everything here is deterministic: injected faults and jitter come from a
seeded RNG, and time is simulated latency accounting.  A scheduler wave
is answered by :meth:`InsightsClient.fetch_wave` on the draining thread,
in submission order, with one lookup frame per owning shard: each job is
charged exactly what fetching alone, one job after another, would charge
it, so latency and every counter are a function of the workload and
never of thread timing or deployment shape.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigError, InsightsError
from repro.common.sync import RANK_INSIGHTS, TrackedLock
from repro.faults import points as fault_points
from repro.faults.runtime import NULL_FAULTS
from repro.insights.partition import CACHED_ROUND_TRIP_SECONDS
from repro.insights.service import SERVICE_SURFACE, Fetched, InsightsService
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
    # the serving path: a job's fetch reads its answer from the wave it
    # was prepared in, or from a wave of one, as the service's does --
    # never raising on a serving failure: with retries exhausted (or the
    # breaker open) the answer is empty and ``degraded``, so the engine
    # compiles the job reuse-free (the paper's incident posture).

    fetch_annotations = InsightsService.fetch_annotations

    def fetch_wave(self, requests: Sequence[tuple]) -> List[Fetched]:
        """Answer a wave's fetches as one-by-one fetches in submission
        order would be answered, with one lookup frame per owning shard
        per round (why a wave may be answered at its start:
        :meth:`InsightsService.fetch_wave`).

        Each job runs :meth:`_fetch` until its tags must go on the wire.
        A round gathers jobs until one whose outcome is not *settled* --
        its wire attempt is its last, or the breaker is not closed --
        because a later job's cache and breaker depend on that outcome.
        Then the round's lists go out and its jobs finish in order; a
        job whose frame failed goes again in the next round.  Fault-free
        with a retry to spare, a wave is one round.
        """
        promised: Dict[str, object] = {}
        todo = deque(enumerate(self._fetch(tuple(tags), now or 0.0, promised)
                               for tags, now in requests))
        answers: List[Fetched] = [Fetched({})] * len(todo)
        replies: Dict[int, object] = {}
        while todo:
            asked = []
            while todo:
                index, fetch = todo.popleft()
                try:
                    needed, settled = fetch.send(replies.pop(index, None))
                except StopIteration as done:
                    answers[index] = done.value
                    continue
                asked.append((index, fetch, needed))
                if not settled:
                    break
            promised.clear()
            sent = [(index, needed) for index, _, needed in asked if needed]
            replies.update(zip([index for index, _ in sent], self.service
                               .lookup([n for _, n in sent]) if sent else []))
            todo.extendleft((index, fetch)
                            for index, fetch, _ in reversed(asked))
        return answers

    def _fetch(self, tags: tuple, now: float, promised: Dict[str, object]):
        """One job's fetch, written as it runs alone: a generator that
        yields ``(needed tags, settled)`` once per round of its wave and
        is sent the :meth:`InsightsService.lookup` reply for them.
        ``promised`` holds the cache entries the round's settled jobs
        will fill; their rows arrive after the round's frame."""
        self._recorder.advance_to(now)
        if not self.service.begin_fetch():
            return Fetched({})
        generation = self.service.generation
        hits, needed = [], []
        with self._mutex:
            for tag in tags:
                entry = promised.get(tag) or self._cache.get(tag)
                if (entry is not None and entry.generation == generation
                        and now < entry.expires_at):
                    hits.append((tag, entry))
                else:
                    needed.append(tag)
            self.cache_hits += len(hits)
            self.cache_misses += len(needed)
        self._recorder.inc("client.cache_hits", len(hits))
        self._recorder.inc("client.cache_misses", len(needed))

        latency, found = 0.0, []
        if not needed:
            if any(entry.annotations is None for _, entry in hits):
                yield needed, True  # wait for a sibling's promised rows
        elif self.breaker.admit() == "degrade":
            return self._degrade(reason="breaker-open")
        else:
            fill = {tag: _CacheEntry(None, now + self.config.cache_ttl_seconds,
                                     generation) for tag in needed}
            outcome = yield from self._attempts(needed, fill, promised)
            if outcome is None:
                return self._degrade(reason="fetch-failed")
            found, latency = outcome
            with self._mutex:
                for tag, annotations in zip(needed, found):
                    fill[tag].annotations = annotations
                self._cache.update(fill)
        per_tag = {tag: entry.annotations for tag, entry in hits}
        if None in per_tag.values():  # promised by a sibling that failed
            return self._degrade(reason="fetch-failed")
        per_tag.update(zip(needed, found))
        return Fetched(self.service.finish_fetch(
            per_tag.get(tag, ()) for tag in tags), latency)

    def _attempts(self, needed: list, fill: dict, promised: Dict[str, object]):
        """The retry ladder for a job's missing tags, a generator like
        :meth:`_fetch`: returns ``(per-tag annotations, latency)``, or
        ``None`` once every attempt failed.

        A job is *settled* when it goes on the wire with a retry to
        spare, the breaker closed and an all-hit retry inside the
        timeout: then it succeeds unless its frame fails, and the cache
        entries it will ``fill`` are promised to later siblings of the
        round.  The breaker hears every outcome after the frame, in
        submission order; no sibling of the round asks it anything in
        between but ``admit`` while closed, whose answer no outcome
        changes."""
        attempts = self.config.max_retries + 1
        timeout = self.config.timeout_seconds
        all_hits = 0.0
        for _ in needed:
            all_hits += CACHED_ROUND_TRIP_SECONDS
        latency, cost, found = 0.0, None, []
        for attempt in range(attempts):
            lost = False
            if cost is not None:
                # A retry after a timeout sends nothing: the first attempt
                # put every tag in its partition's serving cache, so the
                # retry's all-hit charges and its rows are already known.
                cost = self.service.relookup(needed)
            else:
                injected = self.faults.check(fault_points.INSIGHTS_RPC)
                lost = injected.kind in ("drop", "error")
                if not lost:
                    settled = (attempt + 1 < attempts and all_hits <= timeout
                               and self.breaker.state == CLOSED)
                    if settled:
                        promised.update(fill)
                    reply = yield needed, settled
                    if not isinstance(reply, InsightsError):
                        found, cost = reply[0], reply[1] + injected.delay
            if cost is not None and cost <= timeout:
                self.breaker.record_success()
                return found, latency + cost
            latency += timeout
            if attempt + 1 < attempts:
                with self._mutex:
                    self.retries += 1
                self._recorder.inc("client.retries")
                self._recorder.event(obs_events.FETCH_RETRY,
                                     attempt=attempt + 1, tags=len(needed))
                latency += self._backoff(attempt)
        if lost:
            yield [], False  # the failure is heard after this round's frame
        if self.breaker.record_failure():
            self._recorder.inc("client.breaker_opens")
        return None

    def _degrade(self, reason: str) -> Fetched:
        with self._mutex:
            self.degraded_fetches += 1
        self._recorder.inc("client.degraded_fetches")
        self._recorder.event(obs_events.FETCH_DEGRADED, reason=reason,
                             breaker_state=self.breaker.state)
        return Fetched({}, degraded=True)

    def _backoff(self, attempt: int) -> float:
        base = (self.config.backoff_base_seconds
                * self.config.backoff_multiplier ** attempt)
        with self._mutex:
            jitter = self._jitter_rng.random()
        return base * (1.0 + self.config.backoff_jitter * jitter)


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
