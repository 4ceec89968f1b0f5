"""Fault-tolerant, caching client for the insights service.

The paper's compiler fleet talks to the annotation serving layer over the
network (~15 ms round trips, Section 5.2) under heavy concurrent job
submission, and Section 4's multi-level controls exist precisely because
that dependency fails in production.  This client is the reproduction of
that operational posture:

* **local TTL cache** -- per-tag annotation lists are cached client-side,
  keyed by the service's publication generation so a re-selection
  invalidates everything at once;
* **timeouts and retries** -- each attempt is bounded by
  :data:`TIMEOUT_SECONDS`; failures retry with exponential backoff plus
  deterministic jitter (all in *simulated* seconds: the client never
  sleeps);
* **circuit breaker** -- after enough consecutive failures the breaker
  opens and fetches degrade immediately to the paper's kill-switch
  behavior: the job compiles with reuse disabled instead of failing
  (Section 4, "insight service level control as the uber control").
  After a cool-down the breaker goes half-open and lets one probe fetch
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
from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.errors import InsightsError
from repro.faults import points as fault_points
from repro.faults.runtime import NULL_FAULTS
from repro.insights.partition import CACHED_ROUND_TRIP_SECONDS
from repro.insights.service import SERVICE_SURFACE, Fetched, InsightsService
from repro.obs import events as obs_events
from repro.obs.recorder import NULL_RECORDER

#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


#: One attempt may cost at most this much simulated latency before it
#: counts as an :class:`~repro.common.errors.InsightsTimeout`.
TIMEOUT_SECONDS = 0.060
#: Retries after the first failed attempt (bounded).
MAX_RETRIES = 2
#: Backoff before retry k (1-based) is ``base * multiplier**(k-1)``,
#: plus up to ``jitter`` of itself, in simulated seconds.
BACKOFF_BASE_SECONDS = 0.010
BACKOFF_MULTIPLIER = 2.0
BACKOFF_JITTER = 0.25
#: Per-tag cache lifetime in simulated seconds (also invalidated by
#: every publication generation).
CACHE_TTL_SECONDS = 3600.0
#: Consecutive exhausted fetches before the breaker opens.
BREAKER_FAILURE_THRESHOLD = 5
#: Degraded fetches served while open before the probe (half-open).
BREAKER_COOLDOWN_FETCHES = 20
#: Seed of the backoff jitter (determinism).
JITTER_SEED = "client-jitter-0"


class CircuitBreaker:
    """Closed -> open -> half-open -> closed.

    Cool-down is counted in *fetches served while open* rather than
    wall-clock time: the reproduction never reads real time, so a
    traffic-based cool-down is deterministic.
    """

    def __init__(self) -> None:
        self._state = CLOSED
        self._consecutive_failures = 0
        self._open_fetches = 0
        self.recorder = NULL_RECORDER

    @property
    def state(self) -> str:
        return self._state

    def admit(self) -> str:
        """Decide one fetch: "attempt" (talk to the service) or "degrade".

        The fetch that ends the cool-down is the one probe of the
        half-open state; everybody else degrades until it reports back.
        """
        if self._state == CLOSED:
            return "attempt"
        if self._state == OPEN:
            self._open_fetches += 1
            if self._open_fetches >= BREAKER_COOLDOWN_FETCHES:
                self._state = HALF_OPEN
                self.recorder.event(obs_events.BREAKER_HALF_OPEN)
                return "attempt"
        return "degrade"

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self._state == HALF_OPEN:
            self._state = CLOSED
            self.recorder.event(obs_events.BREAKER_CLOSED)

    def record_failure(self) -> bool:
        """Record an exhausted fetch; returns True if the breaker opened."""
        if self._state == HALF_OPEN:
            # A failed probe throws the breaker straight back open.
            self._reopen()
            return True
        self._consecutive_failures += 1
        if (self._state == CLOSED and self._consecutive_failures
                >= BREAKER_FAILURE_THRESHOLD):
            self._reopen()
            return True
        return False

    def _reopen(self) -> None:
        self._state = OPEN
        self._open_fetches = 0
        self._consecutive_failures = 0
        self.recorder.event(obs_events.BREAKER_OPEN)


class InsightsClient:
    """Drop-in, fault-tolerant replacement for the raw service handle.

    Presents the full :class:`~repro.insights.service.InsightsService`
    surface the engine relies on (``fetch_annotations``, the view-lock
    calls, ``enabled``, ``metrics``), so ``ScopeEngine(insights=client)``
    needs no special casing.  Lock operations pass straight through: the
    lock table must stay strongly consistent (it guards buildout), so
    only the *serving* path gets caching and degradation.
    """

    def __init__(self, service: Optional[InsightsService] = None) -> None:
        self.service = service or InsightsService()
        #: The session's fault runtime; ``Session(faults=...)`` installs
        #: a live one so the ``insights.rpc`` seam can fire.
        self.faults = NULL_FAULTS
        self._recorder = NULL_RECORDER
        self.breaker = CircuitBreaker()
        self._jitter_rng = random.Random(JITTER_SEED)
        #: tag -> ``(expires_at, generation, rows)``: ``rows`` maps each
        #: tag of the fetch that filled the entry to its annotations, and
        #: is empty while that fetch is still a sibling's promise.
        self._cache: Dict[str, tuple] = {}
        #: Client-side operational counters; monotonic.
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
        self._cache.clear()
        return count

    def bump_generation(self) -> int:
        """Pass-through cache invalidation (the local cache is keyed by
        generation, so entries die on the next fetch; clearing eagerly
        just returns the memory sooner)."""
        generation = self.service.bump_generation()
        self._cache.clear()
        return generation

    def retract(self, recurring_signatures) -> int:
        removed = self.service.retract(recurring_signatures)
        if removed:
            self._cache.clear()
        return removed

    # ------------------------------------------------------------------ #
    # the serving path: a job's fetch reads its answer from the wave it
    # was prepared in, or from a wave of one -- never raising on a
    # serving failure: with retries exhausted (or the breaker open) the
    # answer is empty and ``degraded``, so the engine compiles the job
    # reuse-free (the paper's incident posture).

    def fetch_annotations(self, tags: Iterable[str],
                          now: Optional[float] = None,
                          prepared: Optional[Fetched] = None) -> Fetched:
        """A job's :class:`Fetched` -- its annotations keyed by recurring
        signature, its latency and whether it degraded: the answer its
        wave ``prepared`` (:meth:`fetch_wave`), or a wave of one.

        Empty when the service-level kill switch is off, which disables
        both matching and buildout downstream.
        """
        return prepared or self.fetch_wave([(tags, now)])[0]

    def fetch_wave(self, requests: Sequence[tuple]) -> List[Fetched]:
        """Answer a wave's fetches -- ``(tags, now)`` per job, in
        submission order -- as one-by-one fetches in that order would be
        answered, with one lookup frame per owning shard per round.

        Sound because nothing of a wave is sealed while a sibling
        compiles (DESIGN §8): no publish, bump or retract runs between
        the scheduler opening a wave and its last job executing, so the
        answer at the wave's start is the one each job's own fetch would
        have got.  The (workers, shards) grid of
        ``test_concurrent_equivalence.py`` is the test.

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

    def _fetch(self, tags: tuple, now: float, promised: Dict[str, tuple]):
        """One job's fetch, written as it runs alone: a generator that
        yields ``(needed tags, settled)`` once per round of its wave and
        is sent the :meth:`InsightsService.lookup` reply for them.

        Its missing tags climb the retry ladder.  A job is *settled* when
        it goes on the wire with a retry to spare, the breaker closed and
        an all-hit retry inside the timeout: then it succeeds unless its
        frame fails, and the cache entry it will fill is ``promised`` to
        later siblings of the round, whose rows arrive after the round's
        frame.  The breaker hears every outcome after the frame, in
        submission order; no sibling of the round asks it anything in
        between but ``admit`` while closed, whose answer no outcome
        changes."""
        self._recorder.advance_to(now)
        if not self.service.begin_fetch():
            return Fetched({})
        generation, cache = self.service.generation, self._cache
        # Per tag, the rows that answer it: a cache entry's, a sibling's
        # promise, or this job's own ``rows``.
        latency, rows, sources, needed = 0.0, {}, [], []
        for tag in tags:
            entry = promised.get(tag) or cache.get(tag)
            if (entry is not None and entry[1] == generation
                    and now < entry[0]):
                sources.append(entry[2])
            else:
                sources.append(rows)
                needed.append(tag)
        hits = len(sources) - len(needed)
        self.cache_hits += hits
        self.cache_misses += len(needed)
        self._recorder.inc("client.cache_hits", hits)
        self._recorder.inc("client.cache_misses", len(needed))

        if not needed:
            if not all(tag in held for held, tag in zip(sources, tags)):
                yield needed, True  # wait for a sibling's promised rows
        elif self.breaker.admit() == "degrade":
            return self._degrade(reason="breaker-open")
        else:
            entry = (now + CACHE_TTL_SECONDS, generation, rows)
            attempts, timeout = MAX_RETRIES + 1, TIMEOUT_SECONDS
            all_hits, cost, found = 0.0, None, []
            for _ in needed:
                all_hits += CACHED_ROUND_TRIP_SECONDS
            for attempt in range(attempts):
                lost = False
                if cost is not None:
                    # A retry after a timeout sends nothing: the first
                    # attempt put every tag in its partition's serving
                    # cache, so the retry's all-hit charges and its rows
                    # are already known.
                    cost = self.service.relookup(needed)
                else:
                    injected = self.faults.check(fault_points.INSIGHTS_RPC)
                    lost = injected.kind in ("drop", "error")
                    if not lost:
                        settled = (attempt + 1 < attempts
                                   and all_hits <= timeout
                                   and self.breaker.state == CLOSED)
                        if settled:
                            promised.update(dict.fromkeys(needed, entry))
                        reply = yield needed, settled
                        if not isinstance(reply, InsightsError):
                            found, cost = reply[0], reply[1] + injected.delay
                if cost is not None and cost <= timeout:
                    break
                latency += timeout
                if attempt + 1 < attempts:
                    self.retries += 1
                    self._recorder.inc("client.retries")
                    self._recorder.event(obs_events.FETCH_RETRY,
                                         attempt=attempt + 1,
                                         tags=len(needed))
                    latency += self._backoff(attempt)
            else:
                if lost:
                    yield [], False  # heard after this round's frame
                if self.breaker.record_failure():
                    self._recorder.inc("client.breaker_opens")
                return self._degrade(reason="fetch-failed")
            self.breaker.record_success()
            latency += cost
            rows.update(zip(needed, found))
            cache.update(dict.fromkeys(needed, entry))
        per_tag = [held.get(tag) for held, tag in zip(sources, tags)]
        if None in per_tag:  # promised by a sibling that failed
            return self._degrade(reason="fetch-failed")
        return Fetched(self.service.finish_fetch(per_tag), latency)

    def _degrade(self, reason: str) -> Fetched:
        self.degraded_fetches += 1
        self._recorder.inc("client.degraded_fetches")
        self._recorder.event(obs_events.FETCH_DEGRADED, reason=reason,
                             breaker_state=self.breaker.state)
        return Fetched({}, degraded=True)

    def _backoff(self, attempt: int) -> float:
        base = BACKOFF_BASE_SECONDS * BACKOFF_MULTIPLIER ** attempt
        jitter = self._jitter_rng.random()
        return base * (1.0 + BACKOFF_JITTER * jitter)


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
