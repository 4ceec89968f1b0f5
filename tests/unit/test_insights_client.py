"""Unit tests for the fault-tolerant insights client.

Covers the TTL'd local cache, retries with backoff, the circuit
breaker's full closed -> open -> half-open -> closed cycle, fault
injection, and the degradation contract the engine relies on (a failed
fetch returns a ``Fetched`` with no annotations and ``degraded`` set
instead of raising).
"""

import random

import pytest

from repro.common.errors import InsightsTimeout, ReproError
from repro.faults import NULL_FAULTS, resolve_faults
from repro.insights import CircuitBreaker, InsightsClient, InsightsService
from repro.insights import client as client_module
from repro.insights.client import (
    BREAKER_COOLDOWN_FETCHES,
    BREAKER_FAILURE_THRESHOLD,
    CACHE_TTL_SECONDS,
    JITTER_SEED,
    TIMEOUT_SECONDS,
)
from repro.obs import FlightRecorder
from repro.obs import events as obs_events
from repro.optimizer.context import Annotation
from tests.integration.test_service_contract import usage


def annotation(tag="tag-1", recurring="rec-1"):
    return Annotation(recurring_signature=recurring, tag=tag,
                      expected_rows=10, expected_bytes=100)


def publish_one(target, tag="tag-1", recurring="rec-1"):
    target.publish([annotation(tag=tag, recurring=recurring)])


def faulty_client(plan):
    """A recorded client whose serving round trip runs under the fault
    ``plan`` (the ``point:kind[:probability[:max_fires[:delay]]]`` DSL)."""
    client = InsightsClient()
    client.recorder = FlightRecorder()
    client.faults = resolve_faults(plan)
    return client


ALWAYS_ERROR = "insights.rpc:error"
BREAKER_EVENTS = (obs_events.BREAKER_OPEN, obs_events.BREAKER_HALF_OPEN,
                  obs_events.BREAKER_CLOSED)


def transitions(recorder):
    """The breaker's state changes, as its recorder saw them."""
    return [event.kind for event in recorder.events.events()
            if event.kind in BREAKER_EVENTS]


class TestServingPath:
    def test_fetch_matches_raw_service(self):
        """A client's cold fetch is the service's lookup of its tags,
        keyed by recurring signature, at the lookup's latency."""
        client = InsightsClient()
        publish_one(client)
        direct = InsightsService()
        publish_one(direct)
        [(found, latency)] = direct.lookup([["tag-1", "ghost"]])
        assert found == [[annotation()], []]
        assert latency == 0.015 + 0.015
        fetched = client.fetch_annotations(["tag-1", "ghost"])
        assert fetched.annotations == {"rec-1": annotation()}
        assert fetched.latency == latency
        assert not fetched.degraded
        assert usage(client.metrics) == dict(
            usage(direct.metrics), fetches=1, annotations_served=1)

    def test_local_cache_hits_skip_the_service(self):
        client = InsightsClient()
        publish_one(client)
        client.fetch_annotations(["tag-1"], now=0.0)
        before = usage(client.metrics)
        result = client.fetch_annotations(["tag-1"], now=1.0).annotations
        after = usage(client.metrics)
        assert result["rec-1"].tag == "tag-1"
        assert client.cache_hits == 1
        # Per-job fetches still counted; no new serving-layer tag lookups.
        assert after["fetches"] == before["fetches"] + 1
        assert after["cache_misses"] == before["cache_misses"]
        assert after["cache_hits"] == before["cache_hits"]

    def test_a_retry_after_a_timeout_sends_nothing(self):
        """Five cold tags cost 75 ms, over the 60 ms timeout: the retry is
        five serving hits, counted and charged, without a second lookup
        (the first put every tag in the serving cache)."""
        service = InsightsService()
        lookups, lookup = [], service.lookup
        service.lookup = lambda lists: lookups.append(lists) or lookup(lists)
        client = InsightsClient(service)
        tags = [f"tag-{i}" for i in range(5)]
        client.publish([annotation(tag=t, recurring=f"rec-{t}") for t in tags])
        fetched = client.fetch_annotations(tags, now=0.0)
        assert set(fetched.annotations) == {f"rec-{t}" for t in tags}
        assert lookups == [[tags]] and client.retries == 1
        assert (client.metrics.cache_misses,
                client.metrics.cache_hits) == (5, 5)
        all_hits = 0.0
        for _ in tags:
            all_hits += 0.0015
        assert service.relookup_seconds == [all_hits]
        jitter = random.Random(JITTER_SEED).random()
        assert fetched.latency == 0.060 + 0.010 * (1.0 + 0.25 * jitter) \
            + all_hits
        assert not fetched.degraded

    def test_cache_expires_after_ttl(self):
        client = InsightsClient()
        publish_one(client)
        client.fetch_annotations(["tag-1"], now=0.0)
        client.fetch_annotations(["tag-1"], now=CACHE_TTL_SECONDS - 1.0)
        assert (client.cache_misses, client.cache_hits) == (1, 1)
        client.fetch_annotations(["tag-1"], now=CACHE_TTL_SECONDS + 1.0)
        assert client.cache_misses == 2
        assert client.cache_hits == 1

    def test_publish_invalidates_cache(self):
        client = InsightsClient()
        publish_one(client)
        client.fetch_annotations(["tag-1"], now=0.0)
        publish_one(client, recurring="rec-2")
        result = client.fetch_annotations(["tag-1"], now=0.0).annotations
        assert set(result) == {"rec-2"}
        assert client.cache_misses == 2

    def test_kill_switch_returns_empty_not_degraded(self):
        client = InsightsClient()
        publish_one(client)
        client.enabled = False
        fetched = client.fetch_annotations(["tag-1"])
        assert fetched.annotations == {}
        assert fetched.degraded is False

    def test_latency_accounting_is_simulated(self):
        client = InsightsClient()
        publish_one(client)
        fetched = client.fetch_annotations(["tag-1"], now=0.0)
        assert fetched.latency == pytest.approx(0.015)


class TestRetriesAndDegradation:
    def test_insights_timeout_is_repro_error(self):
        assert issubclass(InsightsTimeout, ReproError)

    def test_injected_errors_retry_then_succeed(self):
        # The first round trip errors, every later one goes through.
        client = faulty_client("insights.rpc:error:1.0:1")
        publish_one(client)
        fetched = client.fetch_annotations(["tag-1"], now=0.0)
        assert "rec-1" in fetched.annotations
        assert client.retries == 1
        assert fetched.degraded is False
        # Latency charges the failed attempt's timeout plus backoff.
        assert fetched.latency > TIMEOUT_SECONDS

    def test_exhausted_retries_degrade_instead_of_raising(self):
        client = faulty_client(ALWAYS_ERROR)
        publish_one(client)
        fetched = client.fetch_annotations(["tag-1"], now=0.0)
        assert fetched.annotations == {}
        assert fetched.degraded is True
        assert client.degraded_fetches == 1
        assert client.retries == client_module.MAX_RETRIES

    def test_degraded_flag_resets_on_next_success(self):
        client = faulty_client(ALWAYS_ERROR)
        publish_one(client)
        assert client.fetch_annotations(["tag-1"], now=0.0).degraded is True
        client.faults = NULL_FAULTS
        assert client.fetch_annotations(["tag-1"], now=0.0).degraded is False

    def test_slow_round_trip_times_out(self, monkeypatch):
        # No retry: a retry after a timeout re-looks the tags up without
        # a round trip, so it would succeed whatever the delay was.
        monkeypatch.setattr(client_module, "MAX_RETRIES", 0)
        client = faulty_client("insights.rpc:delay:1.0:1:1.0")
        publish_one(client)
        fetched = client.fetch_annotations(["tag-1"], now=0.0)
        assert fetched.annotations == {}
        assert fetched.degraded is True

    def test_backoff_grows_exponentially(self):
        client = InsightsClient()
        jitter = random.Random(JITTER_SEED)
        for attempt, base in enumerate([0.010, 0.020, 0.040]):
            assert client._backoff(attempt) == pytest.approx(
                base * (1.0 + 0.25 * jitter.random()))


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker()
        for _ in range(BREAKER_FAILURE_THRESHOLD - 1):
            assert breaker.record_failure() is False
        assert breaker.record_failure() is True
        assert breaker.state == "open"

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker()
        for _ in range(BREAKER_FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is False
        assert breaker.state == "closed"

    def test_full_open_half_open_close_cycle(self):
        client = faulty_client(ALWAYS_ERROR)
        publish_one(client)
        # Enough exhausted fetches open the breaker.
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            client.fetch_annotations(["tag-1"], now=0.0)
        assert client.breaker.state == "open"
        # While open, fetches degrade without a lookup: each is counted,
        # and no tag reaches the serving layer.
        before = usage(client.metrics)
        for _ in range(BREAKER_COOLDOWN_FETCHES - 1):
            fetched = client.fetch_annotations(["tag-1"], now=0.0)
            assert fetched.annotations == {}
            assert fetched.degraded is True
        assert client.breaker.state == "open"
        assert usage(client.metrics) == dict(
            before, fetches=before["fetches"] + BREAKER_COOLDOWN_FETCHES - 1)
        # Heal the service; the cooldown's next fetch runs as a probe.
        client.faults = NULL_FAULTS
        result = client.fetch_annotations(["tag-1"], now=0.0).annotations
        assert "rec-1" in result
        assert client.breaker.state == "closed"
        assert transitions(client.recorder) == [
            "breaker.open", "breaker.half_open", "breaker.closed"]

    def test_failed_probe_reopens(self):
        client = faulty_client(ALWAYS_ERROR)
        publish_one(client)
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            client.fetch_annotations(["tag-1"], now=0.0)
        for _ in range(BREAKER_COOLDOWN_FETCHES - 1):
            client.fetch_annotations(["tag-1"], now=0.0)
        # Still failing: the half-open probe fails and reopens.
        client.fetch_annotations(["tag-1"], now=0.0)
        assert client.breaker.state == "open"
        assert transitions(client.recorder) == [
            "breaker.open", "breaker.half_open", "breaker.open"]


class TestHalfOpenTransition:
    """Breaker-level coverage of the open -> half-open handoff: the
    cool-down count, the one probe, and its failure."""

    def opened(self):
        breaker = CircuitBreaker()
        breaker.recorder = FlightRecorder()
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            breaker.record_failure()
        assert breaker.state == "open"
        return breaker

    def test_cooldown_fetch_count_gates_the_probe(self):
        breaker = self.opened()
        # The fetches of the cool-down but its last degrade; the last is
        # admitted as the half-open probe.
        assert ([breaker.admit() for _ in range(BREAKER_COOLDOWN_FETCHES - 1)]
                == ["degrade"] * (BREAKER_COOLDOWN_FETCHES - 1))
        assert breaker.state == "open"
        assert breaker.admit() == "attempt"
        assert breaker.state == "half-open"
        assert transitions(breaker.recorder) == [
            "breaker.open", "breaker.half_open"]
        # One probe at a time: everybody else degrades until it reports.
        assert breaker.admit() == "degrade"
        assert breaker.state == "half-open"

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        breaker = self.opened()
        for _ in range(BREAKER_COOLDOWN_FETCHES):
            breaker.admit()
        assert breaker.state == "half-open"
        assert breaker.record_failure() is True
        assert breaker.state == "open"
        assert transitions(breaker.recorder) == [
            "breaker.open", "breaker.half_open", "breaker.open"]
        # The cool-down counter restarted: a whole cool-down of degraded
        # fetches before the next probe is admitted.
        assert ([breaker.admit() for _ in range(BREAKER_COOLDOWN_FETCHES - 1)]
                == ["degrade"] * (BREAKER_COOLDOWN_FETCHES - 1))
        assert breaker.admit() == "attempt"


class TestLockPassthrough:
    def test_lock_operations_hit_the_service_directly(self):
        service = InsightsService()
        client = InsightsClient(service)
        assert client.acquire_view_lock("sig", holder="job-1")
        assert not client.acquire_view_lock("sig", holder="job-2")
        assert client.lock_holder("sig") == "job-1"
        assert service.held_locks() == {"sig": "job-1"}
        client.report_view_available("sig", holder="job-1")
        assert client.held_locks() == {}

    def test_locks_stay_consistent_while_breaker_open(self):
        client = faulty_client(ALWAYS_ERROR)
        publish_one(client)
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            client.fetch_annotations(["tag-1"], now=0.0)
        assert client.breaker.state == "open"
        # The serving path is degraded, but the lock table still answers:
        # it guards buildout and must stay strongly consistent.
        assert client.acquire_view_lock("sig", holder="job-1")
        client.release_view_lock("sig", holder="job-1")
