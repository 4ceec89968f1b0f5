"""Unit tests for the fault-tolerant insights client.

Covers the TTL'd local cache, retries with backoff, the circuit
breaker's full closed -> open -> half-open -> closed cycle, fault
injection, and the degradation contract the engine relies on (a failed
fetch returns a ``Fetched`` with no annotations and ``degraded`` set
instead of raising).
"""

import pytest

from repro.common.errors import ConfigError, InsightsTimeout, ReproError
from repro.faults import NULL_FAULTS, resolve_faults
from repro.insights import (
    CircuitBreaker,
    InsightsClient,
    InsightsClientConfig,
    InsightsService,
)
from repro.optimizer.context import Annotation


def annotation(tag="tag-1", recurring="rec-1"):
    return Annotation(recurring_signature=recurring, tag=tag,
                      expected_rows=10, expected_bytes=100)


def publish_one(target, tag="tag-1", recurring="rec-1"):
    target.publish([annotation(tag=tag, recurring=recurring)])


def faulty_client(plan, config=None):
    """A client whose serving round trip runs under the fault ``plan``
    (the ``point:kind[:probability[:max_fires[:delay]]]`` DSL)."""
    client = InsightsClient(config=config)
    client.faults = resolve_faults(plan)
    return client


ALWAYS_ERROR = "insights.rpc:error"


class TestConfigValidation:
    def test_defaults_are_valid(self):
        InsightsClientConfig()

    @pytest.mark.parametrize("kwargs", [
        dict(timeout_seconds=0.0),
        dict(timeout_seconds=-1.0),
        dict(max_retries=-1),
        dict(breaker_failure_threshold=0),
        dict(breaker_cooldown_fetches=0),
    ])
    def test_bad_values_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            InsightsClientConfig(**kwargs)

    def test_config_error_is_repro_and_value_error(self):
        with pytest.raises(ReproError):
            InsightsClientConfig(max_retries=-1)
        with pytest.raises(ValueError):
            InsightsClientConfig(max_retries=-1)

    def test_insights_timeout_is_repro_error(self):
        assert issubclass(InsightsTimeout, ReproError)


class TestServingPath:
    def test_fetch_matches_raw_service(self):
        service = InsightsService()
        client = InsightsClient(service)
        publish_one(client)
        direct = InsightsService()
        publish_one(direct)
        assert set(client.fetch_annotations(["tag-1", "ghost"]).annotations) \
            == set(direct.fetch_annotations(["tag-1", "ghost"]).annotations)

    def test_local_cache_hits_skip_the_service(self):
        client = InsightsClient()
        publish_one(client)
        client.fetch_annotations(["tag-1"], now=0.0)
        before = client.metrics.snapshot()
        result = client.fetch_annotations(["tag-1"], now=1.0).annotations
        after = client.metrics.snapshot()
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
        client = InsightsClient(service, InsightsClientConfig(
            backoff_jitter=0.0))
        tags = [f"tag-{i}" for i in range(5)]
        client.publish([annotation(tag=t, recurring=f"rec-{t}") for t in tags])
        fetched = client.fetch_annotations(tags, now=0.0)
        assert set(fetched.annotations) == {f"rec-{t}" for t in tags}
        assert lookups == [[tags]] and client.retries == 1
        usage = client.metrics.snapshot()
        assert (usage["cache_misses"], usage["cache_hits"]) == (5, 5)
        all_hits = 0.0
        for _ in tags:
            all_hits += 0.0015
        assert service.relookup_seconds == [all_hits]
        assert fetched.latency == 0.060 + 0.010 + all_hits
        assert not fetched.degraded

    def test_cache_expires_after_ttl(self):
        client = InsightsClient(
            config=InsightsClientConfig(cache_ttl_seconds=10.0))
        publish_one(client)
        client.fetch_annotations(["tag-1"], now=0.0)
        client.fetch_annotations(["tag-1"], now=11.0)
        assert client.cache_misses == 2
        assert client.cache_hits == 0

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
    def test_injected_errors_retry_then_succeed(self):
        # The first round trip errors, every later one goes through.
        client = faulty_client("insights.rpc:error:1.0:1")
        publish_one(client)
        fetched = client.fetch_annotations(["tag-1"], now=0.0)
        assert "rec-1" in fetched.annotations
        assert client.retries == 1
        assert fetched.degraded is False
        # Latency charges the failed attempt's timeout plus backoff.
        assert fetched.latency > client.config.timeout_seconds

    def test_exhausted_retries_degrade_instead_of_raising(self):
        client = faulty_client(
            ALWAYS_ERROR, InsightsClientConfig(max_retries=1))
        publish_one(client)
        fetched = client.fetch_annotations(["tag-1"], now=0.0)
        assert fetched.annotations == {}
        assert fetched.degraded is True
        assert client.degraded_fetches == 1

    def test_degraded_flag_resets_on_next_success(self):
        client = faulty_client(
            ALWAYS_ERROR, InsightsClientConfig(max_retries=0))
        publish_one(client)
        assert client.fetch_annotations(["tag-1"], now=0.0).degraded is True
        client.faults = NULL_FAULTS
        assert client.fetch_annotations(["tag-1"], now=0.0).degraded is False

    def test_slow_round_trip_times_out(self):
        client = faulty_client(
            "insights.rpc:delay:1.0:1:1.0",
            InsightsClientConfig(max_retries=0))
        publish_one(client)
        fetched = client.fetch_annotations(["tag-1"], now=0.0)
        assert fetched.annotations == {}
        assert fetched.degraded is True

    def test_backoff_grows_exponentially(self):
        config = InsightsClientConfig(
            backoff_base_seconds=0.010, backoff_multiplier=2.0,
            backoff_jitter=0.0)
        client = InsightsClient(config=config)
        assert client._backoff(0) == pytest.approx(0.010)
        assert client._backoff(1) == pytest.approx(0.020)
        assert client._backoff(2) == pytest.approx(0.040)


class TestCircuitBreaker:
    def config(self, **kwargs):
        defaults = dict(max_retries=0, breaker_failure_threshold=3,
                        breaker_cooldown_fetches=4, breaker_probes_to_close=1)
        defaults.update(kwargs)
        return InsightsClientConfig(**defaults)

    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(self.config())
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True
        assert breaker.state == "open"

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(self.config())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is False
        assert breaker.state == "closed"

    def test_full_open_half_open_close_cycle(self):
        client = faulty_client(ALWAYS_ERROR, self.config())
        publish_one(client)
        # Three exhausted fetches open the breaker.
        for _ in range(3):
            client.fetch_annotations(["tag-1"], now=0.0)
        assert client.breaker.state == "open"
        # While open, fetches degrade without touching the service.
        fetches_before = client.metrics.snapshot()["fetches"]
        for _ in range(3):
            fetched = client.fetch_annotations(["tag-1"], now=0.0)
            assert fetched.annotations == {}
            assert fetched.degraded is True
        assert client.breaker.state == "open"
        # Heal the service; the cooldown's next fetch runs as a probe.
        client.faults = NULL_FAULTS
        result = client.fetch_annotations(["tag-1"], now=0.0).annotations
        assert "rec-1" in result
        assert client.breaker.state == "closed"
        assert client.breaker.transitions == ["open", "half-open", "closed"]

    def test_failed_probe_reopens(self):
        client = faulty_client(ALWAYS_ERROR, self.config())
        publish_one(client)
        for _ in range(3):
            client.fetch_annotations(["tag-1"], now=0.0)
        for _ in range(3):
            client.fetch_annotations(["tag-1"], now=0.0)
        # Still failing: the half-open probe fails and reopens.
        client.fetch_annotations(["tag-1"], now=0.0)
        assert client.breaker.state == "open"
        assert client.breaker.transitions == ["open", "half-open", "open"]


class TestHalfOpenTransition:
    """Breaker-level coverage of the open -> half-open handoff: the
    cool-down count, probe bounding, and both probe outcomes."""

    def config(self, **kwargs):
        defaults = dict(max_retries=0, breaker_failure_threshold=3,
                        breaker_cooldown_fetches=4, breaker_probes_to_close=1)
        defaults.update(kwargs)
        return InsightsClientConfig(**defaults)

    def opened(self, **kwargs):
        breaker = CircuitBreaker(self.config(**kwargs))
        for _ in range(breaker._config.breaker_failure_threshold):
            breaker.record_failure()
        assert breaker.state == "open"
        return breaker

    def test_cooldown_fetch_count_gates_the_probe(self):
        breaker = self.opened()
        # Fetches 1..3 while open degrade; the 4th is admitted as the
        # half-open probe (cooldown_fetches=4).
        assert [breaker.admit() for _ in range(3)] == ["degrade"] * 3
        assert breaker.state == "open"
        assert breaker.admit() == "attempt"
        assert breaker.state == "half-open"
        assert breaker.transitions == ["open", "half-open"]

    def test_half_open_bounds_concurrent_probes(self):
        breaker = self.opened(breaker_probes_to_close=2)
        for _ in range(4):
            breaker.admit()
        assert breaker.state == "half-open"
        # One probe slot was taken by the transition itself; with
        # probes_to_close=2 exactly one more caller is admitted, and
        # everybody after that degrades until the probes report back.
        assert breaker.admit() == "attempt"
        assert breaker.admit() == "degrade"
        assert breaker.admit() == "degrade"

    def test_close_requires_all_probe_successes(self):
        breaker = self.opened(breaker_probes_to_close=2)
        for _ in range(4):
            breaker.admit()
        breaker.admit()  # second probe
        breaker.record_success()
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.transitions == ["open", "half-open", "closed"]

    def test_probe_success_frees_a_probe_slot(self):
        breaker = self.opened(breaker_probes_to_close=2)
        for _ in range(4):
            breaker.admit()
        breaker.admit()
        assert breaker.admit() == "degrade"
        breaker.record_success()  # one probe back: a slot frees up
        assert breaker.admit() == "attempt"

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        breaker = self.opened()
        for _ in range(4):
            breaker.admit()
        assert breaker.state == "half-open"
        assert breaker.record_failure() is True
        assert breaker.state == "open"
        assert breaker.transitions == ["open", "half-open", "open"]
        # The cool-down counter restarted: three more degraded fetches
        # before the next probe is admitted.
        assert [breaker.admit() for _ in range(3)] == ["degrade"] * 3
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
        client = faulty_client(
            ALWAYS_ERROR, InsightsClientConfig(
                max_retries=0, breaker_failure_threshold=1))
        publish_one(client)
        client.fetch_annotations(["tag-1"], now=0.0)
        assert client.breaker.state == "open"
        # The serving path is degraded, but the lock table still answers:
        # it guards buildout and must stay strongly consistent.
        assert client.acquire_view_lock("sig", holder="job-1")
        client.release_view_lock("sig", holder="job-1")
