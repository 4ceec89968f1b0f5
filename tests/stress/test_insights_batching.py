"""Stress tests for the insights client's batching under faults.

The combining leader/follower scheme must flush each batch exactly once:
the invariant checked here is that the *service-side* fetch count equals
the client's ``batch_rounds`` counter when no faults are injected, and
never exceeds it when the ``insights.rpc`` fault point is firing errors
(it raises before the round trip reaches the service).  Every concurrent
caller must come back -- with annotations or degraded-empty -- and none
may raise.
"""

import threading

import pytest

from repro.faults import resolve_faults
from repro.insights import (
    InsightsClient,
    InsightsClientConfig,
    InsightsService,
)
from repro.optimizer.context import Annotation

pytestmark = pytest.mark.stress

THREADS = 8
FETCHES_PER_THREAD = 25


class CountingService(InsightsService):
    """Counts serving-layer fetches so batch flushes can be audited."""

    def __init__(self):
        super().__init__()
        self.fetch_calls = 0
        self._count_mutex = threading.Lock()

    def fetch_tag_annotations(self, tags):
        with self._count_mutex:
            self.fetch_calls += 1
        return super().fetch_tag_annotations(tags)


def build_client(service, **config_kwargs):
    defaults = dict(
        # Zero TTL: every fetch misses the local cache and exercises the
        # batching path instead of short-circuiting on a cache hit.
        cache_ttl_seconds=0.0,
        seed=7,
    )
    defaults.update(config_kwargs)
    config = InsightsClientConfig(**defaults)
    client = InsightsClient(service, config=config)
    tags = [f"tag-{i}" for i in range(THREADS * 2)]
    client.publish([
        Annotation(recurring_signature=f"rec-{tag}", tag=tag,
                   expected_rows=10, expected_bytes=100)
        for tag in tags
    ])
    return client, tags


def hammer(client, tags):
    """THREADS callers x FETCHES_PER_THREAD fetches through one client."""
    barrier = threading.Barrier(THREADS, timeout=10.0)
    failures = []
    served = [0] * THREADS
    degraded = [0] * THREADS

    def worker(ident):
        try:
            barrier.wait()
            for i in range(FETCHES_PER_THREAD):
                # Overlapping two-tag fetches so batches genuinely merge.
                pair = (tags[(ident + i) % len(tags)],
                        tags[(ident + i + 1) % len(tags)])
                result = client.fetch_annotations(pair, now=0.0)
                if client.last_fetch_degraded:
                    degraded[ident] += 1
                    assert result == {}
                else:
                    served[ident] += 1
                    assert len(result) == 2
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append((ident, exc))

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == [], failures
    return sum(served), sum(degraded)


class TestBatchingNoFaults:
    def test_each_batch_flushes_exactly_once(self):
        service = CountingService()
        client, tags = build_client(service)
        served, degraded = hammer(client, tags)
        assert degraded == 0
        assert served == THREADS * FETCHES_PER_THREAD
        # The exactly-once invariant: one serving-layer call per batch
        # round, no duplicate flush from a follower or a stale leader.
        assert service.fetch_calls == client.batch_rounds
        assert client.batch_rounds >= 1


class TestBatchingUnderFaults:
    def test_no_duplicate_flushes_with_injected_errors(self):
        service = CountingService()
        client, tags = build_client(
            service, max_retries=2, breaker_failure_threshold=5,
            breaker_cooldown_fetches=4)
        client.faults = resolve_faults("seed=11;insights.rpc:error:0.2")
        served, degraded = hammer(client, tags)
        # Every caller completed, with a mix of served and degraded.
        assert served + degraded == THREADS * FETCHES_PER_THREAD
        assert served > 0
        # The fault fires *before* the service call, so a faulted
        # round counts toward batch_rounds but never reaches the service
        # -- service-side calls can only be <= the rounds started.
        assert service.fetch_calls <= client.batch_rounds
        assert service.fetch_calls > 0

    def test_drops_and_errors_still_terminate_every_caller(self):
        service = CountingService()
        client, tags = build_client(
            service, max_retries=1, breaker_failure_threshold=3,
            breaker_cooldown_fetches=2)
        client.faults = resolve_faults(
            "seed=23;insights.rpc:drop:0.15;insights.rpc:error:0.15")
        served, degraded = hammer(client, tags)
        assert served + degraded == THREADS * FETCHES_PER_THREAD
        assert service.fetch_calls <= client.batch_rounds
