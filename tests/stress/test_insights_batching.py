"""Stress tests for concurrent fetches through one insights client.

A fetch that misses the cache sends its tags to the service once,
whoever else is fetching (the file is named for the combiner that once
sat here): a retry after a timeout sends nothing, since the first lookup
already put every tag in the serving cache.  The *service-side* lookup
count must equal the fetches when no faults are injected, and never
exceed them when the ``insights.rpc`` fault point is firing (a drop or
error never reaches the service).  Every concurrent caller must come
back -- with annotations or degraded-empty -- and none may raise.
"""

import sys
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
FETCHES = THREADS * FETCHES_PER_THREAD


class CountingService(InsightsService):
    """Counts serving-layer lookups so round trips can be audited."""

    def __init__(self):
        super().__init__()
        self.fetch_calls = 0
        self._count_mutex = threading.Lock()

    def lookup(self, lists):
        with self._count_mutex:
            self.fetch_calls += len(lists)
        return super().lookup(lists)


def build_client(service, **config_kwargs):
    defaults = dict(
        # Zero TTL: every fetch misses the local cache and round-trips
        # instead of short-circuiting on a cache hit.
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
                # Overlapping two-tag fetches: callers contend for tags.
                pair = (tags[(ident + i) % len(tags)],
                        tags[(ident + i + 1) % len(tags)])
                fetched = client.fetch_annotations(pair, now=0.0)
                if fetched.degraded:
                    degraded[ident] += 1
                    assert fetched.annotations == {}
                else:
                    served[ident] += 1
                    assert len(fetched.annotations) == 2
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
    def test_each_fetch_round_trips_exactly_once(self):
        service = CountingService()
        client, tags = build_client(service)
        served, degraded = hammer(client, tags)
        assert degraded == 0
        assert served == FETCHES
        # The exactly-once invariant: one serving-layer lookup per
        # fetch, none skipped and none doubled -- retries included.
        assert service.fetch_calls == FETCHES


class TestBatchingUnderFaults:
    def test_no_duplicate_flushes_with_injected_errors(self):
        service = CountingService()
        client, tags = build_client(
            service, max_retries=2, breaker_failure_threshold=5,
            breaker_cooldown_fetches=4)
        client.faults = resolve_faults("seed=11;insights.rpc:error:0.2")
        served, degraded = hammer(client, tags)
        # Every caller completed, with a mix of served and degraded.
        assert served + degraded == FETCHES
        assert served > 0
        # The fault fires *before* the service call, so a faulted
        # attempt never reaches the service, a fetch the open breaker
        # turned away attempted nothing, and no retry goes twice --
        # service-side lookups can only be <= the fetches.
        assert service.fetch_calls <= FETCHES
        assert service.fetch_calls > 0

    def test_drops_and_errors_still_terminate_every_caller(self):
        service = CountingService()
        client, tags = build_client(
            service, max_retries=1, breaker_failure_threshold=3,
            breaker_cooldown_fetches=2)
        client.faults = resolve_faults(
            "seed=23;insights.rpc:drop:0.15;insights.rpc:error:0.15")
        served, degraded = hammer(client, tags)
        assert served + degraded == FETCHES
        assert service.fetch_calls <= FETCHES


class TestConcurrentWaves:
    def test_waves_from_many_threads_answer_every_job(self):
        """Eight threads send waves of four five-tag jobs through one
        client while a ninth bumps the generation (which empties the
        serving caches, so cold lookups time out and retry): every job
        gets exactly its published annotations, every job is counted,
        and every retry is charged as a five-tag relookup."""
        service = CountingService()
        client, tags = build_client(service)
        published = {t: f"rec-{t}" for t in tags}
        failures, stop = [], threading.Event()

        def waves(ident):
            try:
                for i in range(FETCHES_PER_THREAD):
                    jobs = [[tags[(ident + i + j + k) % len(tags)]
                             for k in range(5)] for j in range(4)]
                    for job, answer in zip(jobs, client.fetch_wave(
                            [(job, 0.0) for job in jobs])):
                        assert not answer.degraded
                        assert set(answer.annotations) == {
                            published[t] for t in job}
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append((ident, exc))

        def bumps():
            while not stop.wait(0.001):
                client.bump_generation()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            bumper = threading.Thread(target=bumps)
            threads = [threading.Thread(target=waves, args=(i,))
                       for i in range(THREADS)]
            for thread in [bumper] + threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            stop.set()
            bumper.join(timeout=10.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in [bumper] + threads)
        assert failures == [], failures
        assert client.metrics.snapshot()["fetches"] == FETCHES * 4
        assert client.retries > 0
        assert sum(service.relookup_seconds) == pytest.approx(
            0.0015 * 5 * client.retries)
