"""Stress tests for concurrent fetches through one insights client.

The fetches of a wave interleave: they go out together, one lookup
frame per round.  A fetch that misses the cache sends its tags to the
service once, whoever else is fetching (the file is named for the
combiner that once sat here): a retry after a timeout sends nothing,
since the first lookup already put every tag in the serving cache.  The
*service-side* lookup count must equal the fetches when no faults are
injected, and never exceed them when the ``insights.rpc`` fault point is
firing (a drop or error never reaches the service).  Every fetch must
come back -- with annotations or degraded-empty -- and none may raise.
"""

import pytest

from repro.faults import resolve_faults
from repro.insights import InsightsClient, InsightsService
from repro.insights import client as client_module
from repro.optimizer.context import Annotation

pytestmark = pytest.mark.stress

JOBS = 8  # fetches per wave
WAVES = 25
FETCHES = JOBS * WAVES


class CountingService(InsightsService):
    """Counts serving-layer lookups so round trips can be audited."""

    def __init__(self):
        super().__init__()
        self.fetch_calls = 0

    def lookup(self, lists):
        self.fetch_calls += len(lists)
        return super().lookup(lists)


def build_client(service, monkeypatch, **constants):
    """A client over ``service``, with its module ``constants`` patched
    on top of the two every test here needs."""
    constants = dict(
        # Zero TTL: every fetch misses the local cache and round-trips
        # instead of short-circuiting on a cache hit.
        CACHE_TTL_SECONDS=0.0,
        JITTER_SEED="client-jitter-7",
        **constants)
    for name, value in constants.items():
        monkeypatch.setattr(client_module, name, value)
    client = InsightsClient(service)
    tags = [f"tag-{i}" for i in range(JOBS * 2)]
    client.publish([
        Annotation(recurring_signature=f"rec-{tag}", tag=tag,
                   expected_rows=10, expected_bytes=100)
        for tag in tags
    ])
    return client, tags


def hammer(client, tags):
    """WAVES waves of JOBS fetches through one client."""
    served = degraded = 0
    for i in range(WAVES):
        # Overlapping two-tag fetches: the jobs of a wave share tags.
        pairs = [(tags[(job + i) % len(tags)],
                  tags[(job + i + 1) % len(tags)]) for job in range(JOBS)]
        for fetched in client.fetch_wave([(pair, 0.0) for pair in pairs]):
            if fetched.degraded:
                degraded += 1
                assert fetched.annotations == {}
            else:
                served += 1
                assert len(fetched.annotations) == 2
    return served, degraded


class TestBatchingNoFaults:
    def test_each_fetch_round_trips_exactly_once(self, monkeypatch):
        service = CountingService()
        client, tags = build_client(service, monkeypatch)
        served, degraded = hammer(client, tags)
        assert degraded == 0
        assert served == FETCHES
        # The exactly-once invariant: one serving-layer lookup per
        # fetch, none skipped and none doubled -- retries included.
        assert service.fetch_calls == FETCHES


class TestBatchingUnderFaults:
    def test_no_duplicate_flushes_with_injected_errors(self, monkeypatch):
        service = CountingService()
        # A short cool-down, so the breaker cycles many times in the run.
        client, tags = build_client(
            service, monkeypatch, BREAKER_COOLDOWN_FETCHES=4)
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

    def test_drops_and_errors_still_terminate_every_caller(self,
                                                          monkeypatch):
        service = CountingService()
        # One retry and a breaker quick to open and to probe, so a
        # wave's jobs see every breaker state under both fault kinds.
        client, tags = build_client(
            service, monkeypatch, MAX_RETRIES=1,
            BREAKER_FAILURE_THRESHOLD=3, BREAKER_COOLDOWN_FETCHES=2)
        client.faults = resolve_faults(
            "seed=23;insights.rpc:drop:0.15;insights.rpc:error:0.15")
        served, degraded = hammer(client, tags)
        assert served + degraded == FETCHES
        assert service.fetch_calls <= FETCHES


class TestConcurrentWaves:
    def test_waves_between_generation_bumps_answer_every_job(self, monkeypatch):
        """Waves of four five-tag jobs through one client, the generation
        bumped between them (which empties the serving caches, so cold
        lookups time out and retry): every job gets exactly its
        published annotations, every job is counted, and every retry is
        charged as a five-tag relookup."""
        service = CountingService()
        client, tags = build_client(service, monkeypatch)
        published = {t: f"rec-{t}" for t in tags}
        for ident in range(JOBS):
            for i in range(WAVES):
                jobs = [[tags[(ident + i + j + k) % len(tags)]
                         for k in range(5)] for j in range(4)]
                for job, answer in zip(jobs, client.fetch_wave(
                        [(job, 0.0) for job in jobs])):
                    assert not answer.degraded
                    assert set(answer.annotations) == {
                        published[t] for t in job}
                if (ident + i) % 3 == 0:
                    client.bump_generation()
        assert client.metrics.fetches == FETCHES * 4
        assert client.retries > 0
        assert sum(service.relookup_seconds) == pytest.approx(
            0.0015 * 5 * client.retries)
