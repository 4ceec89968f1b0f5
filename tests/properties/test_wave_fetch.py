"""Property: a wave's fetches are answered as its jobs fetching one by one.

Random waves of tag lists -- shared between jobs, cached by an earlier
wave, expired by a job's own ``now``, or never published -- run through
an :class:`InsightsClient` over an :class:`InsightsService` with two
local partitions, with a generation bump between waves.  The same waves
also run one job at a time (each a wave of one, in submission order) on
a second client and service.

* Fault-free, every job's ``(annotations, latency, degraded)`` and every
  client, serving and breaker counter are equal -- latency with ``==``.
* Under an ``insights.rpc`` drop / error / delay plan, with
  ``max_retries`` 0 and 2, no call raises, a job that did not degrade
  gets exactly the published annotations for its tags, a degraded one
  gets ``{}``, and the breaker goes through the same transitions (its
  ``breaker.*`` events).
"""

from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultRuntime, FaultSpec, points
from repro.insights import InsightsClient
from repro.insights import client as client_module
from repro.insights.partition import Partition
from repro.insights.service import InsightsService
from repro.obs import FlightRecorder
from repro.optimizer.context import Annotation
from tests.integration.test_service_contract import usage

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

PUBLISHED = [Annotation(recurring_signature=f"sig-{i}", tag=f"tag-{i % 6}",
                        expected_rows=i, expected_bytes=10 * i)
             for i in range(9)]
TAGS = [f"tag-{i}" for i in range(6)] + ["ghost-0", "ghost-1"]
#: A job's tags are a sorted set, as the engine's are.
job = st.tuples(st.lists(st.sampled_from(TAGS), max_size=6, unique=True)
                .map(sorted),
                st.sampled_from([0.0, 5.0, 30.0]))
waves = st.lists(st.lists(job, min_size=1, max_size=6), min_size=1,
                 max_size=4)


def constants(max_retries=2, threshold=2):
    """The client's constants for these waves: a TTL short enough for a
    job's own ``now`` to expire entries, and a breaker that opens and
    probes within a few fetches, so small waves reach every state."""
    return mock.patch.multiple(
        client_module, MAX_RETRIES=max_retries,
        BREAKER_FAILURE_THRESHOLD=threshold, CACHE_TTL_SECONDS=20.0,
        BREAKER_COOLDOWN_FETCHES=2, JITTER_SEED="client-jitter-3")


def deployment(faults=None):
    service = InsightsService(partitions=[Partition(), Partition()])
    client = InsightsClient(service)
    client.recorder = FlightRecorder()
    client.publish(PUBLISHED)
    if faults is not None:
        client.faults = FaultRuntime(faults)
    return client


def run(client, plan, one_by_one):
    answers = []
    for wave in plan:
        if one_by_one:
            for request in wave:
                answers += client.fetch_wave([request])
        else:
            answers += client.fetch_wave(wave)
        client.bump_generation()
    return answers


def transitions(client):
    return [event.kind for event in client.recorder.events.events()
            if event.kind.startswith("breaker.")]


def counters(client):
    return (client.cache_hits, client.cache_misses, client.retries,
            client.degraded_fetches, usage(client.metrics),
            client.service.relookup_seconds, transitions(client))


@SETTINGS
@given(plan=waves)
def test_fault_free_wave_equals_its_jobs_one_by_one(plan):
    with constants():
        wave, alone = deployment(), deployment()
        assert run(wave, plan, False) == run(alone, plan, True)
    assert counters(wave) == counters(alone)


@SETTINGS
@given(plan=waves,
       kind=st.sampled_from(["drop", "error", "delay"]),
       probability=st.sampled_from([0.2, 0.5, 1.0]),
       after=st.sampled_from([0, 1]),
       max_fires=st.sampled_from([None, 3]),
       max_retries=st.sampled_from([0, 2]),
       threshold=st.sampled_from([1, 2]),
       seed=st.integers(0, 3))
# A sibling's success, then a job every attempt of which is dropped, then
# another: the breaker must hear them in that order to open.
@example(plan=[[(["tag-0"], 0.0), (["tag-1"], 0.0)], [(["tag-2"], 0.0)]],
         kind="drop", probability=1.0, after=1, max_fires=None,
         max_retries=2, threshold=2, seed=0)
def test_faulted_wave_answers_soundly_and_breaks_alike(
        plan, kind, probability, after, max_fires, max_retries, threshold,
        seed):
    faults = FaultPlan(specs=(FaultSpec(
        points.INSIGHTS_RPC, kind, probability=probability,
        delay_seconds=0.05, after=after, max_fires=max_fires),), seed=seed)
    with constants(max_retries, threshold):
        wave, alone = deployment(faults), deployment(faults)
        answers = run(wave, plan, False)
        one_by_one = run(alone, plan, True)
    assert len(answers) == sum(map(len, plan))
    for (tags, _), answer in zip((r for w in plan for r in w), answers):
        expected = {a.recurring_signature: a for a in PUBLISHED
                    if a.tag in tags}
        assert answer.annotations == ({} if answer.degraded else expected)
    assert [a.degraded for a in answers] == [a.degraded for a in one_by_one]
    assert transitions(wave) == transitions(alone)
    assert wave.breaker.state == alone.breaker.state
