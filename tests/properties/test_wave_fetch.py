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
  gets ``{}``, and the breaker goes through the same transitions.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultRuntime, FaultSpec, points
from repro.insights import InsightsClient, InsightsClientConfig
from repro.insights.partition import Partition
from repro.insights.service import InsightsService
from repro.optimizer.context import Annotation

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


def deployment(faults=None, **config):
    service = InsightsService(partitions=[Partition(), Partition()])
    config.setdefault("breaker_failure_threshold", 2)
    client = InsightsClient(service, InsightsClientConfig(
        cache_ttl_seconds=20.0, breaker_cooldown_fetches=2, seed=3,
        **config))
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


def counters(client):
    return (client.cache_hits, client.cache_misses, client.retries,
            client.degraded_fetches, client.metrics.snapshot(),
            client.service.relookup_seconds, client.breaker.transitions)


@SETTINGS
@given(plan=waves)
def test_fault_free_wave_equals_its_jobs_one_by_one(plan):
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
    config = dict(max_retries=max_retries,
                  breaker_failure_threshold=threshold)
    wave, alone = deployment(faults, **config), deployment(faults, **config)
    answers = run(wave, plan, False)
    assert len(answers) == sum(map(len, plan))
    for (tags, _), answer in zip((r for w in plan for r in w), answers):
        expected = {a.recurring_signature: a for a in PUBLISHED
                    if a.tag in tags}
        assert answer.annotations == ({} if answer.degraded else expected)
    assert ([a.degraded for a in answers]
            == [a.degraded for a in run(alone, plan, True)])
    assert wave.breaker.transitions == alone.breaker.transitions
    assert wave.breaker.state == alone.breaker.state
