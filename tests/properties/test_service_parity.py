"""Property: sharded ≡ unsharded under any interleaving of service calls.

Random scripts of publish / retract / fetch / lock / bump / kill-switch
steps (at most 30) run against a :class:`ShardRouter` at 1, 2 and 4
shards and against a plain :class:`InsightsService`, each behind an
:class:`InsightsClient` (a job's fetch is the client's); after every step
the results, both latency values (compared with ``==``: the bits, not
an approximation), every usage counter, the generation and the kill
switch must agree, and at the end the two event lists -- the same
observer the contract suite uses.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.insights import InsightsClient
from repro.insights.service import InsightsService
from repro.shard import ShardConfig, ShardRouter, ShardSupervisor
from tests.integration.test_service_contract import (
    make_annotations,
    recorded,
    run_script,
)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])

POOL = make_annotations(12)
tags = st.lists(st.sampled_from([f"tag-{i}" for i in range(8)]
                                + ["ghost-0", "ghost-1"]), max_size=6)
signatures = st.sampled_from([f"strict-{i}" for i in range(4)])
holders = st.sampled_from(["job-a", "job-b"])

steps = st.one_of(
    st.tuples(st.just("publish"), st.lists(st.sampled_from(POOL),
                                           max_size=8)),
    st.tuples(st.just("retract"), st.lists(
        st.sampled_from([a.recurring_signature for a in POOL] + ["nope"]),
        max_size=3)),
    st.tuples(st.just("lookup"), st.lists(tags, max_size=3)),
    st.tuples(st.just("fetch_annotations"), tags),
    st.tuples(st.just("bump_generation")),
    st.tuples(st.just("annotation_count")),
    st.tuples(st.just("annotations")),
    st.tuples(st.just("acquire_view_lock"), signatures, holders),
    st.tuples(st.just("release_view_lock"), signatures, holders),
    st.tuples(st.just("report_view_available"), signatures, holders),
    st.tuples(st.just("force_release_locks"), st.lists(signatures,
                                                       max_size=3)),
    st.tuples(st.just("fetch_wave"), st.lists(
        st.tuples(tags, st.just(0.0)), max_size=4)),
    st.tuples(st.just("lock_holder"), signatures),
    st.tuples(st.just("held_locks")),
    st.tuples(st.just("enabled"), st.booleans()),
)


@pytest.fixture(scope="module", params=[1, 2, 4],
                ids=lambda n: f"shards{n}")
def supervisor(request):
    supervisor = ShardSupervisor(ShardConfig(shards=request.param))
    supervisor.start()
    yield supervisor
    supervisor.close()


@SETTINGS
@given(script=st.lists(steps, max_size=30))
def test_sharded_matches_unsharded(supervisor, script):
    # The workers outlive an example: empty them through a throwaway
    # router, then compare a fresh router with a fresh service.
    janitor = ShardRouter(supervisor)
    janitor.publish([])
    janitor.force_release_locks(janitor.held_locks())
    janitor.close()
    router = ShardRouter(supervisor)
    try:
        run_script(recorded(InsightsClient(router)),
                   recorded(InsightsClient(InsightsService())), script)
    finally:
        router.close()
