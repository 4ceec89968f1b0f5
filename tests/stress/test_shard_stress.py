"""Sharded-deployment stress tests (run in CI via ``pytest -m stress``).

Many client threads hammering one router over the process boundary, with
and without shards being SIGKILLed underneath them.  The invariants:

* the per-signature lock table stays exclusive across shards and
  threads -- exactly one winner per signature per round;
* concurrent fetches through the fault-tolerant client never raise and
  never return wrong annotations, even while workers are being killed
  (they degrade to empty instead);
* worker bookkeeping (requests served, annotation counts) stays exact
  after the dust settles.
"""

import threading

import pytest

from repro.common.hashing import shard_for
from repro.insights import InsightsClient
from repro.optimizer.context import Annotation
from repro.shard import ShardConfig, ShardRouter, ShardSupervisor

pytestmark = pytest.mark.stress

THREADS = 8
ROUNDS = 25


def make_annotations(count=32):
    return [Annotation(recurring_signature=f"sig-{i}", tag=f"tag-{i % 16}",
                       expected_rows=i, virtual_cluster="vc1")
            for i in range(count)]


@pytest.fixture(params=[2, 4], ids=lambda n: f"shards{n}")
def deployment(request):
    supervisor = ShardSupervisor(ShardConfig(shards=request.param))
    supervisor.start()
    router = ShardRouter(supervisor)
    yield supervisor, router
    router.close()
    supervisor.close()


class TestRouterUnderThreads:
    def test_concurrent_fetches_return_published_truth(self, deployment):
        _, router = deployment
        published = make_annotations()
        router.publish(published)
        by_tag = {}
        for annotation in published:
            by_tag.setdefault(annotation.tag, set()).add(
                annotation.recurring_signature)
        errors = []

        def hammer(worker_id):
            try:
                for round_no in range(ROUNDS):
                    tags = [f"tag-{(worker_id + i) % 16}" for i in range(4)]
                    [(found, _)] = router.lookup([tags])
                    fetched = dict(zip(tags, found))
                    for tag in tags:
                        got = {a.recurring_signature for a in fetched[tag]}
                        assert got == by_tag[tag], (tag, got)
            except Exception as error:  # noqa: BLE001 - collected below
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert router.annotation_count() == len(published)

    def test_lock_exclusion_across_shards_and_threads(self, deployment):
        _, router = deployment
        for round_no in range(ROUNDS):
            signature = f"strict-{round_no}"
            winners = []
            barrier = threading.Barrier(THREADS)

            def contend(holder, signature=signature, barrier=barrier):
                barrier.wait()
                if router.acquire_view_lock(signature, holder=holder):
                    winners.append(holder)

            threads = [threading.Thread(target=contend, args=(f"job-{i}",))
                       for i in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(winners) == 1
            assert router.lock_holder(signature) == winners[0]
            router.release_view_lock(signature, holder=winners[0])
        assert router.held_locks() == {}


class TestKillsUnderLoad:
    def test_client_absorbs_sigkills_mid_fetch(self, deployment):
        supervisor, router = deployment
        shards = supervisor.config.shards
        client = InsightsClient(router)
        published = make_annotations()
        client.publish(published)
        errors = []
        stop = threading.Event()

        def fetch_loop(worker_id):
            try:
                step = 0
                while not stop.is_set():
                    tags = [f"tag-{(worker_id + step) % 16}"]
                    fetched = client.fetch_annotations(
                        tags, now=float(step))
                    # Degraded fetches return none; successful ones must
                    # return exactly the published annotations.
                    for annotation in fetched.annotations.values():
                        assert annotation.tag in tags
                    step += 1
            except Exception as error:  # noqa: BLE001 - collected below
                errors.append(error)

        threads = [threading.Thread(target=fetch_loop, args=(i,))
                   for i in range(THREADS)]
        for thread in threads:
            thread.start()
        try:
            for victim in range(shards * 2):
                supervisor.kill(victim % shards)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        # The deployment healed: every annotation is still served.
        assert router.annotation_count() == len(published)
        assert sum(supervisor.restarts) >= 1
