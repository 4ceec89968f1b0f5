"""Sharded-deployment stress tests (run in CI via ``pytest -m stress``).

The concurrency left in the deployment is one shard worker's loop
interleaving requests from several connections; a ``Session`` and its
router have one caller.  So the threads here each own their sockets, opened before they
start, and speak the wire protocol directly: no client-process object is
shared between threads.  The invariants:

* the per-signature lock table stays exclusive across shards and
  connections -- exactly one winner per signature per round;
* concurrent lookups over separate connections return exactly the
  published annotations;
* the fault-tolerant client on its one caller never raises while
  workers are SIGKILLed between its fetches, and the deployment heals.
"""

import threading

import pytest

from repro.common.hashing import shard_for
from repro.insights import InsightsClient
from repro.insights import client as client_module
from repro.optimizer.context import Annotation
from repro.shard import ShardConfig, ShardRouter, ShardSupervisor
from repro.shard.protocol import recv_frame, send_frame

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


def connections(supervisor):
    """One socket per shard for each thread, dialled on this thread."""
    return [[supervisor.connect(shard)
             for shard in range(supervisor.config.shards)]
            for _ in range(THREADS)]


def rpc(sock, method, *args):
    send_frame(sock, {"id": 1, "method": method, "params": {"args": args}})
    reply = recv_frame(sock)
    assert reply is not None and reply.get("error") is None, reply
    return reply["result"]


def run_threads(target, socks):
    errors = []

    def guarded(worker_id):
        try:
            target(worker_id, socks[worker_id])
        except Exception as error:  # noqa: BLE001 - collected below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(i,))
               for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    for sock in (sock for mine in socks for sock in mine):
        sock.close()
    return errors


class TestRouterUnderThreads:
    def test_concurrent_fetches_return_published_truth(self, deployment):
        supervisor, router = deployment
        shards = supervisor.config.shards
        published = make_annotations()
        router.publish(published)
        by_tag = {}
        for annotation in published:
            by_tag.setdefault(annotation.tag, set()).add(
                annotation.recurring_signature)

        def hammer(worker_id, socks):
            for round_no in range(ROUNDS):
                tags = [f"tag-{(worker_id + round_no + i) % 16}"
                        for i in range(4)]
                for shard in range(shards):
                    mine = [tag for tag in tags
                            if shard_for(tag, shards) == shard]
                    [found], _, _ = rpc(socks[shard], "lookup", [mine])
                    for tag, annotations in zip(mine, found):
                        got = {a["recurring_signature"] for a in annotations}
                        assert got == by_tag[tag], (tag, got)

        assert run_threads(hammer, connections(supervisor)) == []
        assert router.annotation_count() == len(published)

    def test_lock_exclusion_across_shards_and_threads(self, deployment):
        supervisor, router = deployment
        shards = supervisor.config.shards
        signatures = [f"strict-{round_no}" for round_no in range(ROUNDS)]
        barrier = threading.Barrier(THREADS, timeout=30)
        winners = {signature: [] for signature in signatures}

        def contend(worker_id, socks):
            for signature in signatures:
                barrier.wait()
                sock = socks[shard_for(signature, shards)]
                acquired, _ = rpc(sock, "lock_cas", signature,
                                  f"job-{worker_id}")
                if acquired:
                    winners[signature].append(f"job-{worker_id}")

        assert run_threads(contend, connections(supervisor)) == []
        for signature in signatures:
            assert len(winners[signature]) == 1, winners[signature]
            [holder] = winners[signature]
            assert router.lock_holder(signature) == holder
            router.release_view_lock(signature, holder=holder)
        assert router.held_locks() == {}


class TestKillsUnderLoad:
    def test_client_absorbs_sigkills_mid_fetch(self, deployment,
                                               monkeypatch):
        supervisor, router = deployment
        shards = supervisor.config.shards
        # No client cache: every fetch crosses to its shards.
        monkeypatch.setattr(client_module, "CACHE_TTL_SECONDS", 0.0)
        client = InsightsClient(router)
        published = make_annotations()
        client.publish(published)
        step = 0
        for victim in range(shards * 2):
            supervisor.kill(victim % shards)
            for _ in range(16):
                tags = [f"tag-{step % 16}"]
                fetched = client.fetch_annotations(tags, now=float(step))
                # Degraded fetches return none; successful ones must
                # return exactly the published annotations.
                for annotation in fetched.annotations.values():
                    assert annotation.tag in tags
                step += 1
        # The deployment healed: every annotation is still served.
        assert router.annotation_count() == len(published)
        assert sum(supervisor.restarts) >= 1
