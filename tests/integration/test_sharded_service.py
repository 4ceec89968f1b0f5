"""Integration tests: the sharded insights deployment end to end.

The contract under test: N shard worker processes behind the
:class:`ShardRouter` present exactly the same service surface, the same
annotation results, and the *bit-identical* simulated serving latency
as the in-process :class:`InsightsService` -- and when shards die, the
failure is absorbed by the same ladder the in-process deployment uses
(router retry + supervisor restart, then the client's circuit breaker
degrading affected signatures to no-reuse, never failing a job).
"""

import pytest

from repro.api import Session
from repro.catalog import schema_of
from repro.common.errors import InsightsError, InsightsTimeout
from repro.common.hashing import shard_for
from repro.config import SessionConfig
from repro.core import MultiLevelControls
from repro.faults import FaultPlan, FaultRuntime, FaultSpec, points
from repro.insights import InsightsClient
from repro.insights.client import OPEN
from repro.insights.service import InsightsService
from repro.lifecycle import LifecycleConfig
from repro.optimizer.context import Annotation
from repro.scheduler import JobRequest, SchedulerConfig
from repro.selection import SelectionPolicy
from repro.shard import ShardConfig, ShardRouter, ShardSupervisor


def make_annotations(count=16):
    return [Annotation(recurring_signature=f"sig-{i}", tag=f"tag-{i % 8}",
                       expected_rows=i, expected_bytes=100 * i,
                       virtual_cluster="vc1")
            for i in range(count)]


def by_tag(service, tags):
    """One lookup, keyed by tag; a failed partition's error is raised."""
    [reply] = service.lookup([tags])
    if isinstance(reply, InsightsError):
        raise reply
    return dict(zip(tags, reply[0]))


def plain(annotation):
    return (annotation.recurring_signature, annotation.tag,
            annotation.expected_rows, annotation.expected_bytes,
            annotation.virtual_cluster)


@pytest.fixture(params=[1, 2, 4], ids=lambda n: f"shards{n}")
def deployment(request):
    supervisor = ShardSupervisor(ShardConfig(shards=request.param))
    supervisor.start()
    router = ShardRouter(supervisor)
    yield supervisor, router
    router.close()
    supervisor.close()


class TestServiceParity:
    """Router vs in-process service on the same publish/fetch sequence."""

    def test_publish_and_fetch_match_in_process(self, deployment):
        _, router = deployment
        service = InsightsService()
        published = make_annotations()
        assert router.publish(published) == service.publish(published)
        assert router.annotation_count() == service.annotation_count()
        tags = [f"tag-{i}" for i in range(8)] + ["ghost-tag"]
        sharded = by_tag(router, tags)
        local = by_tag(service, tags)
        assert set(sharded) == set(local)
        for tag in tags:
            assert (sorted(map(plain, sharded[tag]))
                    == sorted(map(plain, local[tag])))

    def test_fetch_latency_is_bit_identical(self, deployment):
        _, router = deployment
        service = InsightsService()
        router.publish(make_annotations())
        service.publish(make_annotations())
        tags = [f"tag-{i}" for i in range(8)]
        # Cold pass (all serving-cache misses), then warm pass: the
        # router re-accumulates per-tag charges in the caller's tag
        # order, so the floats must match exactly, not approximately.
        for _ in range(2):
            [(_, sharded)] = router.lookup([tags])
            [(_, local)] = service.lookup([tags])
            assert sharded == local

    def test_stats_count_lists_and_charge_retries(self, deployment):
        """A worker's ``fetch_requests`` counts the per-job tag lists it
        served; its ``busy_seconds`` includes the retries charged to it
        without a round trip."""
        supervisor, router = deployment
        client = InsightsClient(router)
        client.publish(make_annotations())
        tags = [f"tag-{i}" for i in range(8)]
        # 75 ms of misses time the first job out; the second's 45 do not.
        client.fetch_wave([(tags[:5], 0.0), (tags[5:], 0.0)])
        assert client.retries == 1
        shards = supervisor.config.shards
        stats = router.shard_stats()
        for shard_id, reply in enumerate(stats):
            owned = [shard_for(t, shards) == shard_id for t in tags]
            assert reply["fetch_requests"] == any(owned[:5]) + any(owned[5:])
            assert reply["busy_seconds"] == pytest.approx(
                0.015 * sum(owned) + 0.0015 * sum(owned[:5]))

    def test_retract_removes_everywhere(self, deployment):
        _, router = deployment
        router.publish(make_annotations())
        removed = router.retract({"sig-0", "sig-7", "nope"})
        assert removed == 2
        assert router.annotation_count() == len(make_annotations()) - 2
        fetched = by_tag(router, ["tag-0", "tag-7"])
        signatures = {a.recurring_signature
                      for annotations in fetched.values()
                      for a in annotations}
        assert "sig-0" not in signatures and "sig-7" not in signatures

    def test_view_locks_route_and_exclude(self, deployment):
        _, router = deployment
        signatures = [f"strict-{i}" for i in range(8)]
        for signature in signatures:
            assert router.acquire_view_lock(signature, holder="job-a")
            assert not router.acquire_view_lock(signature, holder="job-b")
            assert router.lock_holder(signature) == "job-a"
        assert set(router.held_locks()) == set(signatures)
        router.release_view_lock(signatures[0], holder="job-a")
        assert router.lock_holder(signatures[0]) is None
        assert router.force_release_locks([signatures[1]]) == 1
        assert router.acquire_view_lock(signatures[1], holder="job-b")


class TestShardDeathHealing:
    def test_sigkill_heals_on_next_rpc_with_state_intact(self, deployment):
        supervisor, router = deployment
        before = router.annotation_count()
        assert router.publish(make_annotations()) == len(make_annotations())
        for shard_id in range(supervisor.config.shards):
            supervisor.kill(shard_id)
        # The next RPC finds dead sockets, asks the supervisor to
        # restart, and the respawned workers reload their persisted
        # annotation files -- nothing acknowledged is lost.
        assert router.annotation_count() == before + len(make_annotations())
        assert sum(supervisor.restarts) == supervisor.config.shards

    def test_injected_rpc_faults_surface_as_taxonomy_errors(self):
        supervisor = ShardSupervisor(ShardConfig(shards=2))
        supervisor.start()
        router = ShardRouter(supervisor, faults=FaultRuntime(FaultPlan(
            specs=(FaultSpec(points.SHARD_RPC, "drop", max_fires=1),
                   FaultSpec(points.SHARD_RPC, "error", max_fires=1)),
            seed=0, name="rpc-faults")))
        try:
            with pytest.raises(InsightsTimeout):
                by_tag(router, ["tag-0"])
            with pytest.raises(InsightsError):
                by_tag(router, ["tag-0"])
            # Fault budget exhausted: the deployment serves again.
            assert by_tag(router, ["tag-0"]) == {"tag-0": []}
        finally:
            router.close()
            supervisor.close()


class TestDeadShardDegradesNotFails:
    """ISSUE satellite: a dead shard trips the circuit breaker and
    degrades affected signatures to no-reuse without failing jobs."""

    def test_breaker_opens_and_fetches_degrade(self):
        supervisor = ShardSupervisor(
            ShardConfig(shards=2, restart_dead=False))
        supervisor.start()
        router = ShardRouter(supervisor)
        client = InsightsClient(router)
        try:
            client.publish(make_annotations())
            dead = 0
            supervisor.kill(dead)
            dead_tags = [t for t in (f"probe-{i}" for i in range(64))
                         if shard_for(t, 2) == dead]
            threshold = client.config.breaker_failure_threshold
            assert len(dead_tags) >= threshold
            for i in range(threshold):
                fetched = client.fetch_annotations([dead_tags[i]],
                                                   now=float(i))
                assert fetched.annotations == {}
                assert fetched.degraded
            assert client.breaker.state == OPEN
            # restart_dead=False: the supervisor refused to revive it.
            assert supervisor.restarts == [0, 0]
        finally:
            router.close()
            supervisor.close()

    def test_jobs_complete_reuse_free_with_all_shards_dead(self):
        controls = MultiLevelControls()
        controls.enable_vc("vc1")
        session = Session(
            config=SessionConfig(
                shard=ShardConfig(shards=2, restart_dead=False)),
            controls=controls,
            selection_algorithm="bigsubs",
            policy=SelectionPolicy(storage_budget_bytes=10_000_000,
                                   min_reuses_per_epoch=0.0),
        )
        try:
            session.register_table(
                schema_of("Events", [("Day", "str"), ("Value", "float")]),
                [dict(Day=f"d{i % 3}", Value=float(i)) for i in range(30)])
            sql = ("SELECT Day, SUM(Value) AS total FROM Events "
                   "GROUP BY Day")
            expected = None
            for _ in range(2):
                result = session.run(sql, virtual_cluster="vc1",
                                     template_id="t-dead-shard")
                expected = sorted(map(repr, result.rows))
                session.analyze_and_publish()
            for shard_id in range(2):
                session.supervisor.kill(shard_id)
            # Every subsequent job must still complete with correct
            # rows; the degraded client compiles them reuse-free.
            reused_before = session.views_reused
            for i in range(6):
                result = session.run(sql, virtual_cluster="vc1",
                                     template_id="t-dead-shard")
                assert sorted(map(repr, result.rows)) == expected
            assert session.views_reused == reused_before
            assert session.engine.insights.degraded_fetches > 0
        finally:
            session.close()


def count_rpcs(monkeypatch):
    """Log every ``ShardRouter.call`` by method, after a marker for each
    ``JobScheduler.drain`` (a wave) and ``LifecycleManager._cascade``."""
    from repro.lifecycle.manager import LifecycleManager
    from repro.scheduler.scheduler import JobScheduler

    log = []
    for owner, name in ((JobScheduler, "drain"),
                        (LifecycleManager, "_cascade"),
                        (ShardRouter, "call")):
        def logged(self, *args, _original=getattr(owner, name),
                   _name=name, **kwargs):
            log.append(args[1] if _name == "call" else _name)
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(owner, name, logged)
    return log


def per_step(log, marker):
    steps = []
    for entry in log:
        if entry in ("drain", "_cascade"):
            steps.append([entry])
        elif steps:
            steps[-1].append(entry)
    return [step for step in steps if step[0] == marker]


class TestOneFramePerShard:
    def test_waves_and_cascades_send_one_frame_per_shard(self, monkeypatch):
        """Two shards, two scheduler threads: a wave's fetches go out as
        at most one ``lookup`` per shard, a cascade's forced releases as
        at most one ``lock_pop`` per shard."""
        log = count_rpcs(monkeypatch)
        session = warmed_session()
        wave = [JobRequest(sql=sql, virtual_cluster="vc1")
                for sql in WAVE_SQL * 3]
        try:
            for now in (10.0, 11.0):
                assert all(r.ok for r in session.run_batch(wave, now=now))
            session.engine.bulk_update("Events", EVENTS, at=12.0)
            assert all(r.ok for r in session.run_batch(wave, now=13.0))
        finally:
            session.close()
        waves = per_step(log, "drain")
        cascades = per_step(log, "_cascade")
        assert len(waves) == 3 and len(cascades) == 1
        # The second wave finds every tag in the client's cache; the
        # cascade's generation bump sends the third back to the shards.
        assert [step.count("lookup") for step in waves] == [2, 0, 2]
        assert 0 < cascades[0].count("lock_pop") <= 2
        assert all(step.count("lock_pop") <= 2 for step in waves)


def warmed_session():
    """Two shards, two scheduler threads, the lifecycle manager,
    published annotations and the views they drove."""
    controls = MultiLevelControls()
    controls.enable_vc("vc1")
    session = Session(
        config=SessionConfig(shard=ShardConfig(shards=2)),
        scheduler_config=SchedulerConfig(workers=2),
        lifecycle=LifecycleConfig(),
        controls=controls, selection_algorithm="bigsubs",
        policy=SelectionPolicy(storage_budget_bytes=10_000_000,
                               min_reuses_per_epoch=0.0))
    session.register_table(
        schema_of("Events", [("UserId", "int"), ("Day", "str"),
                             ("Value", "float")]), EVENTS)
    for _ in range(3):
        for sql in WAVE_SQL:
            session.run(sql, virtual_cluster="vc1", template_id=sql)
        session.analyze_and_publish()
    return session


EVENTS = [dict(UserId=i % 5, Day=f"d{i % 3}", Value=float(i))
          for i in range(30)]
WAVE_SQL = (
    "SELECT Day, SUM(Value) AS total FROM Events GROUP BY Day",
    "SELECT Day, COUNT(*) AS n FROM Events GROUP BY Day",
    "SELECT UserId, SUM(Value) AS total FROM Events GROUP BY UserId",
)


class TestWaveIsolation:
    def test_unplannable_and_reuse_free_jobs_leave_their_siblings_alone(
            self):
        """A job that fails to parse and a reuse-disabled job get their
        usual results and add no tags: their siblings' results and
        fetch charges equal those of the same wave without them."""
        def wave(extra):
            requests = [JobRequest(sql=sql, virtual_cluster="vc1",
                                   job_id=f"job-{i}")
                        for i, sql in enumerate(WAVE_SQL)]
            requests[1:1] = extra
            session = warmed_session()
            try:
                results = session.run_batch(requests, now=10.0)
                client = session.insights
                usage = client.metrics.snapshot()
                counters = (client.cache_hits, client.cache_misses,
                            client.retries, usage["cache_hits"],
                            usage["cache_misses"])
            finally:
                session.close()
            return results, counters

        def outcome(result):
            return (result.job_id, result.ok, result.degraded,
                    result.views_built, result.views_reused,
                    result.compile_latency, sorted(map(repr, result.rows)))

        plain_results, plain_counters = wave([])
        results, counters = wave([
            JobRequest(sql="SELECT Nope FROM", virtual_cluster="vc1",
                       job_id="job-bad"),
            JobRequest(sql=WAVE_SQL[0], virtual_cluster="vc1",
                       reuse_enabled=False, job_id="job-off")])
        bad, off = results[1:3]
        assert not bad.ok and bad.error_type == "ParseError"
        assert off.ok and off.views_reused == 0 and off.compile_latency == 0
        assert ([outcome(r) for r in results[:1] + results[3:]]
                == [outcome(r) for r in plain_results])
        assert any(r.views_reused for r in plain_results)
        assert counters == plain_counters
