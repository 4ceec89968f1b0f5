"""One contract suite, three implementations of the insights service.

Every case is a script of ``SERVICE_SURFACE`` calls run step by step
against a *subject* and a plain in-process *reference*, comparing after
each step the result (or the error, by type name and message; a
fetch's result carries its latency, compared with ``==``), the full
``metrics.snapshot()`` and ``generation`` -- and, at the end, the two
recorders' event lists.  The subjects are the in-process
:class:`InsightsService`, the :class:`ShardRouter` at 1/2/4 shards, and
the :class:`InsightsClient` wrapping each (whose reference is a client
over the plain service, since the client's cache and timeout change what
``fetch_annotations`` costs).

The duplicate-tag and never-held-release cases are the two drifts the
hand-mirrored router had: they fail at the parent commit for every
``shards*`` subject.
"""

import pytest

from repro.common.errors import InsightsError
from repro.common.hashing import shard_for
from repro.insights import InsightsClient
from repro.insights.partition import Partition
from repro.insights.service import SERVICE_SURFACE, InsightsService
from repro.obs import FlightRecorder
from repro.optimizer.context import Annotation
from repro.shard import ShardConfig, ShardRouter, ShardSupervisor


def make_annotations(count=16):
    return [Annotation(recurring_signature=f"sig-{i}", tag=f"tag-{i % 8}",
                       expected_rows=i, expected_bytes=100 * i,
                       virtual_cluster="vc1")
            for i in range(count)]


TAGS = [f"tag-{i}" for i in range(8)]
#: Tags nothing was published under -- some shard still owns the lookup.
GHOSTS = [f"ghost-{i}" for i in range(6)]

#: name -> script of (method, *args); ``enabled`` sets the kill switch.
CASES = {
    "publish_and_fetch": [
        ("publish", make_annotations()),
        ("annotation_count",),
        ("annotations",),
        ("lookup", [TAGS + ["ghost-tag"]]),   # cold
        ("lookup", [TAGS + ["ghost-tag"]]),   # warm
        ("fetch_annotations", TAGS),
        ("fetch_annotations", TAGS[:3], 5.0),
    ],
    "duplicate_and_unowned_tags": [
        ("publish", make_annotations()),
        ("lookup", [["tag-1", "tag-1", "tag-2"]]),
        ("lookup", [GHOSTS + GHOSTS[:2]]),
        ("lookup", [["tag-2", "ghost-0", "tag-2", "tag-9"]]),
        ("lookup", [[]]),
        # Many lists in one frame: later lists see earlier ones' misses.
        ("lookup", [["tag-4"], [], ["tag-4", "ghost-3", "tag-6"],
                    ["ghost-3"]]),
        ("fetch_annotations", ["tag-3", "tag-3", "ghost-5"]),
    ],
    "one_wave": [
        ("publish", make_annotations()),
        ("lookup", [TAGS[:2]]),
        # Shared, duplicate, warm, cold and unpublished tags, one frame
        # per owning shard: each job is answered as if it fetched alone.
        ("fetch_wave", [(TAGS[:4], 0.0), (TAGS[2:6] + ["ghost-1"], 0.0),
                        (["tag-5", "tag-5"], 0.0), ([], 0.0),
                        (TAGS, 1.0)]),
        ("fetch_wave", []),
        ("fetch_annotations", TAGS[3:]),
    ],
    "republish_replaces_every_slice": [
        ("publish", make_annotations()),
        ("lookup", [TAGS]),
        ("publish", make_annotations(2)),
        ("annotation_count",),
        ("annotations",),
        ("lookup", [TAGS]),
        ("publish", []),
        ("annotation_count",),
    ],
    "retract": [
        ("publish", make_annotations()),
        ("lookup", [TAGS]),
        ("retract", {"sig-0", "sig-7", "nope"}),
        ("annotation_count",),
        ("lookup", [TAGS]),      # every cache went cold
        ("retract", ["nope", "never"]),       # removed nothing: no bump
        ("lookup", [TAGS]),
        ("retract", []),
    ],
    "bump_generation": [
        ("publish", make_annotations()),
        ("lookup", [TAGS]),
        ("bump_generation",),
        ("lookup", [TAGS]),
        ("annotation_count",),
    ],
    "view_locks": [
        ("acquire_view_lock", "strict-0", "job-a"),
        ("acquire_view_lock", "strict-0", "job-a"),   # re-entrant
        ("acquire_view_lock", "strict-0", "job-b"),   # denied
        ("acquire_view_lock", "strict-1", "job-b"),
        ("lock_holder", "strict-0"),
        ("lock_holder", "strict-9"),
        ("held_locks",),
        ("release_view_lock", "strict-0", "job-a"),
        ("report_view_available", "strict-1", "job-b"),
        ("held_locks",),
        ("acquire_view_lock", "strict-2", "job-c"),
        ("acquire_view_lock", "strict-6", "job-c"),
        ("force_release_locks", ["strict-2", "strict-8", "strict-6"]),
        ("lock_holder", "strict-2"),
    ],
    "never_held_locks": [
        ("release_view_lock", "strict-7", "job-a"),
        ("report_view_available", "strict-7", "job-a"),
        ("force_release_locks", ["strict-7"]),
        ("force_release_locks", []),
        ("held_locks",),
    ],
    "wrong_holder_crosses_by_name": [
        ("acquire_view_lock", "strict-3", "job-a"),
        ("release_view_lock", "strict-3", "job-b"),
        ("report_view_available", "strict-3", "job-b"),
        ("lock_holder", "strict-3"),
        ("release_view_lock", "strict-3", "job-a"),
    ],
    "kill_switch_off": [
        ("publish", make_annotations()),
        ("acquire_view_lock", "strict-4", "job-a"),
        ("enabled", False),
        ("enabled", False),                   # no second event
        ("fetch_annotations", TAGS),
        ("lookup", [TAGS]),
        ("acquire_view_lock", "strict-5", "job-a"),
        ("lock_holder", "strict-4"),
        ("held_locks",),
        ("release_view_lock", "strict-4", "job-a"),
        ("report_view_available", "strict-4", "job-a"),
        ("force_release_locks", ["strict-4"]),
        ("publish", make_annotations(4)),
        ("annotations",),
        ("annotation_count",),
        ("retract", ["sig-1"]),
        ("bump_generation",),
        ("enabled", True),
        ("fetch_annotations", TAGS),
    ],
}


def recorded(service):
    service.recorder = FlightRecorder()
    return service


@pytest.fixture(params=["service", "shards1", "shards2", "shards4"])
def backend(request):
    """A bare service of one kind, plus the plain reference."""
    if request.param == "service":
        yield recorded(InsightsService()), recorded(InsightsService())
        return
    supervisor = ShardSupervisor(ShardConfig(shards=int(request.param[-1])))
    supervisor.start()
    router = recorded(ShardRouter(supervisor))
    yield router, recorded(InsightsService())
    router.close()
    supervisor.close()


@pytest.fixture(params=["bare", "client"])
def pair(request, backend):
    subject, reference = backend
    if request.param == "client":
        return InsightsClient(subject), InsightsClient(reference)
    return subject, reference


def observe(target, method, args):
    if method == "enabled":
        target.enabled = args[0]
        return ("ok", target.enabled)
    try:
        result = getattr(target, method)(*args)
    except InsightsError as error:
        return (type(error).__name__, str(error))
    if method == "annotations":
        # Partition by partition, so only the set is shard-count-free;
        # within a tag the publish order survives (checked by the cases
        # that re-fetch after a publish).
        result = sorted(result, key=lambda a: a.recurring_signature)
    return ("ok", result)


def state(target):
    return {
        "metrics": target.metrics.snapshot(),
        "generation": target.generation,
        "enabled": target.enabled,
    }


def events(target):
    return [(e.kind, e.job_id, e.attrs)
            for e in target.recorder.events.events()]


def run_script(subject, reference, script):
    for step, (method, *args) in enumerate(script):
        where = f"step {step}: {method}{tuple(args)!r}"
        assert (observe(subject, method, args)
                == observe(reference, method, args)), where
        assert state(subject) == state(reference), where
    assert events(subject) == events(reference)


@pytest.mark.parametrize("case", sorted(CASES))
def test_contract(pair, case):
    run_script(*pair, CASES[case])


def test_every_surface_method_is_implemented_and_exercised(pair):
    """A name added to ``SERVICE_SURFACE`` must exist on every
    implementation and appear in at least one contract case."""
    subject, _ = pair
    for name in SERVICE_SURFACE:
        assert callable(getattr(subject, name, None)), name
    exercised = {step[0] for script in CASES.values() for step in script}
    assert exercised - {"enabled"} == set(SERVICE_SURFACE)


def test_the_drift_cases_have_the_expected_values():
    """Pin the two divergences to numbers, not only to each other."""
    service = InsightsService()
    service.publish(make_annotations())
    [(_, latency)] = service.lookup([["tag-1", "tag-1", "tag-2"]])
    assert latency == 0.015 + 0.0015 + 0.015
    service.release_view_lock("never-held", "job-a")
    assert service.metrics.snapshot()["locks_released"] == 0


def test_lookups_group_by_owning_shard_in_caller_order():
    """The service's grouping (formerly ``tags_by_shard``): each
    partition sees exactly its tags, duplicates kept, caller order kept,
    one lookup per contacted partition in shard order."""

    class Spy(Partition):
        def __init__(self, log, shard_id):
            super().__init__()
            self.log, self.shard_id = log, shard_id

        def lookup(self, lists):
            self.log.append((self.shard_id, [list(tags) for tags in lists]))
            return super().lookup(lists)

    log = []
    service = InsightsService(
        partitions=[Spy(log, shard_id) for shard_id in range(4)])
    tags = [f"t-{i}" for i in range(20)] + ["t-3", "t-3"]
    [(found, _)] = service.lookup([tags])
    assert len(found) == len(tags)
    assert [shard_id for shard_id, _ in log] == sorted(
        {shard_for(tag, 4) for tag in tags})
    for shard_id, seen in log:
        assert seen == [[t for t in tags if shard_for(t, 4) == shard_id]]


def test_policy_is_written_once():
    """Usage counters, lock / kill-switch events and the generation bump
    live in ``insights/service.py`` alone: nothing under ``shard/`` (or
    the client, or the partition) counts, emits or bumps, and the worker
    hosts a bare partition rather than a nested service."""
    import re
    from pathlib import Path

    import repro

    policy = re.compile(
        r"metrics\.inc\(|generation \+=|obs_events\.(LOCK_ACQUIRED|"
        r"LOCK_DENIED|LOCK_RELEASED|KILL_SWITCH_FLIPPED)")
    root = Path(repro.__file__).parent
    holders = {
        str(path.relative_to(root))
        for package in ("insights", "shard")
        for path in sorted((root / package).glob("*.py"))
        if policy.search(path.read_text("utf-8"))}
    assert holders == {"insights/service.py"}
    worker = (root / "shard" / "worker.py").read_text("utf-8")
    assert not re.search(r"^(from|import) .*InsightsService", worker, re.M)
