"""The insights service: annotation serving, view locks, usage metrics.

From Figure 5: tagged signatures produced by workload analysis are "polled
by insights service and stored using Azure SQL databases" behind a "cached
serving layer".  At query time the compiler extracts a job's tags and
fetches the matching annotations; during the follow-up optimization phase
it acquires an exclusive *view lock* before inserting a spool, and the job
manager releases the lock when the view is sealed early.

The paper reports "an end to round trip latency of around 15 milliseconds"
(Section 5.2); we simulate that latency so the cluster simulation can
charge it, with a serving-layer cache that makes repeated fetches cheap.

The service is also the uber kill switch: "insight service level control as
the uber control for gate keeping and toggling during customer incidents"
(Section 4, "Multi-level control").

:class:`InsightsService` is the *policy* and exists once: the kill
switch, the publication generation, :class:`UsageMetrics`, the lock and
kill-switch events and the routing.  The tables live in data-only
:class:`~repro.insights.partition.Partition` objects -- one local
partition classically, N remote ones when the
:class:`~repro.shard.router.ShardRouter` (a subclass) fronts shard
processes -- so any partition count answers every call identically,
latency bits and counters included.  Each partition's mutex makes
:meth:`InsightsService.acquire_view_lock` an atomic check-and-set: the
real guard against duplicate view buildout when many jobs compile the
same subexpression in parallel.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

from repro.common.errors import InsightsError
from repro.common.hashing import shard_for
from repro.common.sync import RANK_INSIGHTS, TrackedLock
from repro.insights.partition import (
    BROADCAST,
    CACHED_ROUND_TRIP_SECONDS,
    PARTITION_OPS,
    Partition,
)
from repro.obs import events as obs_events
from repro.obs.recorder import NULL_RECORDER
from repro.optimizer.context import Annotation

#: Every public operation of the service.  The client takes its plain
#: forwards from this tuple and the contract suite runs it against every
#: implementation, so a name added here must work on all of them.
SERVICE_SURFACE = (
    "publish", "annotations", "annotation_count", "bump_generation",
    "retract", "fetch_wave", "fetch_annotations", "lookup",
    "acquire_view_lock", "release_view_lock", "force_release_locks",
    "lock_holder", "held_locks", "report_view_available",
)

#: The counters every :class:`UsageMetrics` instance carries.
_USAGE_FIELDS = (
    "fetches", "cache_hits", "cache_misses", "annotations_served",
    "locks_acquired", "locks_denied", "locks_released",
    "views_reported_available",
)


class Fetched(NamedTuple):
    """One job's answer, prepared by its wave (:meth:`InsightsService.
    fetch_wave`) and returned by its own ``fetch_annotations``."""

    annotations: Dict[str, Annotation]
    #: Simulated serving latency charged to the job.
    latency: float = 0.0
    #: The fetch fell back to the reuse-disabled degradation path.
    degraded: bool = False


class UsageMetrics:
    """Operational counters surfaced to the service owners.

    ``fetches`` counts per-job annotation requests; ``cache_hits`` /
    ``cache_misses`` count per-tag lookups inside those requests (one
    fetch touches one serving-layer entry per tag).

    Increments are lock-guarded so the counters stay exact under
    concurrent compilation; reads are plain attribute access (ints are
    replaced atomically, and every counter is monotonic).
    """

    __slots__ = _USAGE_FIELDS + ("_lock",)

    def __init__(self) -> None:
        # Terminal counter guard at the bottom of the insights band.
        self._lock = TrackedLock("insights.metrics", RANK_INSIGHTS)
        for name in _USAGE_FIELDS:
            setattr(self, name, 0)

    def inc(self, name: str, amount: int = 1) -> int:
        """Atomically bump one counter; returns the new value."""
        with self._lock:
            value = getattr(self, name) + amount
            setattr(self, name, value)
            return value

    def snapshot(self) -> Dict[str, int]:
        """A consistent point-in-time copy of every counter."""
        with self._lock:
            return {name: getattr(self, name) for name in _USAGE_FIELDS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"UsageMetrics({body})"


class InsightsService:
    """The one insights policy, over local or remote partitions."""

    def __init__(self, recorder=NULL_RECORDER,
                 partitions: Optional[Sequence[Partition]] = None) -> None:
        #: The tables, in shard order; keys route by ``shard_for``.
        self.partitions = list(partitions or [Partition()])
        self._enabled = True
        # Guards the generation counter; ranked above the partitions'
        # table mutexes and the UsageMetrics counter guard.
        self._mutex = TrackedLock("insights.service", RANK_INSIGHTS + 20,
                                  recorder)
        #: Bumped on every :meth:`publish`; clients key their local caches
        #: by it so a re-selection invalidates everything at once.
        self.generation = 0
        self.metrics = UsageMetrics()
        #: Serving seconds of re-lookups answered without a round trip,
        #: per partition (:meth:`relookup`).
        self.relookup_seconds = [0.0] * len(self.partitions)
        #: Flight recorder (no-op unless a real one is installed).
        self.recorder = recorder

    # ------------------------------------------------------------------ #
    # recorder plumbing (FlightRecorder.install sets ``.recorder``)

    @property
    def recorder(self):
        return self._recorder

    @recorder.setter
    def recorder(self, value) -> None:
        self._recorder = value
        self._mutex.recorder = value
        for partition in self.partitions:
            partition.recorder = value

    @property
    def enabled(self) -> bool:
        """The uber kill switch (Section 4, "Multi-level control")."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        value = bool(value)
        if value != self._enabled:
            self.recorder.event(obs_events.KILL_SWITCH_FLIPPED,
                                level="insights-service", enabled=value)
        self._enabled = value

    # ------------------------------------------------------------------ #
    # routing

    def _call(self, op: str, *args):
        """Run one partition op where :data:`PARTITION_OPS` routes it: on
        every partition in shard order (a list of results), or on the
        owner of its first argument (a tag or a strict signature)."""
        if PARTITION_OPS[op].route == BROADCAST:
            return [getattr(partition, op)(*args)
                    for partition in self.partitions]
        owner = self.partitions[shard_for(args[0], len(self.partitions))]
        return getattr(owner, op)(*args)

    def _bump(self) -> int:
        with self._mutex:
            self.generation += 1
            return self.generation

    # ------------------------------------------------------------------ #
    # publication (from workload analysis)

    def publish(self, annotations: Iterable[Annotation]) -> int:
        """Install the output of a view-selection run.

        Replaces the previous generation wholesale: selection runs
        periodically over fresh workload windows, and stale selections must
        stop driving materialization (just-in-time views, Section 2.4).
        Annotations partition by tag in publish order; every partition
        gets its slice, an empty one included, so it drops what it held.
        """
        slices: List[List[Annotation]] = [[] for _ in self.partitions]
        for annotation in annotations:
            slices[shard_for(annotation.tag, len(slices))].append(annotation)
        count = sum(partition.install(piece)
                    for partition, piece in zip(self.partitions, slices))
        self._bump()
        return count

    def annotations(self) -> List[Annotation]:
        """The published annotations, one per recurring signature."""
        return [a for part in self._call("annotations") for a in part]

    def annotation_count(self) -> int:
        return sum(self._call("count"))

    def bump_generation(self) -> int:
        """Invalidate every generation-keyed downstream cache.

        The lifecycle manager calls this after an invalidation cascade:
        the annotations themselves stay published (the views should be
        rebuilt over the fresh stream GUIDs), but clients holding
        TTL-cached copies of *reuse* state must come back to the source.
        """
        self._call("clear_cache")
        return self._bump()

    def retract(self, recurring_signatures: Iterable[str]) -> int:
        """Withdraw specific annotations (user-initiated view purge).

        Unlike :meth:`publish` this removes only the named recurring
        signatures.  A retraction that removed anything clears *every*
        serving cache (a partition that removed cleared its own) and
        bumps the generation once, so cached copies die with them.
        """
        wanted = sorted(set(recurring_signatures))
        if not wanted:
            return 0
        removed = self._call("remove", wanted)
        if any(removed):
            for partition, count in zip(self.partitions, removed):
                if not count:
                    partition.clear_cache()
            self._bump()
        return sum(removed)

    # ------------------------------------------------------------------ #
    # query-time serving

    def begin_fetch(self) -> bool:
        """Count one job-level fetch; False when the kill switch is off."""
        self.metrics.inc("fetches")
        self.recorder.inc("insights.fetches")
        return self.enabled

    def finish_fetch(self, per_tag: Iterable[Iterable[Annotation]]
                     ) -> Dict[str, Annotation]:
        """Key a job's per-tag lists by recurring signature and count them
        served (shared with the client, whose lists come from its cache)."""
        result: Dict[str, Annotation] = {}
        for found in per_tag:
            for annotation in found:
                result[annotation.recurring_signature] = annotation
        self.metrics.inc("annotations_served", len(result))
        self.recorder.inc("insights.annotations_served", len(result))
        return result

    def fetch_wave(self, requests: Sequence[tuple]) -> List[Fetched]:
        """Answer a wave's fetches -- ``(tags, now)`` per job, in
        submission order -- with one lookup frame per owning partition.

        Sound because nothing of a wave is sealed while a sibling
        compiles (DESIGN §8): no publish, bump or retract runs between
        the scheduler opening a wave and its last job executing, so the
        answer at the wave's start is the one each job's own fetch would
        have got.  A partition answers the jobs' lists in submission
        order, so every charge and counter is a one-by-one run's; the
        (workers, shards) grid of ``test_concurrent_equivalence.py`` is
        the test.  ``now`` is ignored here (the client's cache reads it).
        """
        lists = [list(tags) for tags, _ in requests if self.begin_fetch()]
        if len(lists) < len(requests):  # the kill switch is off
            return [Fetched({})] * len(requests)
        replies = self.lookup(lists)
        for reply in replies:
            if isinstance(reply, InsightsError):
                raise reply  # a bare service has no fault tolerance
        return [Fetched(self.finish_fetch(found), latency)
                for found, latency in replies]

    def fetch_annotations(self, tags: Iterable[str],
                          now: Optional[float] = None,
                          prepared: Optional[Fetched] = None) -> Fetched:
        """A job's :class:`Fetched` -- its annotations keyed by recurring
        signature, its latency and whether it degraded: the answer its
        wave ``prepared`` (:meth:`fetch_wave`), or a wave of one (the
        client answers the same way).

        Empty when the service-level kill switch is off, which disables
        both matching and buildout downstream.  ``now`` is accepted so
        the service and the TTL-caching
        :class:`~repro.insights.client.InsightsClient` are
        interchangeable behind the engine.
        """
        return prepared or self.fetch_wave([(tags, now)])[0]

    def lookup(self, lists: Sequence[Sequence[str]]) -> list:
        """The one serving loop, over many tag lists at once: per list,
        ``(per-tag annotation lists, latency)``, or the
        :class:`InsightsError` of a partition it needed.

        One frame per contacted partition, in shard order, carrying each
        list's tags that partition owns (an empty list where it owns
        none).  A partition answers the lists in order, so each tag's
        charge is the one looking the lists up one by one would pay.  A
        list's charges are then summed in its *own* tag order, plus the
        delay of the frames it rode -- the same float additions whatever
        the partition count, so a client timeout right at the boundary
        cannot depend on it.  The sum is serial accounting; what
        sharding buys shows in each worker's own busy seconds instead.
        """
        count = len(self.partitions)
        owners = [[shard_for(tag, count) for tag in tags] for tags in lists]
        frames = {}
        for shard_id in sorted({owner for row in owners for owner in row}):
            try:
                frames[shard_id] = self.partitions[shard_id].lookup(
                    [[tag for tag, owner in zip(tags, row)
                      if owner == shard_id]
                     for tags, row in zip(lists, owners)])
            except InsightsError as error:
                frames[shard_id] = error
        replies = []
        for index, row in enumerate(owners):
            rode = {shard: frames[shard] for shard in sorted(set(row))}
            failed = [f for f in rode.values() if isinstance(f, InsightsError)]
            if failed:
                replies.append(failed[0])
                continue
            answers = {shard: zip(frame.annotations[index],
                                  frame.charges[index])
                       for shard, frame in rode.items()}
            found, charges = zip(*(next(answers[owner]) for owner in row)) \
                if row else ((), ())
            replies.append((list(found), self._charge(
                charges, sum(frame.delay for frame in rode.values()))))
        return replies

    def relookup(self, tags: Sequence[str]) -> float:
        """Charge a second lookup of tags whose first one this wave made,
        without a round trip: the first put every tag in its partition's
        serving cache and a re-lookup changes nothing there, so each is a
        counted serving hit, charged to its owner's busy time."""
        with self._mutex:
            for tag in tags:
                self.relookup_seconds[shard_for(tag, len(
                    self.partitions))] += CACHED_ROUND_TRIP_SECONDS
        return self._charge([CACHED_ROUND_TRIP_SECONDS] * len(tags))

    def _charge(self, charges: Sequence[float], delay: float = 0.0) -> float:
        """Count one list's serving hits and misses; its latency is the
        charges summed in the list's order, then the transport delay."""
        hits = charges.count(CACHED_ROUND_TRIP_SECONDS)
        self.metrics.inc("cache_hits", hits)
        self.metrics.inc("cache_misses", len(charges) - hits)
        self.recorder.inc("insights.cache_hits", hits)
        self.recorder.inc("insights.cache_misses", len(charges) - hits)
        latency = 0.0
        for charge in charges:
            latency += charge
        latency += delay
        self.recorder.observe("insights.fetch.latency", latency)
        return latency

    # ------------------------------------------------------------------ #
    # view locks

    def acquire_view_lock(self, strict_signature: str, holder: str) -> bool:
        """Exclusive per-signature lock guarding view creation.

        Atomic check-and-set on the owning partition: under concurrent
        compilation exactly one of the racing jobs wins the lock, which
        is what prevents duplicate buildout of the same strict signature
        (Section 2.3).
        """
        if not self.enabled:
            return False
        acquired, current = self._call("lock_cas", strict_signature, holder)
        if not acquired:
            self.metrics.inc("locks_denied")
            self.recorder.event(obs_events.LOCK_DENIED, job_id=holder,
                                signature=strict_signature[:12],
                                held_by=current)
            return False
        self.metrics.inc("locks_acquired")
        self.recorder.event(obs_events.LOCK_ACQUIRED, job_id=holder,
                            signature=strict_signature[:12])
        return True

    def release_view_lock(self, strict_signature: str, holder: str) -> None:
        """A no-op when nobody holds the lock; an
        :class:`InsightsError` when somebody other than ``holder`` does."""
        if self._call("lock_release", strict_signature, holder):
            self._released(strict_signature, holder)

    def force_release_locks(self, strict_signatures: Iterable[str]) -> int:
        """Administratively drop view locks regardless of holder, with
        one ``lock_pop`` per owning partition; returns how many were held.

        Used when the views the locks guard are purged out from under
        their builders (invalidation cascade, GDPR erasure): a holder may
        never come back to release, and a stuck lock would block the
        rebuild over the fresh stream GUIDs forever.
        """
        wanted = list(dict.fromkeys(strict_signatures))
        count = len(self.partitions)
        holders = {}
        for shard_id in sorted({shard_for(s, count) for s in wanted}):
            owned = [s for s in wanted if shard_for(s, count) == shard_id]
            holders.update(zip(owned,
                               self.partitions[shard_id].lock_pop(owned)))
        released = [(s, holders[s]) for s in wanted if holders[s] is not None]
        for signature, holder in released:
            self._released(signature, holder, forced=True)
        return len(released)

    def _released(self, strict_signature: str, holder: str,
                  **attrs: object) -> None:
        self.metrics.inc("locks_released")
        self.recorder.event(obs_events.LOCK_RELEASED, job_id=holder,
                            signature=strict_signature[:12], **attrs)

    def lock_holder(self, strict_signature: str) -> Optional[str]:
        return self._call("lock_holder", strict_signature)

    def held_locks(self) -> Dict[str, str]:
        """Snapshot of the lock table (tests and operator tooling)."""
        merged: Dict[str, str] = {}
        for locks in self._call("lock_snapshot"):
            merged.update(locks)
        return merged

    def report_view_available(self, strict_signature: str, holder: str) -> None:
        """Early-seal notification: release the lock and start reusing.

        "The job manager makes the view available even before the query
        finishes ... and notifies the insight service to release the view
        creation lock and start reusing it wherever possible." (Section 2.3)
        """
        self.release_view_lock(strict_signature, holder)
        self.metrics.inc("views_reported_available")
