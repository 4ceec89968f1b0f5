"""One partition of the insights service's tables: mechanism, no policy.

A :class:`Partition` is the annotation index, the serving-layer cache
and the view-lock table behind one tracked mutex -- and nothing else: no
metric, no event, no kill switch, no generation.  Those are
:class:`~repro.insights.service.InsightsService`, which runs one policy
over a local partition or over N remote ones (a shard worker hosts a
bare :class:`Partition`; the router's stubs reach it over the wire).

:data:`PARTITION_OPS` declares the operations once: the service routes
through it, the shard worker allow-lists its dispatch from it, and the
router derives its remote stubs from it.  Adding an operation is one
row there plus the method here.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.common.errors import InsightsError
from repro.common.sync import RANK_INSIGHTS, TrackedLock
from repro.obs.recorder import NULL_RECORDER
from repro.optimizer.context import Annotation

#: Simulated round-trip to the serving layer, in seconds (~15 ms).
ROUND_TRIP_SECONDS = 0.015
#: A cache hit in the serving layer is an order of magnitude cheaper.
CACHED_ROUND_TRIP_SECONDS = 0.0015

#: Routes: the partition owning a tag / a strict signature (both are
#: ``shard_for(key, partitions)``), or every partition in shard order.
BY_TAG, BY_SIGNATURE, BROADCAST = "by_tag", "by_signature", "broadcast"


class Op(NamedTuple):
    """Where one partition operation runs and what its wire form carries."""

    route: str
    #: The first argument is a list of :class:`Annotation`.
    annotations_in: bool = False
    #: The result is a list of :class:`Annotation`.
    annotations_out: bool = False


#: Every partition operation.  ``install``, ``lookup`` and ``lock_pop``
#: take lists the service splits across the owning partitions itself;
#: the rest run as declared, keyed on their first argument.
PARTITION_OPS: Dict[str, Op] = {
    "install": Op(BY_TAG, annotations_in=True),
    "remove": Op(BROADCAST),
    "clear_cache": Op(BROADCAST),
    "count": Op(BROADCAST),
    "annotations": Op(BROADCAST, annotations_out=True),
    "lookup": Op(BY_TAG),
    "lock_cas": Op(BY_SIGNATURE),
    "lock_release": Op(BY_SIGNATURE),
    "lock_pop": Op(BY_SIGNATURE),
    "lock_holder": Op(BY_SIGNATURE),
    "lock_snapshot": Op(BROADCAST),
}


class Lookup(NamedTuple):
    """Result of :meth:`Partition.lookup`: per tag list, per tag."""

    annotations: List[List[List[Annotation]]]
    #: Simulated serving cost per tag (cache hit or miss).
    charges: List[List[float]]
    #: Transport delay on top (only a remote partition's fault seam).
    delay: float = 0.0


def to_wire(value: object) -> object:
    """JSON form of an op's arguments or result: annotations become dicts."""
    if isinstance(value, Annotation):
        return dataclasses.asdict(value)
    if isinstance(value, (list, tuple)):
        return [to_wire(item) for item in value]
    return value


def annotations_from_wire(payload: Iterable[Dict[str, object]]
                          ) -> List[Annotation]:
    return [Annotation(**entry) for entry in payload]


class Partition:
    """Annotation index, serving cache and lock table for one key range."""

    def __init__(self, recorder=NULL_RECORDER) -> None:
        self._by_tag: Dict[str, List[Annotation]] = {}
        self._cache: Set[str] = set()
        self._locks: Dict[str, str] = {}  # strict signature -> holder job id
        # One tracked, non-reentrant mutex for every table; terminal (it
        # acquires nothing), ranked below the service's state guard.
        self._mutex = TrackedLock("insights.partition", RANK_INSIGHTS + 10,
                                  recorder)

    @property
    def recorder(self):
        return self._mutex.recorder

    @recorder.setter
    def recorder(self, value) -> None:
        self._mutex.recorder = value

    # ------------------------------------------------------------------ #
    # annotations

    def install(self, annotations: Iterable[Annotation]) -> int:
        """Replace the slice wholesale (and drop the serving cache)."""
        annotations = list(annotations)
        with self._mutex:
            self._by_tag.clear()
            self._cache.clear()
            for annotation in annotations:
                self._by_tag.setdefault(annotation.tag, []).append(annotation)
        return len(annotations)

    def remove(self, recurring_signatures: Iterable[str]) -> int:
        """Drop the named recurring signatures; clears the serving cache
        in the same critical section when anything went."""
        wanted = set(recurring_signatures)
        with self._mutex:
            before = self._count()
            for tag in list(self._by_tag):
                kept = [a for a in self._by_tag[tag]
                        if a.recurring_signature not in wanted]
                if kept:
                    self._by_tag[tag] = kept
                else:
                    del self._by_tag[tag]
            removed = before - self._count()
            if removed:
                self._cache.clear()
        return removed

    def clear_cache(self) -> None:
        with self._mutex:
            self._cache.clear()

    def _count(self) -> int:
        return len({a.recurring_signature
                    for found in self._by_tag.values() for a in found})

    def count(self) -> int:
        """Distinct recurring signatures installed."""
        with self._mutex:
            return self._count()

    def annotations(self) -> List[Annotation]:
        """Everything installed, tag by tag, install order within a tag --
        re-installing the result rebuilds the same index."""
        with self._mutex:
            return [a for found in self._by_tag.values() for a in found]

    def lookup(self, lists: Iterable[Iterable[str]]) -> Lookup:
        """Each tag list in turn, one serving-layer entry per tag,
        duplicates included: the first sight of a tag is a miss, every
        later one -- in that list or a later one -- a cache hit."""
        found: List[List[List[Annotation]]] = []
        charges: List[List[float]] = []
        with self._mutex:
            for tags in lists:
                found.append([list(self._by_tag.get(tag, ())) for tag in tags])
                charges.append([])
                for tag in tags:
                    charges[-1].append(CACHED_ROUND_TRIP_SECONDS
                                       if tag in self._cache
                                       else ROUND_TRIP_SECONDS)
                    self._cache.add(tag)
        return Lookup(found, charges)

    # ------------------------------------------------------------------ #
    # view locks

    def lock_cas(self, strict_signature: str, holder: str
                 ) -> Tuple[bool, Optional[str]]:
        """Atomic check-and-set; returns ``(acquired, holder after)``."""
        with self._mutex:
            current = self._locks.setdefault(strict_signature, holder)
            return current == holder, current

    def lock_release(self, strict_signature: str, holder: str) -> bool:
        """Release ``holder``'s lock; False when nobody held it."""
        with self._mutex:
            current = self._locks.get(strict_signature)
            if current is None:
                return False
            if current != holder:
                raise InsightsError(
                    f"lock on {strict_signature[:8]} held by {current!r}, "
                    f"not {holder!r}")
            del self._locks[strict_signature]
            return True

    def lock_pop(self, strict_signatures: Iterable[str]
                 ) -> List[Optional[str]]:
        """Drop each lock whoever holds it; returns each holder."""
        with self._mutex:
            return [self._locks.pop(signature, None)
                    for signature in strict_signatures]

    def lock_holder(self, strict_signature: str) -> Optional[str]:
        with self._mutex:
            return self._locks.get(strict_signature)

    def lock_snapshot(self) -> Dict[str, str]:
        with self._mutex:
            return dict(self._locks)
