"""View -> input-stream lineage: who reads what, transitively.

Strict signatures already *encode* input GUIDs (which is how matching
self-invalidates), but they are one-way hashes: given "stream X changed"
there is no way back from a signature to the views that read X.  The
registry maintains that reverse map explicitly, recorded at
materialization time, so invalidation events can cascade to exactly the
dependent views -- the paper's Section 4 recipe ("the input GUIDs are
updated both with recurring updates and with GDPR related updates")
turned into an index instead of a full catalog scan.

Lineage is *transitive*: a view whose defining subplan scans another view
inherits that view's inputs, so forgetting a stream reaches views built
on top of views.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.common.sync import RANK_LEAF, TrackedLock

#: One lineage edge: (dataset name, stream GUID the view was built over).
Input = Tuple[str, str]


def extract_inputs(definition: object,
                   registry: Optional["LineageRegistry"] = None
                   ) -> FrozenSet[Input]:
    """The (dataset, guid) pairs a defining subplan transitively reads.

    ``ViewScan`` nodes contribute the lineage of the referenced view (from
    ``registry``), which is what makes lineage transitive for views built
    over views.
    """
    from repro.plan.logical import Scan, ViewScan

    inputs: Set[Input] = set()
    if definition is None:
        return frozenset()
    for node in definition.walk():
        if isinstance(node, Scan) and node.stream_guid:
            inputs.add((node.dataset, node.stream_guid))
        elif isinstance(node, ViewScan) and registry is not None:
            inputs.update(registry.inputs_of(node.signature))
    return frozenset(inputs)


class LineageRegistry:
    """Forward and reverse index between views and their input streams.

    Thread-safe: recorded from any compiling thread (via the view
    store's mutation feed) and read by the invalidation path and GC
    sweeps, which concurrent ``Session`` callers may run at once.
    """

    def __init__(self) -> None:
        # Leaf rank: recorded under the view store's mutation feed and
        # read under the invalidation bus; never acquires anything.
        self._mutex = TrackedLock("lifecycle.lineage", RANK_LEAF + 20)
        #: view strict signature -> frozenset of (dataset, guid).
        self._inputs: Dict[str, FrozenSet[Input]] = {}
        #: dataset name -> set of dependent view signatures.
        self._by_dataset: Dict[str, Set[str]] = {}
        #: stream GUID -> set of dependent view signatures.
        self._by_guid: Dict[str, Set[str]] = {}

    def __len__(self) -> int:
        with self._mutex:
            return len(self._inputs)

    # ------------------------------------------------------------------ #
    # writes

    def record(self, signature: str, inputs: FrozenSet[Input]) -> None:
        """Install (or overwrite) one view's lineage."""
        with self._mutex:
            self._forget_locked(signature)
            self._inputs[signature] = frozenset(inputs)
            for dataset, guid in inputs:
                self._by_dataset.setdefault(dataset, set()).add(signature)
                self._by_guid.setdefault(guid, set()).add(signature)

    def forget(self, signature: str) -> None:
        """Drop one view's lineage (the view left the catalog)."""
        with self._mutex:
            self._forget_locked(signature)

    def _forget_locked(self, signature: str) -> None:
        inputs = self._inputs.pop(signature, None)
        if not inputs:
            return
        for dataset, guid in inputs:
            for index, key in ((self._by_dataset, dataset),
                               (self._by_guid, guid)):
                dependents = index.get(key)
                if dependents is not None:
                    dependents.discard(signature)
                    if not dependents:
                        del index[key]

    # ------------------------------------------------------------------ #
    # reads

    def inputs_of(self, signature: str) -> FrozenSet[Input]:
        with self._mutex:
            return self._inputs.get(signature, frozenset())

    def has(self, signature: str) -> bool:
        with self._mutex:
            return signature in self._inputs

    def views_reading_dataset(self, dataset: str) -> Set[str]:
        """Every view whose lineage includes any version of ``dataset``."""
        with self._mutex:
            return set(self._by_dataset.get(dataset, ()))

    def views_reading_guid(self, guid: str) -> Set[str]:
        """Every view built over the specific stream version ``guid``."""
        with self._mutex:
            return set(self._by_guid.get(guid, ()))

    def datasets(self) -> List[str]:
        with self._mutex:
            return sorted(self._by_dataset)

    # ------------------------------------------------------------------ #
    # persistence (journal snapshot format)

    def snapshot(self) -> Dict[str, List[List[str]]]:
        """JSON-serializable dump: signature -> sorted [dataset, guid]."""
        with self._mutex:
            return {signature: sorted([d, g] for d, g in inputs)
                    for signature, inputs in self._inputs.items()}

    def restore(self, snapshot: Dict[str, List[List[str]]]) -> None:
        for signature, pairs in snapshot.items():
            self.record(signature,
                        frozenset((d, g) for d, g in pairs))
