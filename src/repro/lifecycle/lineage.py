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

    Recorded through the view store's mutation feed; read by the
    invalidation path and GC sweeps.
    """

    def __init__(self) -> None:
        #: view strict signature -> frozenset of (dataset, guid).
        self._inputs: Dict[str, FrozenSet[Input]] = {}
        #: dataset name -> set of dependent view signatures.
        self._by_dataset: Dict[str, Set[str]] = {}

    def __len__(self) -> int:
        return len(self._inputs)

    # ------------------------------------------------------------------ #
    # writes

    def record(self, signature: str, inputs: FrozenSet[Input]) -> None:
        """Install (or overwrite) one view's lineage."""
        self.forget(signature)
        self._inputs[signature] = frozenset(inputs)
        for dataset, _ in inputs:
            self._by_dataset.setdefault(dataset, set()).add(signature)

    def forget(self, signature: str) -> None:
        """Drop one view's lineage (the view left the catalog)."""
        inputs = self._inputs.pop(signature, None)
        if not inputs:
            return
        for dataset, _ in inputs:
            dependents = self._by_dataset.get(dataset)
            if dependents is not None:
                dependents.discard(signature)
                if not dependents:
                    del self._by_dataset[dataset]

    # ------------------------------------------------------------------ #
    # reads

    def inputs_of(self, signature: str) -> FrozenSet[Input]:
        return self._inputs.get(signature, frozenset())

    def views_reading_dataset(self, dataset: str) -> Set[str]:
        """Every view whose lineage includes any version of ``dataset``."""
        return set(self._by_dataset.get(dataset, ()))

    def datasets(self) -> List[str]:
        return sorted(self._by_dataset)

    # ------------------------------------------------------------------ #
    # persistence (journal snapshot format)

    def snapshot(self) -> Dict[str, List[List[str]]]:
        """JSON-serializable dump: signature -> sorted [dataset, guid]."""
        return {signature: sorted([d, g] for d, g in inputs)
                for signature, inputs in self._inputs.items()}

    def restore(self, snapshot: Dict[str, List[List[str]]]) -> None:
        for signature, pairs in snapshot.items():
            self.record(signature,
                        frozenset((d, g) for d, g in pairs))
