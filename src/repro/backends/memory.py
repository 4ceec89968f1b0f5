"""The in-memory execution backend.

Wraps the row-at-a-time interpreter (:class:`~repro.executor.executor.
Executor`) and the simulated blob store (:class:`~repro.storage.store.
DataStore`) behind the :class:`~repro.backends.base.ExecutionBackend`
interface.  This is the original simulator engine, unchanged in
behaviour -- streams and views are Python row lists keyed by GUID/path,
and Spool materialization happens inside the interpreter itself.  Byte
sizes come from the interpreter's per-node statistics and the store's
recorded blob sizes; nothing here walks rows to measure them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.backends.base import BackendCapabilities, ExecutionBackend
from repro.executor.executor import ExecutionResult, Executor
from repro.executor.udo import UdoRegistry
from repro.faults import points as fault_points
from repro.plan.expressions import Row
from repro.plan.logical import LogicalPlan, Spool, ViewScan
from repro.storage.store import DataStore


class InMemoryBackend(ExecutionBackend):
    """Simulated engine: Python rows in a :class:`DataStore`."""

    name = "memory"
    capabilities = BackendCapabilities(
        supports_udos=True,
        supports_row_capture=True,
        deterministic_limit=True,
        external=False,
    )

    def __init__(self, store: Optional[DataStore] = None,
                 udos: Optional[UdoRegistry] = None):
        self.store = store or DataStore()
        self.executor = Executor(self.store, udos)

    # ------------------------------------------------------------------ #
    # datasets

    def load_table(self, schema, guid: str, rows: Sequence[Row]) -> None:
        self.store.put(guid, list(rows))

    def scan_table(self, guid: str) -> List[Row]:
        return self.store.get(guid)

    def drop_table(self, guid: str) -> None:
        self.store.delete(guid)

    # ------------------------------------------------------------------ #
    # execution

    def execute(self, plan: LogicalPlan) -> ExecutionResult:
        faults = self.faults
        if faults.enabled:
            # The interpreter reads views straight out of the DataStore,
            # so the per-ViewScan and per-Spool seams fire here -- the
            # same points, in the same plan positions, as the SQLite
            # backend, keeping fault plans backend-portable.
            faults.fire(fault_points.BACKEND_EXECUTE)
            for node in plan.walk():
                if isinstance(node, ViewScan):
                    faults.fire(fault_points.BACKEND_SCAN_VIEW)
                elif isinstance(node, Spool):
                    faults.fire(fault_points.BACKEND_MATERIALIZE)
        return self.executor.execute(plan)

    # ------------------------------------------------------------------ #
    # materialized views

    def materialize_view(self, plan: LogicalPlan, view_id: str):
        self.faults.fire(fault_points.BACKEND_MATERIALIZE)
        result = self.executor.execute(plan)
        self.faults.fire(fault_points.BACKEND_MATERIALIZE_MID)
        # The root is the last node run, and already measured.
        size = result.node_stats[-1][1].bytes_out
        self.store.put(view_id, result.rows, row_bytes=size)
        return len(result.rows), size

    def scan_view(self, view_id: str) -> List[Row]:
        self.faults.fire(fault_points.BACKEND_SCAN_VIEW)
        return self.store.get(view_id)

    def drop_view(self, view_id: str) -> None:
        self.faults.fire(fault_points.BACKEND_DROP_VIEW)
        self.store.delete(view_id)
