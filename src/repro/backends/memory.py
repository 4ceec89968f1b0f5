"""The in-memory execution backend.

Wraps the column-batch executor (:class:`~repro.executor.executor.
Executor`) and the simulated blob store (:class:`~repro.storage.store.
DataStore`) behind the :class:`~repro.backends.base.ExecutionBackend`
interface.  Streams and views are column batches keyed by GUID/path, and
Spool materialization happens inside the executor itself.  This class is
a row boundary: ``load_table`` transposes the rows it is given once, and
``scan_table`` / ``execute(...).rows`` hand out fresh dicts, so no caller
can reach what is stored.  Byte sizes come from the
executor's per-node statistics and the sizes recorded with each blob.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.backends.base import ExecutionBackend
from repro.executor.executor import ExecutionResult, Executor
from repro.executor.udo import UdoRegistry
from repro.faults import points as fault_points
from repro.plan.expressions import Row
from repro.plan.logical import LogicalPlan, Spool, ViewScan
from repro.storage.store import DataStore


class InMemoryBackend(ExecutionBackend):
    """Simulated engine: column batches in a :class:`DataStore`."""

    name = "memory"

    def __init__(self, store: Optional[DataStore] = None,
                 udos: Optional[UdoRegistry] = None):
        self.store = store or DataStore()
        self.executor = Executor(self.store, udos)

    # ------------------------------------------------------------------ #
    # datasets

    def load_table(self, schema, guid: str, rows: Sequence[Row]) -> None:
        self.store.put(guid, rows)

    def scan_table(self, guid: str) -> List[Row]:
        return self.store.get(guid)

    def drop_table(self, guid: str) -> None:
        self.store.delete(guid)

    # ------------------------------------------------------------------ #
    # execution

    def execute(self, plan: LogicalPlan) -> ExecutionResult:
        faults = self.faults
        if faults.enabled:
            # The executor reads views straight out of the DataStore,
            # so the per-ViewScan and per-Spool seams fire here -- the
            # same points, in the same plan positions, as the SQLite
            # backend, keeping fault plans backend-portable.  Nothing is
            # written before the executor runs, so a crash at the mid
            # point leaves no view, as SQLite's rolled-back CTAS does.
            faults.fire(fault_points.BACKEND_EXECUTE)
            for node in plan.walk():
                if isinstance(node, ViewScan):
                    faults.fire(fault_points.BACKEND_SCAN_VIEW)
                elif isinstance(node, Spool):
                    faults.fire(fault_points.BACKEND_MATERIALIZE)
                    faults.fire(fault_points.BACKEND_MATERIALIZE_MID)
        return self.executor.execute(plan)

    # ------------------------------------------------------------------ #
    # materialized views

    def drop_view(self, view_id: str) -> None:
        self.faults.fire(fault_points.BACKEND_DROP_VIEW)
        self.store.delete(view_id)
