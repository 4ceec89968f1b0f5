"""The execution-backend interface.

The CloudViews loop -- signatures, insights, view selection, view
matching, spool insertion -- operates entirely on *logical plans* and is
engine-agnostic (the paper runs it inside SCOPE; SparkCruise runs the
same loop inside Spark).  Everything below the optimized plan is a
backend concern: how datasets are stored, how plans execute, and how
materialized views persist.  :class:`ExecutionBackend` is that seam.

The engine talks to the backend through six methods:

* dataset management: :meth:`load_table`, :meth:`scan_table`,
  :meth:`drop_table` (keyed by stream GUID -- streams are immutable per
  GUID, so a bulk update loads a *new* GUID);
* execution: :meth:`execute` runs one optimized plan and returns the
  same :class:`~repro.executor.executor.ExecutionResult` shape regardless
  of backend -- result rows plus per-operator observed statistics.  It
  is also the one view path: a view is built only by executing a
  :class:`~repro.plan.logical.Spool` (the paper's online
  materialization, §2.4) and read only by executing a
  :class:`~repro.plan.logical.ViewScan`;
* :meth:`drop_view` (keyed by view path).  The lifecycle manager calls it
  when GC or a purge cascade collects a view, so an external backend
  never leaks tables for views the catalog has dropped.

Reuse decisions stay *above* this interface: the view store, signature
catalog, and insights service never see backend objects, which is what
makes reuse decisions (and the catalog digest) backend-invariant.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence

from repro.common.errors import ConfigError
from repro.executor.executor import ExecutionResult
from repro.faults.runtime import NULL_FAULTS
from repro.plan.expressions import Row
from repro.plan.logical import LogicalPlan


class ExecutionBackend(ABC):
    """Storage plus execution for one engine; see the module docstring."""

    #: Registry key; subclasses override.
    name: str = "abstract"
    #: The session's fault runtime (:mod:`repro.faults`).  Inert by
    #: default; ``Session(faults=...)`` installs a live runtime so the
    #: execute/materialize/scan/drop seams can be perturbed.
    faults = NULL_FAULTS

    # ------------------------------------------------------------------ #
    # datasets (streams)

    @abstractmethod
    def load_table(self, schema, guid: str, rows: Sequence[Row]) -> None:
        """Load one immutable stream version under ``guid``.

        ``schema`` is the :class:`~repro.catalog.schema.TableSchema` of
        the dataset; external backends use its column types.
        """

    @abstractmethod
    def scan_table(self, guid: str) -> List[Row]:
        """Read back every row of one stream version."""

    @abstractmethod
    def drop_table(self, guid: str) -> None:
        """Drop one stream version (stale GUIDs beyond the keep window)."""

    # ------------------------------------------------------------------ #
    # execution

    @abstractmethod
    def execute(self, plan: LogicalPlan) -> ExecutionResult:
        """Run one optimized plan.

        Spool operators must materialize their child under the spool's
        view path *and* flow the rows onward (the paper's two-consumer
        spool); ViewScan operators read previously materialized views.
        The returned :class:`ExecutionResult` carries per-node statistics
        keyed by the plan's node objects, in post-order.
        """

    # ------------------------------------------------------------------ #
    # materialized views

    @abstractmethod
    def drop_view(self, view_id: str) -> None:
        """Drop one materialized view's storage; a no-op when absent.

        Lifecycle purge/GC calls this for every collected view -- on an
        external backend this must drop the real table, or purge
        cascades would leak storage the catalog no longer tracks.
        """

    # ------------------------------------------------------------------ #
    # lifecycle

    def close(self) -> None:
        """Release backend resources (connections, files)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# --------------------------------------------------------------------- #
# the two built-in backends

#: ``name -> the options it takes``.
_OPTIONS: Dict[str, Sequence[str]] = {"memory": (),
                                       "sqlite": ("sqlite_path",)}


def backend_names() -> List[str]:
    """The backend names, sorted (CLI ``--backend`` choices)."""
    return sorted(_OPTIONS)


def create_backend(name: str, **options) -> ExecutionBackend:
    """Instantiate a backend by name: ``sqlite`` takes ``sqlite_path``
    (omitted, the database lives in memory), ``memory`` no option.  An
    unknown name, or an option the backend does not take, is refused."""
    if name not in _OPTIONS:
        raise ConfigError(
            f"unknown execution backend {name!r}; "
            f"available: {', '.join(backend_names())}")
    refused = sorted(set(options) - set(_OPTIONS[name]))
    if refused:
        raise ConfigError(f"the {name} backend takes no option "
                          f"{', '.join(refused)}")
    # Imported here: both implementations import this module.
    from repro.backends.memory import InMemoryBackend
    from repro.backends.sqlite.backend import SqliteBackend

    if name == "sqlite":
        return SqliteBackend(path=options.get("sqlite_path"))
    return InMemoryBackend()
