"""One typed configuration object for the whole session.

Before this module, tuning a deployment meant threading unrelated kwarg
families (engine, scheduler, lifecycle) plus CLI flags; backend
selection would have been one more.  :class:`SessionConfig` gathers them
in one dataclass with a serializable dump
(:meth:`SessionConfig.to_dict`) for logging and bench provenance.  Its
fields (and the CLI flags that set them) are the one configuration
input; the environment is read only for ``REPRO_FAULTS`` (+ ``_SEED``),
by :class:`~repro.api.Session` itself.

``Session(config=SessionConfig(backend="sqlite"))`` is the one-stop
entry; the individual ``Session`` kwargs remain and override the
corresponding config fields when both are given.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.backends.base import ExecutionBackend, create_backend
from repro.engine.engine import EngineConfig
from repro.lifecycle.manager import LifecycleConfig
from repro.scheduler.scheduler import SchedulerConfig
from repro.selection.policies import SelectionPolicy
from repro.shard.supervisor import ShardConfig


@dataclass
class SessionConfig:
    """Everything a :class:`repro.api.Session` needs, in one place."""

    #: Execution backend name (``repro.backends.backend_names()``).
    backend: str = "memory"
    #: Database file for the SQLite backend; ``None`` = in-memory DB.
    sqlite_path: Optional[str] = None
    engine: EngineConfig = field(default_factory=EngineConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    lifecycle: Optional[LifecycleConfig] = None
    selection_algorithm: str = "greedy"
    selection_policy: Optional[SelectionPolicy] = None
    #: Fault-injection plan (:class:`~repro.faults.FaultPlan`, a plan
    #: string, or a pre-built runtime); ``None`` = injection disabled.
    faults: Optional[object] = None
    #: Shard worker processes for the insights service; 0 (default)
    #: keeps the classic in-process service.
    shards: int = 0
    #: Full deployment knobs (:class:`~repro.shard.ShardConfig`);
    #: overrides :attr:`shards` when given.
    shard: Optional[ShardConfig] = None

    def resolve_shard(self) -> Optional[ShardConfig]:
        """The effective shard deployment config, or ``None``."""
        if self.shard is not None and self.shard.shards > 0:
            return self.shard
        if self.shards:
            # ShardConfig is where a negative count is rejected.
            return ShardConfig(shards=self.shards)
        return None

    def to_dict(self) -> Dict[str, object]:
        """Plain-data dump for logs and benchmark provenance files."""
        return {f.name: _plain(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    def create_backend(self) -> ExecutionBackend:
        """Instantiate the configured execution backend."""
        return create_backend(self.backend, sqlite_path=self.sqlite_path)


def _plain(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)
