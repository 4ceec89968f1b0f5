"""One typed configuration object for the whole session.

Before this module, tuning a deployment meant threading four unrelated
kwarg families (engine, scheduler, insights client, lifecycle) plus CLI
flags; backend selection would have been a fifth.  :class:`SessionConfig`
gathers them in one dataclass with environment loading
(:meth:`SessionConfig.from_env`) and a serializable dump
(:meth:`SessionConfig.to_dict`) for logging and bench provenance.

``Session(config=SessionConfig(backend="sqlite"))`` is the one-stop
entry; the individual ``Session`` kwargs remain and override the
corresponding config fields when both are given.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.backends.base import ExecutionBackend, create_backend
from repro.common.errors import ConfigError
from repro.engine.engine import EngineConfig
from repro.faults.plan import FaultPlan
from repro.insights.client import InsightsClientConfig
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
    client: Optional[InsightsClientConfig] = None
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

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None
                 ) -> "SessionConfig":
        """Build a config from ``REPRO_*`` environment variables.

        Recognized: ``REPRO_BACKEND``, ``REPRO_SQLITE_PATH``,
        ``REPRO_WORKERS``, ``REPRO_VIEW_TTL``, ``REPRO_SELECTION``,
        ``REPRO_SHARDS``, ``REPRO_JOURNAL_DIR``,
        ``REPRO_STORAGE_BUDGET``, ``REPRO_FAULTS``
        (+ ``REPRO_FAULTS_SEED``).  Unset variables keep their defaults;
        a numeric one that does not parse, or is below its minimum,
        raises :class:`~repro.common.errors.ConfigError` naming it.
        """
        env = os.environ if environ is None else environ
        config = cls()
        config.faults = FaultPlan.from_env(env)
        if env.get("REPRO_BACKEND"):
            config.backend = env["REPRO_BACKEND"]
        if env.get("REPRO_SQLITE_PATH"):
            config.sqlite_path = env["REPRO_SQLITE_PATH"]
        workers = _env_number(env, "REPRO_WORKERS", int, minimum=1)
        if workers is not None:
            config.scheduler = dataclasses.replace(
                config.scheduler, workers=workers)
        view_ttl = _env_number(env, "REPRO_VIEW_TTL", float, minimum=0)
        if view_ttl is not None:
            config.engine.view_ttl_seconds = view_ttl
        if env.get("REPRO_SELECTION"):
            config.selection_algorithm = env["REPRO_SELECTION"]
        config.shards = _env_number(env, "REPRO_SHARDS", int, minimum=0) or 0
        journal_dir = env.get("REPRO_JOURNAL_DIR")
        budget = _env_number(env, "REPRO_STORAGE_BUDGET", int, minimum=0)
        if journal_dir or budget is not None:
            config.lifecycle = LifecycleConfig(
                journal_dir=journal_dir, storage_budget_bytes=budget)
        return config

    def to_dict(self) -> Dict[str, object]:
        """Plain-data dump for logs and benchmark provenance files."""
        return {f.name: _plain(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    def create_backend(self) -> ExecutionBackend:
        """Instantiate the configured execution backend."""
        return create_backend(self.backend, sqlite_path=self.sqlite_path)


def _env_number(env: Dict[str, str], name: str, parse, minimum):
    """``env[name]`` as a number, ``None`` when unset or empty."""
    raw = env.get(name)
    if not raw:
        return None
    try:
        value = parse(raw)
    except ValueError:
        value = None
    if value is None or not value >= minimum:
        raise ConfigError(
            f"{name} must be {parse.__name__} >= {minimum}, got {raw!r}")
    return value


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
