"""SessionConfig: serialization, shard resolution, and the
kwarg-overrides-config precedence contract of ``Session``.
"""

import pytest

from repro.api import Session
from repro.backends import InMemoryBackend, SqliteBackend
from repro.common.errors import ConfigError
from repro.config import SessionConfig
from repro.engine.engine import EngineConfig
from repro.scheduler.scheduler import SchedulerConfig
from repro.shard import ShardConfig


class TestToDict:
    def test_round_trips_to_plain_data(self):
        dumped = SessionConfig(backend="sqlite").to_dict()
        assert dumped["backend"] == "sqlite"
        assert isinstance(dumped["engine"], dict)
        assert isinstance(dumped["scheduler"], dict)
        # Must be JSON-serializable all the way down.
        import json
        json.dumps(dumped)

    def test_shard_config_dumps_as_plain_data(self):
        import json
        dumped = SessionConfig(
            shard=ShardConfig(shards=2, restart_dead=False)).to_dict()
        assert dumped["shard"]["shards"] == 2
        assert dumped["shard"]["restart_dead"] is False
        json.dumps(dumped)


class TestResolveShard:
    def test_default_is_in_process(self):
        assert SessionConfig().resolve_shard() is None

    def test_shards_count_builds_default_deployment(self):
        resolved = SessionConfig(shards=4).resolve_shard()
        assert resolved.shards == 4
        assert resolved.restart_dead is True

    def test_full_shard_config_wins_over_count(self):
        config = SessionConfig(
            shards=8, shard=ShardConfig(shards=2, restart_dead=False))
        resolved = config.resolve_shard()
        assert resolved.shards == 2
        assert resolved.restart_dead is False

    def test_disabled_shard_config_falls_back_to_count(self):
        config = SessionConfig(shards=3, shard=ShardConfig(shards=0))
        assert config.resolve_shard().shards == 3

    def test_negative_shards_rejected(self):
        with pytest.raises(ConfigError):
            ShardConfig(shards=-1)
        with pytest.raises(ConfigError):
            SessionConfig(shards=-1).resolve_shard()

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ConfigError):
            ShardConfig(shards=2, start_method="teleport")


class TestSessionPrecedence:
    def test_config_selects_backend(self):
        with Session(config=SessionConfig(backend="sqlite")) as session:
            assert isinstance(session.backend, SqliteBackend)

    def test_backend_kwarg_overrides_config(self):
        config = SessionConfig(backend="sqlite")
        with Session(config=config, backend="memory") as session:
            assert isinstance(session.backend, InMemoryBackend)

    def test_backend_instance_passes_through(self):
        backend = InMemoryBackend()
        with Session(backend=backend) as session:
            assert session.backend is backend

    def test_engine_config_kwarg_overrides_config(self):
        config = SessionConfig(engine=EngineConfig(view_ttl_seconds=10.0))
        override = EngineConfig(view_ttl_seconds=99.0)
        with Session(config=config, engine_config=override) as session:
            assert session.engine.config.view_ttl_seconds == 99.0

    def test_scheduler_config_comes_from_config(self):
        config = SessionConfig(scheduler=SchedulerConfig(workers=2))
        with Session(config=config) as session:
            assert session.scheduler.config.workers == 2

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigError):
            Session(backend="postgres")
