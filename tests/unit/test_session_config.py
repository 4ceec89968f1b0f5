"""One spelling per ``Session`` setting.

``SessionConfig`` holds only the shard deployment; every other setting is
a ``Session`` keyword.  The frozen end-to-end harness builds its session
as ``SessionConfig()`` plus an assigned ``.shard`` and the keywords, so
that pattern is pinned here.  The runtime version is engine state: an
upgrade on one session never reaches another that shares its config.
"""

import os
import shutil
import tempfile

import pytest

from repro.api import Session
from repro.backends import InMemoryBackend, SqliteBackend
from repro.catalog import schema_of
from repro.common.errors import ConfigError
from repro.config import SessionConfig
from repro.core import MultiLevelControls
from repro.engine.engine import RUNTIME_VERSION, EngineConfig
from repro.lifecycle import LifecycleConfig
from repro.lifecycle.journal import WAL_FILE
from repro.scheduler.scheduler import SchedulerConfig
from repro.shard import ShardConfig
from repro.simulation import SimulationConfig

SQL = "SELECT Day, SUM(Value) AS total FROM Events GROUP BY Day"


def harness_session(config, lifecycle=None, scheduler_config=None):
    """``Session`` built the way ``benchmarks/e2e/harness.py`` builds it."""
    controls = MultiLevelControls()
    controls.enable_vc("default")
    return Session(config=config, backend="sqlite", controls=controls,
                   selection_algorithm="bigsubs",
                   policy=SimulationConfig().policy,
                   scheduler_config=scheduler_config, lifecycle=lifecycle)


def run_one_job(session):
    session.register_table(
        schema_of("Events", [("Day", "str"), ("Value", "float")]),
        [dict(Day=f"d{i % 3}", Value=float(i)) for i in range(30)])
    assert session.run(SQL).ok


class TestFrozenHarnessPattern:
    def test_sharded_durable_session_journals_per_shard(self, tmp_path):
        # AF_UNIX paths cap at ~107 characters; keep the sockets short.
        sockets = tempfile.mkdtemp(prefix="repro-")
        journal = str(tmp_path / "journal")
        try:
            config = SessionConfig()
            config.shard = ShardConfig(shards=2, socket_dir=sockets)
            session = harness_session(
                config, lifecycle=LifecycleConfig(journal_dir=journal),
                scheduler_config=SchedulerConfig(workers=2))
            try:
                assert all(map(session.supervisor.is_alive, range(2)))
                assert session.scheduler.config.workers == 2
                run_one_job(session)
            finally:
                session.close()
        finally:
            shutil.rmtree(sockets, ignore_errors=True)
        assert sorted(os.listdir(journal)) == ["shard-00", "shard-01"]
        for shard in ("shard-00", "shard-01"):
            assert os.path.isfile(os.path.join(journal, shard, WAL_FILE))

    def test_no_scheduler_config_and_no_lifecycle(self):
        with harness_session(SessionConfig()) as session:
            assert session.supervisor is None
            assert session.lifecycle is None
            assert session.scheduler.config == SchedulerConfig()
            assert isinstance(session.backend, SqliteBackend)
            run_one_job(session)


class TestResolveShard:
    def test_default_is_in_process(self):
        for config in (None, SessionConfig(),
                       SessionConfig(shard=ShardConfig(shards=0))):
            with Session(config=config) as session:
                assert session.supervisor is None

    def test_negative_shards_rejected(self):
        with pytest.raises(ConfigError):
            ShardConfig(shards=-1)

    def test_a_missing_socket_dir_is_created_and_kept(self, tmp_path):
        sockets = tmp_path / "new"
        config = SessionConfig(shard=ShardConfig(shards=1,
                                                 socket_dir=str(sockets)))
        with Session(config=config) as session:
            assert session.supervisor.is_alive(0)
            run_one_job(session)
        assert sockets.is_dir()


class TestSessionPrecedence:
    def test_backend_name_selects_the_backend(self):
        with Session(backend="sqlite") as session:
            assert isinstance(session.backend, SqliteBackend)
        with Session() as session:
            assert isinstance(session.backend, InMemoryBackend)

    def test_backend_instance_passes_through(self):
        backend = InMemoryBackend()
        with Session(backend=backend) as session:
            assert session.backend is backend

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigError):
            Session(backend="postgres")


class TestRuntimeVersion:
    def test_an_upgrade_stays_in_its_own_session(self):
        engine_config = EngineConfig()
        for shared in (dict(engine_config=engine_config),
                       dict(config=SessionConfig())):
            with Session(**shared) as a, Session(**shared) as b:
                a.handle_runtime_upgrade("scope-r2")
                assert a.engine.signature_salt == "scope-r2"
                assert b.engine.runtime_version == RUNTIME_VERSION
                assert b.engine.signature_salt == "scope-r1"
