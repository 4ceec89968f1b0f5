"""Integration tests: per-shard WAL durability and merge-on-read recovery.

PR-5's kill-and-recover guarantee, re-proved against the sharded
deployment: every catalog mutation lands in the owning shard's WAL
(flushed per append), so SIGKILLing every worker process loses nothing
acknowledged, and :func:`merged_offline_recovery` rebuilds the *global*
catalog digest from the ``shard-NN`` journals -- for any shard count,
including the classic single-journal layout it falls back to.
"""

import os

import pytest

from repro.api import Session
from repro.catalog import schema_of
from repro.cli import main
from repro.common.errors import ConfigError
from repro.config import SessionConfig
from repro.core import MultiLevelControls
from repro.history import recover
from repro.lifecycle import LifecycleConfig
from repro.lifecycle.lineage import LineageRegistry
from repro.selection import SelectionPolicy
from repro.shard import ShardConfig, merged_offline_recovery
from repro.storage.views import ViewStore

SQL = ("SELECT Day, SUM(Value) AS total FROM Events "
       "WHERE Day = @run GROUP BY Day")


def make_session(journal_dir, shards):
    controls = MultiLevelControls()
    controls.enable_vc("vc1")
    return Session(
        config=SessionConfig(shard=ShardConfig(shards=shards)),
        controls=controls,
        selection_algorithm="bigsubs",
        policy=SelectionPolicy(storage_budget_bytes=10_000_000,
                               min_reuses_per_epoch=0.0),
        lifecycle=LifecycleConfig(journal_dir=journal_dir),
    )


def build_state(session):
    """Two feedback-loop rounds: builds views, seals them, reuses one."""
    session.register_table(
        schema_of("Events", [("UserId", "int"), ("Day", "str"),
                             ("Value", "float")]),
        [dict(UserId=i % 7, Day=f"d{i % 2}", Value=float(i))
         for i in range(40)])
    for _ in range(3):
        for day in ("d0", "d1"):
            session.run(SQL, params={"run": day}, virtual_cluster="vc1",
                        template_id=f"t-{day}")
        session.analyze_and_publish()
    assert session.views_created > 0


class TestShardedKillAndRecover:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sigkill_then_merged_wal_replay_reproduces_digest(
            self, tmp_path, shards):
        journal_dir = str(tmp_path / "journal")
        session = make_session(journal_dir, shards)
        try:
            build_state(session)
            digest = session.catalog_digest()
            counters = session.engine.view_store.counters()
            # The journal really is partitioned: one WAL dir per shard.
            layout = sorted(name for name in os.listdir(journal_dir)
                            if name.startswith("shard-"))
            assert layout == [f"shard-{i:02d}" for i in range(shards)]
            # Crash: SIGKILL every worker.  No snapshot, no goodbye --
            # the per-shard WALs are all that survives.
            for shard_id in range(shards):
                session.supervisor.kill(shard_id)
            store = ViewStore()
            report = merged_offline_recovery(journal_dir, store,
                                             LineageRegistry())
            assert store.catalog_digest() == digest
            assert store.counters() == counters
            assert report.wal_ops > 0
        finally:
            session.close()

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_second_session_recovers_and_keeps_reusing(self, tmp_path,
                                                       shards):
        journal_dir = str(tmp_path / "journal")
        first = make_session(journal_dir, shards)
        try:
            build_state(first)
            digest = first.catalog_digest()
        finally:
            first.close()
        second = make_session(journal_dir, shards)
        try:
            assert second.catalog_digest() == digest
            assert second.lifecycle.last_recovery.recovered_anything
        finally:
            second.close()

    def test_offline_merge_falls_back_to_classic_layout(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        session = make_session(journal_dir, shards=0)
        try:
            build_state(session)
            digest = session.catalog_digest()
        finally:
            session.close()
        assert not any(name.startswith("shard-")
                       for name in os.listdir(journal_dir))
        store = ViewStore()
        merged_offline_recovery(journal_dir, store, LineageRegistry())
        assert store.catalog_digest() == digest


class TestOneLayoutPerDirectory:
    """A journal directory holds one layout: ``repro gc`` opens the one
    on disk, and a session configured for the other refuses it."""

    def test_gc_acts_on_a_sharded_directory(self, tmp_path, capsys):
        journal_dir = str(tmp_path / "journal")
        session = make_session(journal_dir, shards=2)
        try:
            build_state(session)
            views = len(session.engine.view_store.views())
        finally:
            session.close()
        digest = recover(journal_dir)
        assert main(["gc", "--journal-dir", journal_dir,
                     "--stats", "--now", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"recovered {views} view(s)")
        stats = dict(line.split(None, 1) for line in out.splitlines()[1:])
        assert (stats["views_total"], stats["journal_shards"]) == (
            str(views), "2")
        assert recover(journal_dir) == digest
        assert main(["gc", "--journal-dir", journal_dir,
                     "--forget", "Events", "--now", "0"]) == 0
        assert f"purged {views} dependent" in capsys.readouterr().out
        assert sorted(os.listdir(journal_dir)) == ["shard-00", "shard-01"]
        reopened = make_session(journal_dir, shards=2)
        try:
            assert all(v.purged
                       for v in reopened.engine.view_store.views())
            assert reopened.catalog_digest() == recover(journal_dir)
        finally:
            reopened.close()

    @pytest.mark.parametrize("first,second,found", [
        (0, 2, "holds a classic journal .* a sharded one is configured"),
        (2, 0, r"holds sharded WALs \(shard-00, shard-01\) but a classic"),
    ])
    def test_a_session_refuses_the_other_layout(self, tmp_path, first,
                                                second, found):
        journal_dir = str(tmp_path / "journal")
        session = make_session(journal_dir, first)
        try:
            build_state(session)
        finally:
            session.close()
        on_disk = sorted(os.listdir(journal_dir))
        with pytest.raises(ConfigError, match=found):
            make_session(journal_dir, second)
        assert sorted(os.listdir(journal_dir)) == on_disk
