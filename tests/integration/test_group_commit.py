"""Integration tests: group commit -- the acknowledged step is the unit
of durability (DESIGN §12).

The lifecycle manager holds the journal's records while a commit group
is open (a scheduler wave, ``Session.run``, a cascade, a sweep) and
writes them as one frame per owning shard when it closes.  Two things
must not move: what a SIGKILL at a step boundary leaves on disk (the
step-boundary oracle below), and the bytes a torn record leaves in the
WAL, wherever in a frame it falls.
"""

import json
import os
import sys

import pytest

from repro.api import Session
from repro.backends.differential import oracle_config, oracle_workload
from repro.common.errors import ShardError, StorageError
from repro.common.hashing import shard_for
from repro.engine import ScopeEngine
from repro.faults import FaultPlan, FaultRuntime, FaultSpec, points
from repro.faults.chaos import WORKLOAD_SEED, chaos_history
from repro.history import apply, recover, replay
from repro.config import SessionConfig
from repro.lifecycle import CatalogJournal, LifecycleConfig, LifecycleManager
from repro.lifecycle.journal import JournalFile
from repro.lifecycle.lineage import LineageRegistry
from repro.obs import FlightRecorder
from repro.scheduler import JobRequest, JobScheduler, SchedulerConfig
from repro.shard import ShardConfig, merged_offline_recovery
from repro.shard.journal import RemoteJournal, ShardedCatalogJournal
from repro.shard.worker import ShardWorker, WorkerSpec
from repro.storage.views import ViewStore
from repro.workload.generator import generate_workload
from tests.properties.test_journal_recovery import InProcessRouter
from tests.unit.test_scheduler import SQL, annotate_join, install_tables

RECORDS = [("reused", {"signature": "s1"}),
           ("purged", {"reason": "test", "signature": "s2"}),
           ("removed", {"reason": "gc", "signature": "s3"})]


def torn_second_append():
    """A fault runtime that tears the second ``journal.append`` only."""
    return FaultRuntime(FaultPlan(specs=(FaultSpec(
        points.JOURNAL_APPEND, "torn", max_fires=1, after=1),), seed=0))


def wal_bytes(directory):
    with open(os.path.join(directory, "wal.jsonl"), "rb") as handle:
        return handle.read()


def append_all(journal, commit_each=False):
    """Append :data:`RECORDS`; only the second one tears."""
    journal.faults = torn_second_append()
    for index, (op, payload) in enumerate(RECORDS):
        if index == 1:
            with pytest.raises(StorageError, match="torn"):
                journal.append(op, **payload)
        else:
            journal.append(op, **payload)
        if commit_each:
            journal.commit()


def per_record_wal(directory):
    """The reference: every record appended and committed on its own."""
    journal = CatalogJournal(str(directory))
    append_all(journal, commit_each=True)
    journal.close()
    return wal_bytes(directory)


class TestTornRecordInsideAFrame:
    def test_classic_frame_writes_the_per_record_bytes(self, tmp_path):
        journal = CatalogJournal(str(tmp_path / "framed"))
        append_all(journal)
        # Nothing reaches the file until commit.
        assert not os.path.exists(journal.partitions[0].wal_path)
        journal.commit()
        journal.close()
        assert wal_bytes(journal.directory) == per_record_wal(
            tmp_path / "per-record")
        reopened = JournalFile(journal.directory)
        assert [op["op"] for op in reopened.wal_ops()] == [
            "reused", "removed"]
        assert reopened.last_scan_torn == 1
        assert journal.ops_written == 2

    def test_shard_worker_frame_op_writes_the_per_record_bytes(
            self, tmp_path):
        directory = str(tmp_path / "shard-00")
        worker = ShardWorker(WorkerSpec(
            shard_id=0, state_dir=str(tmp_path / "state"),
            journal_dir=directory))
        frame = [[json.dumps({"op": op, **payload}, sort_keys=True),
                  index == 1] for index, (op, payload) in enumerate(RECORDS)]
        # Arguments cross the socket as JSON.
        worker.handle("journal_append",
                      json.loads(json.dumps({"records": frame})))
        worker.journal.close()
        assert wal_bytes(directory) == per_record_wal(tmp_path / "reference")
        assert [op["op"] for op in JournalFile(directory).wal_ops()] == [
            "reused", "removed"]

    @pytest.mark.parametrize("shards", [0, 2])
    def test_a_group_recovers_all_but_the_torn_record_and_counts_it_once(
            self, tmp_path, shards):
        journal_dir = str(tmp_path / "journal")
        with Session(config=SessionConfig(shard=ShardConfig(shards=shards)),
                     lifecycle=LifecycleConfig(journal_dir=journal_dir),
                     faults=torn_second_append()) as session:
            manager, store = session.lifecycle, session.engine.view_store
            with manager.commit_group():
                for signature in ("s1", "s2", "s3"):
                    store.begin_materialize(signature, f"views/{signature}",
                                            ("a",), "vc1", now=0.0)
                assert manager.journal_errors == 1  # raised at append time
                assert recover(journal_dir) == ViewStore().catalog_digest()
            assert manager.journal_errors == 1
            recovered = ViewStore()
            report = merged_offline_recovery(journal_dir, recovered,
                                             LineageRegistry())
        assert sorted(v.signature for v in recovered.views()) == ["s1", "s3"]
        assert report.torn_lines == 1
        assert report.skipped == []


@pytest.mark.parametrize("shards", [0, 2])
def test_history_is_durable_at_every_step_boundary(tmp_path, shards):
    """A SIGKILL between two steps loses nothing acknowledged: after
    every step of the chaos history, the journal on disk recovers the
    live catalog."""
    history = chaos_history(oracle_workload("chaos", WORKLOAD_SEED), 3)
    journal_dir = str(tmp_path / "journal")
    config = oracle_config("sqlite", shards=shards, workers=2)
    with config.open_session(lifecycle=LifecycleConfig(
            journal_dir=journal_dir, snapshot_every_ops=32)) as session:
        for index, step in enumerate(history):
            apply([step], session)
            assert recover(journal_dir) == session.catalog_digest(), (
                f"step {index} ({step[0]}) acknowledged records the "
                f"journal does not hold")
        assert session.views_reused > 0


class FlakyRouter(InProcessRouter):
    """Two in-process shard workers; ``journal_append`` frames sent to
    a shard in :attr:`down` fail as an unreachable worker's would."""

    def __init__(self, root):
        super().__init__(root)
        self.down = set()

    def call(self, shard_id, method, **params):
        if method == "journal_append" and shard_id in self.down:
            raise ShardError(f"shard {shard_id} unreachable")
        return super().call(shard_id, method, **params)


def test_a_failed_frame_counts_its_records_and_the_next_snapshot_heals(
        tmp_path):
    router = FlakyRouter(str(tmp_path))
    journal_dir = str(tmp_path / "journal")
    engine = ScopeEngine(recorder=FlightRecorder())
    manager = LifecycleManager(
        engine, LifecycleConfig(journal_dir=journal_dir),
        journal=ShardedCatalogJournal(router))
    owned = {shard: [sig for sig in (f"sig-{n}" for n in range(64))
                     if shard_for(sig, 2) == shard][:2]
             for shard in (0, 1)}
    router.down = {0}
    with manager.commit_group():
        for signature in owned[0] + owned[1][:1]:
            engine.view_store.begin_materialize(
                signature, f"views/{signature}", ("a",), "vc1", now=0.0)
    # Shard 0's frame (two records) failed; shard 1's still landed.
    assert manager.journal_errors == 2
    assert engine.recorder.metrics.counters["journal.write_errors"] == 2
    recovered = ViewStore()
    merged_offline_recovery(journal_dir, recovered, LineageRegistry())
    assert [v.signature for v in recovered.views()] == owned[1][:1]
    router.down = set()
    manager.snapshot()
    assert recover(journal_dir) == engine.view_store.catalog_digest()
    manager.close()


def test_a_scheduler_left_on_an_exception_closes_its_wave_group(
        tmp_path, monkeypatch):
    """A wave whose completion pass raises must not hold the manager's
    commit group open: every later record would wait for some other
    step.  What the wave journaled before the error still commits."""
    engine = ScopeEngine()
    install_tables(engine)
    annotate_join(engine)
    journal_dir = str(tmp_path / "journal")
    manager = LifecycleManager(engine,
                               LifecycleConfig(journal_dir=journal_dir))

    def fail(run, at):
        raise RuntimeError("the completion pass failed")

    monkeypatch.setattr(engine, "finish", fail)
    with pytest.raises(RuntimeError, match="completion pass failed"):
        JobScheduler(engine, SchedulerConfig(workers=2)).drain(
            [JobRequest(sql=SQL)])
    assert manager._groups == []
    assert engine.view_store.views()  # the job ran and began its build
    assert recover(journal_dir) == engine.view_store.catalog_digest()
    manager.close()


def test_a_burst_journals_the_same_frames_every_run(tmp_path, monkeypatch):
    """Commit frames are reproducible: a wave's jobs run one after another
    on the draining thread, so two replays of one burst-shaped history
    (SQLite, two shards, a journal, a 10 us switch interval to shake
    thread timing) hand the journal the same records in the same order
    and send each shard the same frames."""
    records, frames = [], []
    append_record, commit = CatalogJournal.append_record, RemoteJournal.commit

    def spy_append(journal, op, payload):
        records[-1].append((op, json.dumps(payload, sort_keys=True)))
        return append_record(journal, op, payload)

    def spy_commit(remote, frame):
        frames[-1].setdefault(remote.shard_id, []).append(json.dumps(frame))
        return commit(remote, frame)

    monkeypatch.setattr(CatalogJournal, "append_record", spy_append)
    monkeypatch.setattr(RemoteJournal, "commit", spy_commit)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for run in range(2):
            records.append([])
            frames.append({})
            history = chaos_history(generate_workload(
                name="chaos", seed=WORKLOAD_SEED, virtual_clusters=2,
                templates_per_vc=8, fact_rows_per_day=240,
                adhoc_per_day=2), 3)
            config = oracle_config("sqlite", shards=2, workers=2)
            with config.open_session(lifecycle=LifecycleConfig(
                    journal_dir=str(tmp_path / f"run-{run}"))) as session:
                replay(history, session)
    finally:
        sys.setswitchinterval(interval)
    assert records[0] == records[1]
    assert frames[0] == frames[1]
    assert len(records[0]) > 50
    assert sorted(frames[0]) == [0, 1]
