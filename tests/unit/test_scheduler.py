"""Unit tests for the wave scheduler and the repro.api facade."""

import threading
import time

import pytest

from repro.api import JobResult, Session
from repro.catalog import schema_of
from repro.common.errors import (
    BindError,
    CatalogError,
    ConfigError,
    ParseError,
)
from repro.engine import ScopeEngine
from repro.optimizer.context import Annotation
from repro.plan import PlanBuilder, normalize
from repro.plan.logical import Join
from repro.scheduler import (
    JobRequest,
    JobScheduler,
    SchedulerConfig,
)
from repro.signatures import enumerate_subexpressions
from repro.sql import parse

SQL = ("SELECT CustomerId, SUM(Price) AS s FROM Sales JOIN Customer "
       "WHERE MktSegment = 'Asia' GROUP BY CustomerId")


def install_tables(engine):
    engine.register_table(
        schema_of("Sales", [("CustomerId", "int"), ("Price", "float"),
                            ("Day", "str")]),
        [dict(CustomerId=i % 5, Price=float(i), Day="d0")
         for i in range(50)])
    engine.register_table(
        schema_of("Customer", [("CustomerId", "int"), ("MktSegment", "str")]),
        [dict(CustomerId=i, MktSegment="Asia" if i % 2 else "Europe")
         for i in range(5)])


def annotate_join(engine, sql=SQL):
    from repro.optimizer.rules import apply_rewrites
    plan = normalize(apply_rewrites(
        PlanBuilder(engine.catalog).build(parse(sql))))
    subs = enumerate_subexpressions(plan, engine.signature_salt)
    join = max((s for s in subs if isinstance(s.plan, Join)),
               key=lambda s: s.height)
    engine.insights.publish([Annotation(join.recurring, join.tag)])


@pytest.fixture
def engine():
    eng = ScopeEngine()
    install_tables(eng)
    return eng


class TestSchedulerConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(workers=0),
    ])
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ConfigError):
            SchedulerConfig(**kwargs)


class TestBatches:
    def test_results_in_submission_order_with_deterministic_ids(self, engine):
        results = JobScheduler(engine, SchedulerConfig(workers=4)).drain(
            [JobRequest(sql=SQL) for _ in range(8)], now=0.0)
        assert [r.job_id for r in results] == \
            [f"job-{i}" for i in range(1, 9)]
        assert all(r.ok for r in results)
        rows = [sorted(map(repr, r.rows)) for r in results]
        assert all(r == rows[0] for r in rows)

    def test_per_job_isolation(self, engine):
        requests = [JobRequest(sql=SQL),
                    JobRequest(sql="SELECT Nope FROM Missing"),
                    JobRequest(sql=SQL)]
        results = JobScheduler(engine, SchedulerConfig(workers=3)).drain(
            requests, now=0.0)
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].error
        assert results[1].error_type
        assert results[1].rows == []

    def test_one_buildout_per_wave_via_lock_table(self, engine):
        annotate_join(engine)
        results = JobScheduler(engine, SchedulerConfig(workers=4)).drain(
            [JobRequest(sql=SQL) for _ in range(4)], now=0.0)
        # Exactly one of the concurrent jobs won the view lock and built;
        # views seal at the barrier, so none reused within the wave.
        assert sum(r.views_built for r in results) == 1
        assert engine.view_store.total_created == 1
        # The lock was released by early sealing.
        assert engine.insights.held_locks() == {}

    def test_next_wave_reuses_previous_waves_views(self, engine):
        annotate_join(engine)
        scheduler = JobScheduler(engine, SchedulerConfig(workers=4))
        scheduler.drain([JobRequest(sql=SQL)], now=0.0)
        results = scheduler.drain(
            [JobRequest(sql=SQL) for _ in range(3)], now=10.0)
        assert all(r.views_reused == 1 for r in results)

    def test_reuse_gate_disables_per_virtual_cluster(self, engine):
        annotate_join(engine)
        scheduler = JobScheduler(
            engine, SchedulerConfig(workers=2),
            reuse_gate=lambda vc: vc != "frozen")
        results = scheduler.drain(
            [JobRequest(sql=SQL, virtual_cluster="frozen"),
             JobRequest(sql=SQL, virtual_cluster="hot")], now=0.0)
        assert results[0].reuse_enabled is False
        assert results[0].views_built == 0
        assert results[1].views_built == 1


class TestWaveBarrier:
    """A wave is a barrier: nothing of it is sealed while a sibling may
    still be compiling, whatever the thread count."""

    BROKEN = 3  # position of the failing job in the wave

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_seal_before_every_sibling_executed(self, engine,
                                                   monkeypatch, workers):
        annotate_join(engine)
        executed, at_first_seal = [], []
        execute, seal = engine.execute, engine.view_store.seal

        def spy_execute(compiled, now=0.0):
            # Yield the GIL, so a drain that seals as futures resolve
            # gets its chance to run beside the siblings.
            time.sleep(0.005)
            run = execute(compiled, now=now)
            executed.append(compiled.job_id)
            return run

        def spy_seal(*args, **kwargs):
            at_first_seal.append(sorted(executed))
            return seal(*args, **kwargs)

        monkeypatch.setattr(engine, "execute", spy_execute)
        monkeypatch.setattr(engine.view_store, "seal", spy_seal)
        requests = [JobRequest(sql=SQL) for _ in range(8)]
        requests[self.BROKEN] = JobRequest(sql="SELECT Nope FROM Missing")
        scheduler = JobScheduler(engine, SchedulerConfig(workers=workers))
        results = scheduler.drain(requests, now=0.0)

        # The failing job neither stopped the barrier nor its siblings'
        # completion pass.
        assert [r.ok for r in results] == [
            index != self.BROKEN for index in range(8)]
        healthy = sorted(r.job_id for r in results if r.ok)
        assert at_first_seal == [healthy]  # one view, sealed after all 7
        assert [r.views_reused for r in results] == [0] * 8
        assert sum(len(r.sealed_views) for r in results) == 1
        # A second full wave reuses what the first one built.
        again = scheduler.drain(
            [JobRequest(sql=SQL) for _ in range(8)], now=10.0)
        assert [r.views_reused for r in again] == [1] * 8


    def test_earliest_proposer_builds_whatever_the_thread_timing(
            self, engine, monkeypatch):
        """Build locks are taken in submission order: a first job that
        compiles slowly still builds the view (and the view lands under
        *its* virtual cluster), its siblings do not."""
        annotate_join(engine)
        compile_job = engine.compile

        def slow_first_compile(sql, **kwargs):
            if kwargs["job_id"] == "job-1":
                time.sleep(0.05)  # a sibling on a thread would overtake
            return compile_job(sql, **kwargs)

        monkeypatch.setattr(engine, "compile", slow_first_compile)
        results = JobScheduler(engine, SchedulerConfig(workers=4)).drain(
            [JobRequest(sql=SQL, virtual_cluster=f"vc{index}")
             for index in range(4)], now=0.0)
        assert [r.views_built for r in results] == [1, 0, 0, 0]
        [view] = engine.view_store.views()
        assert view.virtual_cluster == "vc0"


class TestConcurrentCallers:
    """A ``Session`` has one caller: every public entry refuses any other
    thread with ``ConfigError``, before touching anything."""

    def test_a_second_thread_gets_config_error_and_changes_nothing(self):
        entries = sorted(name for name in vars(Session)
                         if not name.startswith("_")) + ["__enter__"]
        with Session() as session:
            install_tables(session.engine)
            [first] = session.run_batch(
                [JobRequest(sql=SQL, template_id="solo")])
            before = (session.catalog_digest(),
                      [job.job_id for job in session.repository.jobs],
                      session.scheduler.waves, len(session.selections))
            outcomes = {}

            def call_every_entry():
                for name in entries:
                    try:
                        value = getattr(session, name)
                        if callable(value):
                            value()
                    except Exception as error:  # the test asserts on it
                        outcomes[name] = error

            caller = threading.Thread(target=call_every_entry)
            caller.start()
            caller.join(timeout=60)
            assert not caller.is_alive()
            assert set(outcomes) == set(entries)
            for name, error in outcomes.items():
                assert isinstance(error, ConfigError), (name, error)
                assert str(error) == ("a Session has one caller; "
                                      "use one Session per thread")
            assert (session.catalog_digest(),
                    [job.job_id for job in session.repository.jobs],
                    session.scheduler.waves,
                    len(session.selections)) == before
            # The owner's next batch picks up where its last one ended.
            [result] = session.run_batch(
                [JobRequest(sql=SQL, template_id="solo")])
        assert first.job_id == "job-1"
        assert result.ok and result.job_id == "job-2"
        assert [job.template_id for job in session.repository.jobs] == \
            ["solo", "solo"]


class TestSessionFacade:
    @pytest.mark.parametrize("sql, error_type, message", [
        ("SELECT Nope FROM Missing", CatalogError,
         "unknown dataset 'Missing'"),
        ("SELECT Nope FROM Sales", BindError, "unknown column 'Nope'"),
        ("SELEC x", ParseError, "expected SELECT, got 'SELEC' "
         "(line 1, column 1)"),
    ])
    def test_run_raises_the_jobs_own_error_and_records_nothing(
            self, sql, error_type, message):
        """``Session.run`` hands a failing job's error straight to its
        caller; the job is not a wave and the repository files nothing."""
        with Session() as session:
            install_tables(session.engine)
            with pytest.raises(error_type) as raised:
                session.run(sql, now=5.0)
            assert session.scheduler.waves == 0
            assert session.repository.jobs == []
        assert type(raised.value) is error_type
        assert str(raised.value) == message

    def test_run_and_run_batch_share_job_result_shape(self):
        with Session() as session:
            install_tables(session.engine)
            single = session.run(SQL, now=0.0)
            batch = session.run_batch([SQL, SQL], now=1.0)
        assert single.ok and all(r.ok for r in batch)
        assert type(single) is type(batch[0]) is JobResult
        assert single.rows == batch[0].rows
        assert [r.job_id for r in batch] == ["job-2", "job-3"]

    def test_batch_failures_do_not_raise(self):
        with Session() as session:
            install_tables(session.engine)
            results = session.run_batch(
                [SQL, "SELECT Nope FROM Missing"], now=0.0)
        assert [r.ok for r in results] == [True, False]

    def test_feedback_loop_through_session(self):
        from repro.core.controls import MultiLevelControls
        from repro.selection.policies import SelectionPolicy

        controls = MultiLevelControls()
        controls.enable_vc("default")
        with Session(controls=controls,
                     policy=SelectionPolicy(min_reuses_per_epoch=0.0)
                     ) as session:
            install_tables(session.engine)
            session.run(SQL, now=0.0)
            session.run(SQL, now=1.0)
            selection = session.analyze_and_publish()
            assert selection.considered > 0
            later = session.run(SQL, now=10.0)
            reuse_round = session.run(SQL, now=20.0)
        assert later.views_built >= 1
        assert reuse_round.views_reused >= 1
        assert session.views_created >= 1

    def test_a_sweep_between_jobs_keeps_the_live_view(self, tmp_path):
        """README's lifecycle quick-start: a sweep is a step at the
        caller's ``now``, so a view a week from expiry survives it and
        the next recurring job still reuses it."""
        from repro.api import LifecycleConfig
        from repro.core.controls import MultiLevelControls
        from repro.selection.policies import SelectionPolicy

        controls = MultiLevelControls()
        controls.enable_vc("default")
        with Session(controls=controls,
                     policy=SelectionPolicy(min_reuses_per_epoch=0.0),
                     lifecycle=LifecycleConfig(
                         journal_dir=str(tmp_path / "journal"))) as session:
            install_tables(session.engine)
            session.run(SQL, now=0.0)
            session.run(SQL, now=1.0)
            session.analyze_and_publish()
            built = session.run(SQL, now=10.0)
            swept = session.gc_sweep(now=15.0)
            reuse_round = session.run(SQL, now=20.0)
        assert swept.total_collected == 0
        assert built.views_built >= 1
        assert reuse_round.views_reused == 1

    def test_unknown_selection_algorithm_raises(self):
        with pytest.raises(ConfigError):
            Session(selection_algorithm="magic")

    def test_catalog_digest_stable_across_equivalent_sessions(self):
        from repro.core.controls import MultiLevelControls
        from repro.selection.policies import SelectionPolicy

        def build():
            controls = MultiLevelControls()
            controls.enable_vc("default")
            with Session(controls=controls,
                         policy=SelectionPolicy(min_reuses_per_epoch=0.0)
                         ) as session:
                install_tables(session.engine)
                session.run(SQL, now=0.0)
                session.run(SQL, now=1.0)
                session.analyze_and_publish()
                session.run(SQL, now=10.0)
                digest = session.catalog_digest()
                assert session.views_created >= 1
                return digest
        assert build() == build()


class TestSessionShutdown:
    def test_close_flushes_journal(self, tmp_path):
        """Session.close() must leave nothing behind: the catalog journal
        is snapshotted with its WAL truncated and closed."""
        import os

        from repro.api import LifecycleConfig
        from repro.core.controls import MultiLevelControls
        from repro.selection.policies import SelectionPolicy

        journal_dir = str(tmp_path / "journal")
        controls = MultiLevelControls()
        controls.enable_vc("default")
        session = Session(
            controls=controls,
            policy=SelectionPolicy(min_reuses_per_epoch=0.0),
            lifecycle=LifecycleConfig(journal_dir=journal_dir))
        install_tables(session.engine)
        session.run(SQL, now=0.0)
        session.run(SQL, now=1.0)
        session.analyze_and_publish()
        session.run(SQL, now=10.0)
        assert session.views_created >= 1

        session.close()

        journal = session.lifecycle.journal.partitions[0]
        assert journal._wal is None  # WAL handle closed
        # The shutdown snapshot captured every view; the WAL is empty.
        assert os.path.getsize(journal.wal_path) == 0
        with open(journal.snapshot_path, encoding="utf-8") as handle:
            import json
            payload = json.load(handle)
        assert len(payload["views"]) >= 1

    def test_close_is_reentrant_with_lifecycle(self, tmp_path):
        from repro.api import LifecycleConfig

        session = Session(lifecycle=LifecycleConfig(
            journal_dir=str(tmp_path / "journal")))
        install_tables(session.engine)
        session.run(SQL, now=0.0)
        session.close()
        journal = session.lifecycle.journal.partitions[0]
        session.close()  # second close must not raise or reopen anything
        assert journal._wal is None

    def test_close_reaches_the_shards_past_a_failing_step(self, monkeypatch):
        """A close step that raises (here the backend's) must not strand
        the shard processes behind it."""
        from repro.api import SessionConfig, ShardConfig

        session = Session(config=SessionConfig(shard=ShardConfig(shards=2)))
        install_tables(session.engine)
        assert session.run(SQL).ok

        def refuse():
            raise RuntimeError("backend close failed")

        monkeypatch.setattr(session.backend, "close", refuse)
        with pytest.raises(RuntimeError, match="backend close failed"):
            session.close()
        assert not any(map(session.supervisor.is_alive, range(2)))
        session.close()  # idempotent: nothing left to tear down or raise

    @pytest.mark.parametrize("shards", [2, 0])
    def test_a_failing_constructor_strands_nothing(self, shards, tmp_path):
        """Whatever ``Session(...)`` had built when a later step raised --
        shard processes and their socket directory, the SQLite connection
        -- is closed before the error leaves the constructor."""
        import multiprocessing
        import os
        import sqlite3

        from repro.api import SessionConfig, ShardConfig
        from repro.backends import create_backend

        class FailingRecorder:
            engine = None

            def install(self, engine):
                self.engine = engine
                raise RuntimeError("install failed")

        recorder = FailingRecorder()
        backend = create_backend("sqlite",
                                 sqlite_path=str(tmp_path / "views.db"))
        # Children alive before the constructor are not this session's:
        # a process stranded by another test must fail that test, not
        # this one.
        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="install failed"):
            Session(config=SessionConfig(shard=ShardConfig(shards=shards)),
                    backend=backend, recorder=recorder)
        assert set(multiprocessing.active_children()) - before == set()
        with pytest.raises(sqlite3.ProgrammingError):  # connection closed
            recorder.engine.backend._conn.execute("SELECT 1")
        if shards:
            supervisor = recorder.engine.insights.service.supervisor
            assert not os.path.exists(supervisor._dir)

