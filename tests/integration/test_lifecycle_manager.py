"""Integration tests: the view lifecycle manager on a live engine.

Covers the PR-5 tentpole end to end: lineage capture during the feedback
loop, GDPR purge cascades checked against an independently computed
lineage closure, bulk-update invalidation, runtime epoch bumps, and the
kill-and-recover guarantee (journal replay reproduces the pre-crash
catalog digest exactly).
"""

import pytest

from repro.api import Session
from repro.catalog import schema_of
from repro.cli import main
from repro.core import MultiLevelControls
from repro.engine import ScopeEngine
from repro.lifecycle import (
    CatalogJournal,
    LifecycleConfig,
    LifecycleManager,
    LineageRegistry,
)
from repro.obs import FlightRecorder
from repro.plan.logical import Scan, ViewScan
from repro.selection import SelectionPolicy
from repro.storage.views import ViewStore
from tests.unit.test_lifecycle_lineage import views_reading_guid


Q1 = ("SELECT UserId, SUM(Value) AS total FROM Events JOIN Users "
      "WHERE Segment = 'Asia' AND Day = @run GROUP BY UserId")
Q2 = ("SELECT Segment, COUNT(*) AS n FROM Events JOIN Users "
      "WHERE Segment = 'Asia' AND Day = @run GROUP BY Segment")
QE = ("SELECT Day, COUNT(*) AS n FROM Events WHERE Day = @run "
      "GROUP BY Day")
PARAMS = {"run": "d0"}
VC1 = dict(params=PARAMS, virtual_cluster="vc1")


def make_cloudviews():
    controls = MultiLevelControls()
    controls.enable_vc("vc1")
    cv = Session(
        controls=controls,
        policy=SelectionPolicy(storage_budget_bytes=10_000_000,
                               min_reuses_per_epoch=0.0),
        selection_algorithm="bigsubs",
    )
    cv.engine.register_table(
        schema_of("Events", [("UserId", "int"), ("Day", "str"),
                             ("Value", "float")]),
        [dict(UserId=i % 7, Day="d0", Value=float(i)) for i in range(80)])
    cv.engine.register_table(
        schema_of("Users", [("UserId", "int"), ("Segment", "str")]),
        [dict(UserId=i, Segment="Asia" if i % 2 else "Europe")
         for i in range(7)])
    return cv


@pytest.fixture
def managed(tmp_path):
    cv = make_cloudviews()
    manager = LifecycleManager(
        cv.engine, LifecycleConfig(journal_dir=str(tmp_path / "journal")))
    yield cv, manager
    manager.close()


def build_views(cv, queries=(Q1, Q2), start=0.0):
    """One full feedback-loop round: observe, publish, materialize."""
    now = start
    for i, sql in enumerate(queries, start=1):
        cv.run(sql, **VC1, template_id=f"t{i}", now=now)
        now += 1.0
    cv.analyze_and_publish()
    now += 10.0
    for i, sql in enumerate(queries, start=1):
        cv.run(sql, **VC1, template_id=f"t{i}", now=now)
        now += 1.0
    return now


def dataset_closure(view, store):
    """Independently compute the datasets a view transitively reads by
    walking its logical definition (not the lineage registry)."""
    datasets = set()
    stack = [view.definition]
    while stack:
        plan = stack.pop()
        if plan is None:
            continue
        for node in plan.walk():
            if isinstance(node, Scan):
                datasets.add(node.dataset)
            elif isinstance(node, ViewScan):
                base = store.get(node.signature)
                if base is not None:
                    stack.append(base.definition)
    return datasets


def sealed_views(store):
    return [v for v in store.views() if v.sealed and not v.purged]


class TestLineageCapture:
    def test_built_views_have_recorded_lineage(self, managed):
        cv, manager = managed
        build_views(cv)
        views = sealed_views(cv.engine.view_store)
        assert views
        for view in views:
            recorded = {d for d, _ in manager.lineage.inputs_of(
                view.signature)}
            assert recorded
            assert recorded == dataset_closure(view, cv.engine.view_store)

    def test_lineage_guid_matches_catalog(self, managed):
        cv, manager = managed
        build_views(cv)
        events_guid = cv.engine.catalog.current_guid("Events")
        assert views_reading_guid(manager.lineage, "Events", events_guid) \
            == manager.lineage.views_reading_dataset("Events")


class TestGdprForget:
    def test_purges_all_and_only_dependents_of_the_stream(self, managed):
        cv, manager = managed
        # QE rides under two templates so its Events-only subexpression
        # recurs and gets selected alongside the Events-Users join.
        build_views(cv, queries=(Q1, Q2, QE, QE))
        store = cv.engine.view_store
        before = sealed_views(store)
        # Independent ground truth: walk every view's logical plan.
        expected = {v.signature for v in before
                    if "Users" in dataset_closure(v, store)}
        spared = {v.signature for v in before} - expected
        assert expected, "workload must yield Users-reading views"
        assert spared, "workload must yield views not reading Users"

        purged_count = manager.forget_stream("Users", at=100.0)

        actually_purged = {v.signature for v in store.views() if v.purged}
        assert actually_purged == expected  # all and only
        assert purged_count == len(expected)
        for signature in spared:
            assert not store.get(signature).purged

    def test_forget_bumps_insights_generation(self, managed):
        cv, manager = managed
        build_views(cv)
        generation = cv.engine.insights.generation
        assert manager.forget_stream("Users", at=100.0) > 0
        assert cv.engine.insights.generation > generation

    def test_engine_gdpr_forget_triggers_the_same_cascade(self, managed):
        cv, manager = managed
        build_views(cv)
        store = cv.engine.view_store
        dependents = manager.lineage.views_reading_dataset("Users")
        assert dependents
        cv.engine.gdpr_forget("Users", lambda row: row["UserId"] != 3,
                              at=100.0)
        for signature in dependents:
            assert store.get(signature).purged

    def test_rebuilt_views_reflect_forgotten_rows(self, managed):
        cv, manager = managed
        build_views(cv)
        cv.engine.gdpr_forget("Users", lambda row: row["UserId"] != 1,
                              at=100.0)
        # Next round rebuilds over the new stream; user 1 is gone.
        run = cv.run(Q1, **VC1, template_id="t1", now=110.0)
        assert all(row["UserId"] != 1 for row in run.rows)


class TestBulkUpdateCascade:
    def test_stale_guid_dependents_are_purged(self, managed):
        cv, manager = managed
        build_views(cv)
        store = cv.engine.view_store
        dependents = manager.lineage.views_reading_dataset("Events")
        assert dependents
        cv.engine.bulk_update(
            "Events",
            [dict(UserId=i % 7, Day="d0", Value=1.0) for i in range(40)],
            at=100.0)
        for signature in dependents:
            assert store.get(signature).purged
        assert manager.cascades >= 1

    def test_purged_views_no_longer_match(self, managed):
        cv, manager = managed
        build_views(cv)
        reused_before = cv.engine.view_store.counters()["total_reused"]
        cv.engine.bulk_update(
            "Events",
            [dict(UserId=i % 7, Day="d0", Value=1.0) for i in range(40)],
            at=100.0)
        run = cv.run(Q1, **VC1, template_id="t1", now=110.0)
        assert run.compiled.reused_views == 0
        assert cv.engine.view_store.counters()["total_reused"] \
            == reused_before


class TestEpochBump:
    def test_bump_darkens_everything(self, managed):
        cv, manager = managed
        build_views(cv)
        assert cv.engine.insights.annotation_count() > 0
        old_version = cv.engine.runtime_version

        version = manager.bump_epoch(at=100.0)

        assert cv.engine.runtime_version == version != old_version
        assert manager.epoch == 1
        assert cv.engine.insights.annotation_count() == 0
        assert all(v.purged for v in cv.engine.view_store.views())

    def test_loop_recovers_after_bump(self, managed):
        cv, manager = managed
        build_views(cv)
        manager.bump_epoch(at=100.0)
        # The feedback loop re-selects and rebuilds under the new salt.
        end = build_views(cv, start=200.0)
        run = cv.run(Q1, **VC1, template_id="t1", now=end)
        assert run.compiled.reused_views >= 1


class TestPurgeView:
    def test_purge_view_retracts_annotation_and_lock(self, managed):
        cv, manager = managed
        build_views(cv)
        insights = cv.engine.insights
        view = next(v for v in sealed_views(cv.engine.view_store)
                    if v.recurring_signature)
        count = insights.annotation_count()
        insights.acquire_view_lock(view.signature, holder="job-z")

        cv.purge_view(view.signature)

        assert cv.engine.view_store.get(view.signature).purged
        assert insights.annotation_count() == count - 1
        assert insights.lock_holder(view.signature) is None


class TestKillAndRecover:
    def test_wal_replay_reproduces_digest(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        cv = make_cloudviews()
        manager = LifecycleManager(
            cv.engine, LifecycleConfig(journal_dir=journal_dir))
        build_views(cv)
        cv.engine.view_store.purge(
            sealed_views(cv.engine.view_store)[0].signature)
        digest = cv.engine.view_store.catalog_digest()
        counters = cv.engine.view_store.counters()
        lineage = manager.lineage.snapshot()
        # Crash: no close(), no snapshot -- the WAL is all that survives.

        recovered = make_cloudviews()
        manager2 = LifecycleManager(
            recovered.engine, LifecycleConfig(journal_dir=journal_dir))
        try:
            assert recovered.engine.view_store.catalog_digest() == digest
            assert recovered.engine.view_store.counters() == counters
            assert manager2.lineage.snapshot() == lineage
            assert manager2.last_recovery.wal_ops > 0
            assert manager2.last_recovery.snapshot_views == 0
        finally:
            manager2.close()

    def test_snapshot_plus_wal_tail_reproduces_digest(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        cv = make_cloudviews()
        manager = LifecycleManager(
            cv.engine, LifecycleConfig(journal_dir=journal_dir))
        build_views(cv)
        manager.snapshot()
        # Post-snapshot mutations land only in the WAL tail.
        end = build_views(cv, queries=(QE,), start=100.0)
        cv.run(Q1, **VC1, template_id="t1", now=end)
        digest = cv.engine.view_store.catalog_digest()
        counters = cv.engine.view_store.counters()
        # Crash.

        recovered = make_cloudviews()
        manager2 = LifecycleManager(
            recovered.engine, LifecycleConfig(journal_dir=journal_dir))
        try:
            assert recovered.engine.view_store.catalog_digest() == digest
            assert recovered.engine.view_store.counters() == counters
            assert manager2.last_recovery.snapshot_views > 0
        finally:
            manager2.close()

    def test_recovered_lineage_still_cascades(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        cv = make_cloudviews()
        manager = LifecycleManager(
            cv.engine, LifecycleConfig(journal_dir=journal_dir))
        build_views(cv)
        dependents = set(manager.lineage.views_reading_dataset("Users"))
        assert dependents
        # Crash, then recover into a *fresh* engine whose catalog has no
        # datasets registered: the forget must run purely off recovered
        # lineage.
        from repro.engine import ScopeEngine
        engine = ScopeEngine()
        manager2 = LifecycleManager(
            engine, LifecycleConfig(journal_dir=journal_dir))
        try:
            purged = manager2.forget_stream("Users", at=100.0)
            assert purged == len(dependents)
            for signature in dependents:
                assert engine.view_store.get(signature).purged
        finally:
            manager2.close()


class TestCliGc:
    @pytest.fixture
    def populated_journal(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        cv = make_cloudviews()
        manager = LifecycleManager(
            cv.engine, LifecycleConfig(journal_dir=journal_dir))
        build_views(cv)
        store = cv.engine.view_store
        manager.close()
        return journal_dir, store

    def test_stats_prints_recovered_catalog(self, populated_journal,
                                            capsys):
        journal_dir, store = populated_journal
        assert main(["gc", "--journal-dir", journal_dir,
                     "--stats", "--now", "0"]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "views_total" in out

    def test_forget_purges_from_recovered_lineage(self, populated_journal,
                                                  capsys):
        journal_dir, store = populated_journal
        dependents = sum(
            1 for v in store.views()
            if not v.purged)  # every view in this workload reads Events
        assert main(["gc", "--journal-dir", journal_dir,
                     "--forget", "Events", "--now", "50"]) == 0
        out = capsys.readouterr().out
        assert f"purged {dependents} dependent view(s)" in out

    def test_sweep_reports_collection(self, populated_journal, capsys):
        journal_dir, _ = populated_journal
        assert main(["gc", "--journal-dir", journal_dir,
                     "--forget", "Events", "--now", "50"]) == 0
        capsys.readouterr()
        assert main(["gc", "--journal-dir", journal_dir,
                     "--sweep", "--now", "60"]) == 0
        out = capsys.readouterr().out
        assert "sweep: expired" in out
        assert "reclaimed 0 bytes" not in out  # the purged views' bytes

    def test_sweep_needs_the_callers_now(self, populated_journal, capsys):
        """The catalog's clock is the caller's: no wall-clock default."""
        journal_dir, _ = populated_journal
        with pytest.raises(SystemExit) as exited:
            main(["gc", "--journal-dir", journal_dir, "--sweep"])
        assert exited.value.code == 2
        assert "--now" in capsys.readouterr().err

    def test_bump_epoch_via_cli(self, populated_journal, capsys):
        journal_dir, _ = populated_journal
        assert main(["gc", "--journal-dir", journal_dir,
                     "--bump-epoch", "--now", "50"]) == 0
        assert "runtime epoch bumped" in capsys.readouterr().out


class TestTheSmallestJournals:
    """A journal that holds one thing -- one snapshot view, or one WAL op
    -- is a journal that recovered something: the boundary of
    ``RecoveryReport.recovered_anything`` and of the snapshot cadence."""

    @pytest.fixture(params=["one snapshot view", "one wal op"])
    def journal_dir(self, request, tmp_path):
        store = ViewStore(ttl_seconds=100.0)
        store.begin_materialize("s1", "views/s1", ("a",), "vc1", now=0.0)
        journal = CatalogJournal(str(tmp_path))
        if request.param == "one snapshot view":
            journal.snapshot({**store.dump(), "epoch": 0,
                              "lineage": LineageRegistry().snapshot(),
                              "runtime_version": ""})
        else:
            journal.append("created", view=store.get("s1").catalog_record(),
                           lineage=[])
            journal.commit()
        journal.close()
        return str(tmp_path)

    def test_it_is_reported_as_recovered(self, journal_dir):
        recorder = FlightRecorder()
        manager = LifecycleManager(ScopeEngine(recorder=recorder),
                                   LifecycleConfig(journal_dir=journal_dir))
        try:
            report = manager.last_recovery
            assert (report.snapshot_views, report.wal_ops) in ((1, 0), (0, 1))
            assert report.views_restored == 1
            assert recorder.events.counts().get("journal.recovered") == 1
        finally:
            manager.close()

    def test_repro_gc_prints_it(self, journal_dir, capsys):
        assert main(["gc", "--journal-dir", journal_dir,
                     "--stats", "--now", "0"]) == 0
        assert f"recovered 1 view(s) from {journal_dir}" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("every", [1, 2, 3])
    def test_a_snapshot_lands_on_exactly_the_nth_op(self, tmp_path, every):
        engine = ScopeEngine()
        manager = LifecycleManager(engine, LifecycleConfig(
            journal_dir=str(tmp_path), snapshot_every_ops=every))
        journal, store = manager.journal, engine.view_store
        try:
            store.begin_materialize("s1", "views/s1", ("a",), "vc1", now=0.0)
            store.seal("s1", now=1.0, row_count=2, size_bytes=16)
            for _ in range(5):
                store.record_reuse("s1")
            # Seven ops, one record each.
            assert journal.snapshots_written == 7 // every
            assert journal.ops_since_snapshot == 7 % every
        finally:
            manager.close()
