"""Integration tests: chaos campaigns and end-to-end failure hardening.

The PR-9 tentpole: every injected fault in the reuse path must degrade
to plain recomputation -- never a failed job, never a wrong row, never a
catalog that cannot recover.  These tests drive the campaign runner the
CI ``chaos`` job uses, the kill-mid-CTAS restart probe, the torn-WAL
recovery event, and the repeated-failure quarantine path.
"""

import os

import pytest

from repro.api import Session
from repro.cli import main
from repro.core import MultiLevelControls
from repro.engine.engine import QUARANTINE_FAILURES
from repro.faults import FaultPlan, FaultRuntime, FaultSpec, points
from repro.faults.chaos import (
    campaign_plan,
    check_ctas_crash_recovery,
    run_campaign,
    run_workload,
)
from repro.lifecycle import LifecycleConfig
from repro.obs import FlightRecorder
from repro.selection import SelectionPolicy


class TestCampaigns:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_campaign_invariants_hold(self, backend):
        report = run_campaign([0, 1], backend=backend, days=2)
        assert report.ok, report.summary()
        assert report.reference_jobs > 0
        # The harness must actually inject something, or the invariants
        # are vacuous.
        assert any(s.fired.get("fired_total", 0) > 0 for s in report.seeds)

    def test_fault_free_reference_is_one_outcome_on_every_deployment(self):
        """Waves are barriers, so what the reference builds and reuses is
        a function of the workload alone -- and it does reuse, or the
        view-scan faults would have nothing to hit."""
        outcomes = {
            (backend, shards): run_workload(backend, days=2, shards=shards)
            for backend in ("memory", "sqlite") for shards in (0, 2)}
        assert all(not o.failures for o in outcomes.values())
        assert {(o.live_digest, o.views_created, o.views_reused)
                for o in outcomes.values()} == {
            (outcomes["memory", 0].live_digest, 2, 3)}
        assert all(o.recovered_digest == o.live_digest
                   for o in outcomes.values())

    def test_a_reference_without_reuse_is_refused(self):
        with pytest.raises(AssertionError, match="reused no view"):
            run_campaign([0], days=1)

    def test_campaign_plans_are_reproducible(self):
        assert campaign_plan(3).to_json() == campaign_plan(3).to_json()
        assert campaign_plan(3).to_json() != campaign_plan(4).to_json()

    def test_sharded_plan_extends_classic_without_reordering(self):
        classic = campaign_plan(3).specs
        sharded = campaign_plan(3, shards=2).specs
        assert sharded[:len(classic)] == classic
        extra = sharded[len(classic):]
        assert extra and all(s.point.startswith("shard.") for s in extra)

    def test_sharded_campaign_survives_kills_and_shard_faults(self):
        # Seed 5's sharded plan draws shard.death:crash, so this run
        # covers injected SIGKILLs at the router *and* the scripted
        # kill+restart at every faulted day boundary.
        report = run_campaign([5], backend="memory", days=2, shards=2)
        assert report.ok, report.summary()
        assert "shard." in report.seeds[0].plan
        assert report.seeds[0].fired.get("fired_total", 0) > 0

    def test_memory_fires_mid_materialize_on_the_spool_path(self):
        """Seed 5 draws ``backend.materialize.mid:crash``.  On memory the
        point used to fire only in a view door no job took: 0 arrivals,
        where SQLite's CTAS had 3.  Each Spool now fires it on both."""
        report = run_campaign([5], backend="memory", days=2)
        assert report.ok, report.summary()
        (seed,) = report.seeds
        assert points.BACKEND_MATERIALIZE_MID in seed.fired["fired"]

    def test_cli_chaos_passes(self, capsys):
        assert main(["chaos", "--seed", "0", "--backend", "memory",
                     "--days", "2"]) == 0
        out = capsys.readouterr().out
        assert "chaos campaign PASS" in out

    def test_cli_chaos_plan_only(self, capsys):
        assert main(["chaos", "--plan", "--seed", "0..2"]) == 0
        out = capsys.readouterr().out
        assert out.count("seed ") == 3

    def test_cli_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_SEEDS", "5")
        assert main(["chaos", "--plan", "--seed", "0..4"]) == 0
        out = capsys.readouterr().out
        assert out.count("seed ") == 1 and "seed 5:" in out


class TestKillMidCtas:
    def test_restart_shows_no_partially_visible_view(self, tmp_path):
        verdict = check_ctas_crash_recovery(str(tmp_path / "chaos.db"))
        assert "no partially visible view" in verdict


class TestTornTailRecovery:
    def test_session_recovers_past_torn_tail_and_records_event(
            self, tmp_path):
        journal_dir = str(tmp_path)
        # A first session writes real catalog state through the journal.
        first = Session(lifecycle=LifecycleConfig(journal_dir=journal_dir))
        first.register_table(_schema(), _rows())
        first.run("SELECT Day, COUNT(*) AS n FROM Events GROUP BY Day",
                  virtual_cluster="vc1")
        first.close()
        # Crash mid-append: the WAL gains a torn trailing line.
        with open(os.path.join(journal_dir, "wal.jsonl"), "a",
                  encoding="utf-8") as handle:
            handle.write('{"op": "reused", "signa')
        recorder = FlightRecorder()
        second = Session(lifecycle=LifecycleConfig(journal_dir=journal_dir),
                         recorder=recorder)
        counts = recorder.events.counts()
        assert counts.get("journal.torn_tail", 0) == 1
        assert recorder.metrics.counters["journal.torn_tails"] == 1
        second.close()


class TestQuarantine:
    def test_repeatedly_unreadable_view_is_quarantined(self):
        controls = MultiLevelControls()
        controls.enable_vc("vc1")
        recorder = FlightRecorder()
        session = Session(
            backend="memory",
            controls=controls,
            selection_algorithm="bigsubs",
            policy=SelectionPolicy(storage_budget_bytes=10_000_000,
                                   min_reuses_per_epoch=0.0),
            recorder=recorder,
        )
        session.register_table(_schema(), _rows())
        sql = ("SELECT Day, SUM(Value) AS total FROM Events "
               "GROUP BY Day")
        expected = None
        for _ in range(2):
            result = session.run(sql, virtual_cluster="vc1",
                                 template_id="t-quarantine")
            expected = sorted(map(repr, result.rows))
            session.analyze_and_publish()
        # Build the view cleanly, then make every read of it fail.
        result = session.run(sql, virtual_cluster="vc1",
                             template_id="t-quarantine")
        assert session.views_created >= 1
        session.faults = FaultRuntime(FaultPlan(specs=[
            FaultSpec(points.BACKEND_SCAN_VIEW, "storage")]))
        session.backend.faults = session.faults
        for _ in range(QUARANTINE_FAILURES + 1):
            result = session.run(sql, virtual_cluster="vc1",
                                 template_id="t-quarantine")
            # Degraded, never wrong: the reuse-free fallback recomputes.
            assert sorted(map(repr, result.rows)) == expected
        assert recorder.metrics.counters["engine.views.quarantined"] >= 1
        assert recorder.events.counts().get("view.quarantined", 0) >= 1
        assert recorder.events.counts().get("execute.reuse_fallback",
                                            0) >= 1
        session.close()


def _schema():
    from repro.catalog import schema_of
    return schema_of("Events", [("UserId", "int"), ("Day", "str"),
                                ("Value", "float")])


def _rows():
    return [dict(UserId=i % 5, Day=f"d{i % 3}", Value=float(i))
            for i in range(30)]
