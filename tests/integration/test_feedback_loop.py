"""Integration tests: the complete CloudViews feedback loop.

Covers the Figure-5 flow end to end: workload observation -> analysis ->
selection -> insights publication -> compile-time buildout -> online
materialization with early sealing -> compile-time matching -> correct
results -> invalidation.
"""

import pytest

from repro.api import Session
from repro.catalog import schema_of
from repro.core import MultiLevelControls
from repro.obs import FlightRecorder
from repro.obs.events import JOB_COMPILED
from repro.selection import SelectionPolicy


def result_set(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


@pytest.fixture
def cloudviews():
    cv = Session(
        controls=_enabled_controls(),
        policy=SelectionPolicy(storage_budget_bytes=10_000_000,
                               min_reuses_per_epoch=0.0),
        selection_algorithm="bigsubs",
        recorder=FlightRecorder(),
    )
    engine = cv.engine
    engine.register_table(
        schema_of("Events", [("UserId", "int"), ("Day", "str"),
                             ("Value", "float")]),
        [dict(UserId=i % 7, Day="d0", Value=float(i)) for i in range(80)])
    engine.register_table(
        schema_of("Users", [("UserId", "int"), ("Segment", "str")]),
        [dict(UserId=i, Segment="Asia" if i % 2 else "Europe")
         for i in range(7)])
    return cv


def compiled_costs(session, job):
    """(estimated cost, cost without reuse) as the job's last
    ``job.compiled`` event carries them."""
    [*_, event] = (e for e in session.engine.recorder.events.events(
        kind=JOB_COMPILED) if e.job_id == job.job_id)
    return (event.attrs["estimated_cost"],
            event.attrs["estimated_cost_without_reuse"])


def _enabled_controls():
    controls = MultiLevelControls()
    controls.enable_vc("vc1")
    return controls


Q1 = ("SELECT UserId, SUM(Value) AS total FROM Events JOIN Users "
      "WHERE Segment = 'Asia' AND Day = @run GROUP BY UserId")
Q2 = ("SELECT Segment, COUNT(*) AS n FROM Events JOIN Users "
      "WHERE Segment = 'Asia' AND Day = @run GROUP BY Segment")
PARAMS = {"run": "d0"}
VC1 = dict(params=PARAMS, virtual_cluster="vc1")
VC2 = dict(params=PARAMS, virtual_cluster="vc2")


class TestFullLoop:
    def test_observe_select_build_reuse(self, cloudviews):
        # Round 1: observe the workload (no reuse possible yet).
        r1 = cloudviews.run(Q1, **VC1, template_id="t1", now=0.0)
        r2 = cloudviews.run(Q2, **VC1, template_id="t2", now=1.0)
        assert r1.compiled.built_views == 0

        # Feedback: analyze and publish selections.
        selection = cloudviews.analyze_and_publish()
        assert selection.selected

        # Round 2: the first job materializes, the second reuses.
        r3 = cloudviews.run(Q1, **VC1, template_id="t1", now=10.0)
        r4 = cloudviews.run(Q2, **VC1, template_id="t2", now=11.0)
        assert r3.compiled.built_views >= 1
        assert r4.compiled.reused_views >= 1

        # Correctness: reuse changes nothing about the answers.
        assert result_set(r3.rows) == result_set(r1.rows)
        assert result_set(r4.rows) == result_set(r2.rows)

    def test_reuse_across_different_queries(self, cloudviews):
        cloudviews.run(Q1, **VC1, template_id="t1", now=0.0)
        cloudviews.run(Q2, **VC1, template_id="t2", now=1.0)
        cloudviews.analyze_and_publish()
        cloudviews.run(Q1, **VC1, template_id="t1", now=10.0)
        run = cloudviews.run(Q2, **VC1, template_id="t2", now=11.0)
        # Q2 reuses a view built by Q1 -- cross-query sharing.
        assert run.compiled.reused_views >= 1

    def test_first_job_pays_materialization_overhead(self, cloudviews):
        cloudviews.run(Q1, **VC1, template_id="t1", now=0.0)
        cloudviews.run(Q2, **VC1, template_id="t2", now=1.0)
        cloudviews.analyze_and_publish()
        builder = cloudviews.run(Q1, **VC1, template_id="t1", now=10.0)
        # Section 2.4 "User expectations": the builder's plan costs more
        # than the plain plan would (spool write overhead).
        cost, cost_without_reuse = compiled_costs(cloudviews, builder)
        assert cost > cost_without_reuse

    def test_reuser_is_cheaper(self, cloudviews):
        cloudviews.run(Q1, **VC1, template_id="t1", now=0.0)
        cloudviews.run(Q2, **VC1, template_id="t2", now=1.0)
        cloudviews.analyze_and_publish()
        cloudviews.run(Q1, **VC1, template_id="t1", now=10.0)
        reuser = cloudviews.run(Q2, **VC1, template_id="t2", now=11.0)
        cost, cost_without_reuse = compiled_costs(cloudviews, reuser)
        assert cost < cost_without_reuse

    def test_bulk_update_stops_reuse_then_rebuilds(self, cloudviews):
        cloudviews.run(Q1, **VC1, template_id="t1", now=0.0)
        cloudviews.run(Q2, **VC1, template_id="t2", now=1.0)
        cloudviews.analyze_and_publish()
        cloudviews.run(Q1, **VC1, template_id="t1", now=10.0)

        cloudviews.engine.bulk_update(
            "Events",
            [dict(UserId=i % 7, Day="d0", Value=float(i * 2))
             for i in range(90)], at=20.0)
        rebuilt = cloudviews.run(Q1, **VC1, template_id="t1", now=21.0)
        assert rebuilt.compiled.reused_views == 0
        assert rebuilt.compiled.built_views >= 1  # just-in-time rebuild

    def test_views_counted(self, cloudviews):
        cloudviews.run(Q1, **VC1, template_id="t1", now=0.0)
        cloudviews.run(Q2, **VC1, template_id="t2", now=1.0)
        cloudviews.analyze_and_publish()
        cloudviews.run(Q1, **VC1, template_id="t1", now=10.0)
        cloudviews.run(Q2, **VC1, template_id="t2", now=11.0)
        assert cloudviews.views_created >= 1
        assert cloudviews.views_reused >= 1
        assert cloudviews.storage_in_use(now=12.0) > 0

    def test_purge_stops_reuse(self, cloudviews):
        cloudviews.run(Q1, **VC1, template_id="t1", now=0.0)
        cloudviews.run(Q2, **VC1, template_id="t2", now=1.0)
        cloudviews.analyze_and_publish()
        builder = cloudviews.run(Q1, **VC1, template_id="t1", now=10.0)
        for signature in builder.sealed_views:
            cloudviews.purge_view(signature)
        run = cloudviews.run(Q2, **VC1, template_id="t2", now=11.0)
        assert run.compiled.reused_views == 0

    def test_eviction_frees_storage(self, cloudviews):
        cloudviews.engine.view_store.ttl_seconds = 50.0
        cloudviews.run(Q1, **VC1, template_id="t1", now=0.0)
        cloudviews.run(Q2, **VC1, template_id="t2", now=1.0)
        cloudviews.analyze_and_publish()
        cloudviews.run(Q1, **VC1, template_id="t1", now=10.0)
        assert cloudviews.storage_in_use(now=11.0) > 0
        evicted = cloudviews.evict_expired(now=1000.0)
        assert evicted >= 1
        assert cloudviews.storage_in_use(now=1000.0) == 0


class TestControlsIntegration:
    def test_disabled_vc_never_reuses(self, cloudviews):
        cloudviews.run(Q1, **VC2, template_id="t1", now=0.0)
        cloudviews.run(Q1, **VC2, template_id="t1", now=1.0)
        cloudviews.analyze_and_publish()
        run = cloudviews.run(Q1, **VC2, template_id="t1", now=10.0)
        assert run.compiled.built_views == 0
        assert run.compiled.reused_views == 0

    def test_job_override_disables_one_job(self, cloudviews):
        cloudviews.run(Q1, **VC1, template_id="t1", now=0.0)
        cloudviews.run(Q2, **VC1, template_id="t2", now=1.0)
        cloudviews.analyze_and_publish()
        run = cloudviews.run(Q1, **VC1, template_id="t1",
                             reuse_override=False, now=10.0)
        assert run.compiled.built_views == 0

    def test_service_kill_switch(self, cloudviews):
        cloudviews.run(Q1, **VC1, template_id="t1", now=0.0)
        cloudviews.run(Q2, **VC1, template_id="t2", now=1.0)
        cloudviews.analyze_and_publish()
        cloudviews.engine.insights.enabled = False
        run = cloudviews.run(Q1, **VC1, template_id="t1", now=10.0)
        assert run.compiled.built_views == 0
        assert run.compiled.reused_views == 0


class TestOneLoop:
    def test_the_loop_is_written_once(self):
        """Record job -> select -> publish exists in exactly one place
        (``Session``); the SparkCruise listener is the user-scheduled
        analysis job the paper keeps separate."""
        import ast
        from pathlib import Path

        import repro

        calls = {"record_job_into": [], "run_selection": [], "publish": []}
        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            if path.name == "sparkcruise.py":
                continue
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in ("record_job_into", "run_selection"):
                    calls[name].append(path.name)
                elif (name == "publish" and len(node.args) == 1
                      and isinstance(node.args[0], ast.Call)
                      and getattr(node.args[0].func, "attr", "")
                      == "annotations"):
                    calls["publish"].append(path.name)
        assert calls == {"record_job_into": ["api.py"],
                         "run_selection": ["api.py"],
                         "publish": ["api.py"]}
