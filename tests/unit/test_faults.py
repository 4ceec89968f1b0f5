"""Unit tests for the unified fault-injection framework (repro.faults)."""

import pytest

from repro.common.errors import (
    ConfigError,
    InjectedCrash,
    InsightsTimeout,
    StorageError,
    TransientBackendError,
)
from repro.faults import (
    NO_FAULT,
    NULL_FAULTS,
    FaultPlan,
    FaultRuntime,
    FaultSpec,
    points,
    resolve_faults,
)
from repro.faults.chaos import campaign_plan


class TestFaultSpecValidation:
    def test_unknown_point_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault point"):
            FaultSpec("backend.telepathy", "crash")

    def test_unsupported_kind_rejected(self):
        with pytest.raises(ConfigError, match="not valid at"):
            FaultSpec(points.BACKEND_EXECUTE, "torn")

    def test_probability_bounds(self):
        with pytest.raises(ConfigError, match="probability"):
            FaultSpec(points.INSIGHTS_RPC, "drop", probability=1.5)
        with pytest.raises(ConfigError, match="probability"):
            FaultSpec(points.INSIGHTS_RPC, "drop", probability=-0.1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError, match="max_fires"):
            FaultSpec(points.INSIGHTS_RPC, "drop", max_fires=-1)
        with pytest.raises(ConfigError, match="after"):
            FaultSpec(points.INSIGHTS_RPC, "drop", after=-1)
        with pytest.raises(ConfigError, match="delay_seconds"):
            FaultSpec(points.INSIGHTS_RPC, "delay", delay_seconds=-0.5)

    def test_every_registry_kind_constructs(self):
        for point, kinds in points.REGISTRY.items():
            for kind in kinds:
                FaultSpec(point, kind)


class TestFaultPlanSerialization:
    def test_json_round_trip(self):
        plan = FaultPlan(specs=[
            FaultSpec(points.BACKEND_EXECUTE, "transient",
                      probability=0.25, max_fires=3, after=2),
            FaultSpec(points.INSIGHTS_RPC, "delay", delay_seconds=0.05),
        ], seed=9, name="round-trip")
        again = FaultPlan.parse(plan.to_json())
        assert again.to_json() == plan.to_json()
        assert again.seed == 9 and again.name == "round-trip"

    def test_dsl_parse(self):
        plan = FaultPlan.parse(
            "seed=4; backend.execute:transient:0.2:2;"
            "insights.rpc:drop:0.5")
        assert plan.seed == 4
        assert [(s.point, s.kind) for s in plan.specs] == [
            (points.BACKEND_EXECUTE, "transient"),
            (points.INSIGHTS_RPC, "drop")]
        assert plan.specs[0].probability == 0.2
        assert plan.specs[0].max_fires == 2

    def test_dsl_rejects_malformed(self):
        with pytest.raises(ConfigError, match="malformed fault spec"):
            FaultPlan.parse("backend.execute")
        with pytest.raises(ConfigError, match="seed"):
            FaultPlan.parse("seed=four;insights.rpc:drop")
        with pytest.raises(ConfigError, match="malformed fault-plan JSON"):
            FaultPlan.parse("{not json")

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        plan = FaultPlan.from_env({
            "REPRO_FAULTS": "insights.rpc:drop:0.5",
            "REPRO_FAULTS_SEED": "11"})
        assert plan.seed == 11
        assert plan.specs[0].point == points.INSIGHTS_RPC
        with pytest.raises(ConfigError, match="REPRO_FAULTS_SEED"):
            FaultPlan.from_env({"REPRO_FAULTS": "insights.rpc:drop",
                                "REPRO_FAULTS_SEED": "soon"})

    def test_active(self):
        assert not FaultPlan().active
        assert not FaultPlan(specs=[FaultSpec(
            points.INSIGHTS_RPC, "drop", probability=0.0)]).active
        assert not FaultPlan(specs=[FaultSpec(
            points.INSIGHTS_RPC, "drop", max_fires=0)]).active
        assert FaultPlan(specs=[FaultSpec(
            points.INSIGHTS_RPC, "drop")]).active


class TestFaultRuntime:
    def test_same_seed_same_outcomes(self):
        plan = FaultPlan(specs=[FaultSpec(
            points.INSIGHTS_RPC, "drop", probability=0.4)], seed=7)
        first = FaultRuntime(plan)
        second = FaultRuntime(plan)
        seq_a = [first.check(points.INSIGHTS_RPC).kind for _ in range(50)]
        seq_b = [second.check(points.INSIGHTS_RPC).kind for _ in range(50)]
        assert seq_a == seq_b
        assert "drop" in seq_a and None in seq_a

    def test_max_fires_bounds_total(self):
        runtime = FaultRuntime(FaultPlan(specs=[FaultSpec(
            points.BACKEND_EXECUTE, "transient", max_fires=2)]))
        fired = 0
        for _ in range(10):
            try:
                runtime.fire(points.BACKEND_EXECUTE)
            except TransientBackendError:
                fired += 1
        assert fired == 2
        assert runtime.fired_total == 2

    def test_after_skips_arrivals(self):
        runtime = FaultRuntime(FaultPlan(specs=[FaultSpec(
            points.BACKEND_EXECUTE, "crash", after=3, max_fires=1)]))
        for _ in range(3):
            assert runtime.check(points.BACKEND_EXECUTE) is NO_FAULT
        assert runtime.check(points.BACKEND_EXECUTE).kind == "crash"

    def test_cumulative_draw_semantics(self):
        # drop=0.3 and error=0.2 share one draw: [0,0.3) drops,
        # [0.3,0.5) errors, the rest survive -- over many arrivals the
        # two kinds fire in roughly those proportions.
        runtime = FaultRuntime(FaultPlan(specs=[
            FaultSpec(points.INSIGHTS_RPC, "drop", probability=0.3),
            FaultSpec(points.INSIGHTS_RPC, "error", probability=0.2),
        ], seed=1))
        kinds = [runtime.check(points.INSIGHTS_RPC).kind
                 for _ in range(2000)]
        drops = kinds.count("drop") / len(kinds)
        errors = kinds.count("error") / len(kinds)
        assert 0.25 < drops < 0.35
        assert 0.15 < errors < 0.25

    def test_always_on_delay_rides_survivors(self):
        runtime = FaultRuntime(FaultPlan(specs=[
            FaultSpec(points.INSIGHTS_RPC, "drop", probability=0.5,
                      max_fires=1),
            FaultSpec(points.INSIGHTS_RPC, "delay", delay_seconds=0.25),
        ], seed=0))
        outcomes = [runtime.check(points.INSIGHTS_RPC) for _ in range(20)]
        survivors = [o for o in outcomes if o.kind == "delay"]
        assert survivors and all(o.delay == 0.25 for o in survivors)

    def test_fire_maps_kinds_to_exceptions(self):
        cases = [
            (points.BACKEND_EXECUTE, "crash", InjectedCrash),
            (points.BACKEND_EXECUTE, "transient", TransientBackendError),
            (points.BACKEND_SCAN_VIEW, "storage", StorageError),
            (points.JOURNAL_APPEND, "torn", StorageError),
            (points.INSIGHTS_RPC, "drop", InsightsTimeout),
        ]
        for point, kind, exc in cases:
            runtime = FaultRuntime(FaultPlan(
                specs=[FaultSpec(point, kind)]))
            with pytest.raises(exc, match=f"injected {kind} fault"):
                runtime.fire(point)

    def test_stats_shape(self):
        runtime = FaultRuntime(FaultPlan(specs=[FaultSpec(
            points.GC_SWEEP, "storage", max_fires=1)], seed=5,
            name="stats"))
        with pytest.raises(StorageError):
            runtime.fire(points.GC_SWEEP)
        runtime.fire(points.GC_SWEEP)
        stats = runtime.stats()
        assert stats["plan"] == "stats" and stats["seed"] == 5
        assert stats["arrivals"] == {points.GC_SWEEP: 2}
        assert stats["fired"] == {points.GC_SWEEP: 1}
        assert stats["fired_total"] == 1


class TestNullRuntimeAndResolution:
    def test_null_runtime_is_inert(self):
        assert not NULL_FAULTS.enabled
        assert NULL_FAULTS.check("anything") is NO_FAULT
        assert NULL_FAULTS.fire("anything") is NO_FAULT
        assert NULL_FAULTS.fired_total == 0

    def test_resolve_faults_coercions(self):
        assert resolve_faults(None) is NULL_FAULTS
        runtime = FaultRuntime(FaultPlan())
        assert resolve_faults(runtime) is runtime
        from_plan = resolve_faults(FaultPlan(specs=[FaultSpec(
            points.INSIGHTS_RPC, "drop")]))
        assert from_plan.enabled
        from_text = resolve_faults("insights.rpc:drop:0.5")
        assert from_text.plan.specs[0].probability == 0.5
        with pytest.raises(ConfigError, match="faults="):
            resolve_faults(42)

    def test_inactive_plan_disables_runtime(self):
        runtime = FaultRuntime(FaultPlan(specs=[FaultSpec(
            points.INSIGHTS_RPC, "drop", max_fires=0)]))
        assert not runtime.enabled


class TestCampaignPlans:
    def test_deterministic_per_seed(self):
        for seed in range(6):
            assert (campaign_plan(seed).to_json()
                    == campaign_plan(seed).to_json())

    def test_distinct_across_seeds(self):
        plans = {campaign_plan(seed).to_json() for seed in range(8)}
        assert len(plans) > 1

    def test_execute_path_fires_stay_within_retry_budget(self):
        # The engine absorbs at most EXECUTE_RETRIES (2) failures per
        # job; every campaign must keep its worst case under that.
        execute_points = {points.BACKEND_EXECUTE,
                          points.BACKEND_MATERIALIZE,
                          points.BACKEND_MATERIALIZE_MID,
                          points.BACKEND_SCAN_VIEW}
        for seed in range(20):
            plan = campaign_plan(seed)
            worst = sum(spec.max_fires or 0 for spec in plan.specs
                        if spec.point in execute_points)
            assert worst <= 2, f"seed {seed} can exhaust the retry budget"
