"""Integration test: the paper's tier-by-tier opt-out rollout (Section 4).

"After sufficient hardening of the CloudViews feature in production, we
have now started enabling it using an opt-out model, where virtual
clusters are grouped into tiers (based on business importance) and they
are automatically onboarded tier by tier, starting with the lowest tier."
"""

import pytest

from repro.common.clock import SECONDS_PER_DAY
from repro.core import DeploymentMode, MultiLevelControls
from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.workload import generate_workload


def make_workload():
    return generate_workload(seed=13, virtual_clusters=3,
                             templates_per_vc=8, adhoc_per_day=0)


def job_rows(report):
    """(virtual cluster, submit time, views built, views reused) per job,
    from either schedule's report."""
    if hasattr(report, "telemetry"):
        return [(t.virtual_cluster, t.submit_time, t.views_built,
                 t.views_reused) for t in report.telemetry]
    return [(r.virtual_cluster, r.submitted_at, r.views_built,
             r.views_reused) for r in report.results]


def run_rollout(workload, config, controls, on_day_boundary=None):
    with config.open_session(controls=controls) as session:
        return WorkloadSimulation(workload, config, session=session,
                                  on_day_boundary=on_day_boundary).run()


class TestTieredRollout:
    workers = None  # the cluster schedule

    def test_onboarding_ramps_reuse_tier_by_tier(self):
        workload = make_workload()
        vc_low, vc_mid, vc_high = workload.virtual_clusters

        controls = MultiLevelControls(mode=DeploymentMode.OPT_OUT)
        controls.assign_tier(vc_low, 1)
        controls.assign_tier(vc_mid, 2)
        controls.assign_tier(vc_high, 3)
        # Nothing onboarded at the start.
        for vc in workload.virtual_clusters:
            controls.clear_vc(vc)

        def rollout(day, simulation):
            # Day 2: onboard tier 1; day 4: tiers 1-2; never tier 3.
            if day == 2:
                controls.onboard_up_to_tier(1)
            elif day == 4:
                controls.onboard_up_to_tier(2)

        config = SimulationConfig(days=6, cloudviews_enabled=True,
                                  workers=self.workers)
        report = run_rollout(workload, config, controls, rollout)

        def reusers_on_day(vc, day):
            return sum(
                views_reused
                for virtual_cluster, submit_time, _, views_reused
                in job_rows(report)
                if virtual_cluster == vc
                and day * SECONDS_PER_DAY <= submit_time
                < (day + 1) * SECONDS_PER_DAY)

        # Before any onboarding, no VC reuses.
        for vc in workload.virtual_clusters:
            assert reusers_on_day(vc, 1) == 0
        # After day 2, the lowest tier starts reusing; tier 2 only after
        # day 4; tier 3 never (it was never onboarded).
        assert sum(reusers_on_day(vc_low, d) for d in (2, 3)) > 0
        assert sum(reusers_on_day(vc_mid, d) for d in (2, 3)) == 0
        assert sum(reusers_on_day(vc_mid, d) for d in (4, 5)) > 0
        assert all(reusers_on_day(vc_high, d) == 0 for d in range(6))

    def test_opt_out_wins_over_tier(self):
        workload = make_workload()
        vc_low = workload.virtual_clusters[0]
        controls = MultiLevelControls(mode=DeploymentMode.OPT_OUT)
        for vc in workload.virtual_clusters:
            controls.assign_tier(vc, 1)
        controls.onboard_up_to_tier(1)
        controls.disable_vc(vc_low)  # the customer explicitly opted out

        config = SimulationConfig(days=4, cloudviews_enabled=True,
                                  workers=self.workers)
        report = run_rollout(workload, config, controls)
        opted_out = [row for row in job_rows(report) if row[0] == vc_low]
        assert all(views_reused == 0 and views_built == 0
                   for _, _, views_built, views_reused in opted_out)
        others = [row for row in job_rows(report) if row[0] != vc_low]
        assert any(views_reused > 0 for _, _, _, views_reused in others)


class TestTieredRolloutWaves(TestTieredRollout):
    workers = 2
