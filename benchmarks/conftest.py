"""Shared fixtures for the benchmark harness.

The paper's Table 1 and Figures 6-7 all read the same two-month production
deployment.  We run one scaled-down deployment window (a pair of identical
simulations, CloudViews enabled and disabled) once per session and let
every benchmark read from it.
"""

from __future__ import annotations

import pytest

from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.workload import generate_workload

#: Scaled-down stand-in for the paper's two-month window.
DEPLOYMENT_DAYS = 8
DEPLOYMENT_SEED = 7
VIRTUAL_CLUSTERS = 3
TEMPLATES_PER_VC = 16


def deployment_workload():
    return generate_workload(
        seed=DEPLOYMENT_SEED,
        virtual_clusters=VIRTUAL_CLUSTERS,
        templates_per_vc=TEMPLATES_PER_VC,
    )


def run_deployment(enabled: bool, days: int = DEPLOYMENT_DAYS):
    config = SimulationConfig(days=days, cloudviews_enabled=enabled)
    return WorkloadSimulation(deployment_workload(), config).run()


@pytest.fixture(scope="session")
def enabled_report():
    """The deployment window with CloudViews enabled."""
    return run_deployment(True)


@pytest.fixture(scope="session")
def baseline_report():
    """The identical window with CloudViews disabled."""
    return run_deployment(False)
