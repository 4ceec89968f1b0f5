"""Stress test: the runtime lock sanitizer over the real stack.

Runs the full concurrent pipeline -- scheduler workers, the insights
client, the view store, and the lifecycle janitor sweeping on a tight
interval -- with the sanitizer enabled in collect-only mode.  The
assertion is that the production lock hierarchy holds under load: zero
recorded violations.  The sanitizer is the repo's one lock-order checker;
``tests/unit/test_src_census.py`` states what it cannot see (DESIGN §10).
"""

import pytest

from repro.api import LifecycleConfig, Session
from repro.catalog import schema_of
from repro.common.sync import disable_sanitizer, enable_sanitizer, sanitizer
from repro.core.controls import MultiLevelControls
from repro.insights import InsightsClientConfig
from repro.scheduler import SchedulerConfig
from repro.selection.policies import SelectionPolicy

pytestmark = pytest.mark.stress

SQL = ("SELECT CustomerId, SUM(Price) AS s FROM Sales JOIN Customer "
       "WHERE MktSegment = 'Asia' GROUP BY CustomerId")


@pytest.fixture
def strict_sanitizer():
    """Collect-only sanitizer (hierarchy + deadlock watch) for the test,
    restoring whatever was ambient afterwards."""
    had = sanitizer()
    san = enable_sanitizer(raise_on_violation=False)
    yield san
    disable_sanitizer()
    if had is not None:
        enable_sanitizer(recorder=had.recorder,
                         raise_on_violation=had.raise_on_violation,
                         check_hierarchy=had.check_hierarchy,
                         detect_deadlocks=had.detect_deadlocks)


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


def run_workload(session):
    install_tables(session.engine)
    for wave in range(4):
        results = session.run_batch([SQL] * 8, now=float(wave))
        assert all(r.ok for r in results)
        if wave == 0:
            session.analyze_and_publish()


class TestSanitizedStack:
    def test_full_stack_holds_the_hierarchy(self, strict_sanitizer,
                                            tmp_path):
        """Scheduler + insights + storage + janitor under one sanitizer:
        the shipped lock ranks admit no inversion and no deadlock."""
        controls = MultiLevelControls()
        controls.enable_vc("default")
        session = Session(
            controls=controls,
            policy=SelectionPolicy(min_reuses_per_epoch=0.0),
            scheduler_config=SchedulerConfig(workers=8),
            lifecycle=LifecycleConfig(
                journal_dir=str(tmp_path / "journal"),
                start_janitor=True, gc_interval_seconds=0.002))
        try:
            run_workload(session)
        finally:
            session.close()
        assert strict_sanitizer.violations == [], strict_sanitizer.violations

    def test_hierarchy_holds_under_injected_faults(self, strict_sanitizer):
        """Degradation paths (retries, breaker transitions, batch
        failure fan-out) take the same locks in the same order."""
        controls = MultiLevelControls()
        controls.enable_vc("default")
        session = Session(
            controls=controls,
            policy=SelectionPolicy(min_reuses_per_epoch=0.0),
            scheduler_config=SchedulerConfig(workers=8),
            client_config=InsightsClientConfig(
                max_retries=1, breaker_failure_threshold=3,
                breaker_cooldown_fetches=2),
            faults="seed=5;insights.rpc:error:0.3")
        try:
            run_workload(session)
        finally:
            session.close()
        assert strict_sanitizer.violations == [], strict_sanitizer.violations
