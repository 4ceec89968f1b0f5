"""Unit tests for per-template micro-models (Section 5.2)."""

import pytest

from repro.cluster import JobTelemetry
from repro.telemetry.micromodels import (
    MicroModelBank,
    evaluate_micromodels,
    fit_micromodels,
)


def job(job_id, input_rows, processing, vc="vc1"):
    t = JobTelemetry(job_id=job_id, virtual_cluster=vc, submit_time=0.0)
    t.input_rows = input_rows
    t.processing_time = processing
    return t


def linear_history(template, n=6, base=50.0, slope=2.0, start=0):
    telemetry = []
    template_of = {}
    for i in range(n):
        rows = 100 + i * 50
        job_id = f"{template}-{start + i}"
        telemetry.append(job(job_id, rows, base + slope * rows))
        template_of[job_id] = template
    return telemetry, template_of


class TestFitting:
    def test_recovers_linear_relationship(self):
        telemetry, template_of = linear_history("t1")
        bank = fit_micromodels(telemetry, template_of)
        model = bank.models["t1"]
        assert model.slope == pytest.approx(2.0, rel=0.01)
        assert model.base == pytest.approx(50.0, rel=0.05)
        assert model.predict(500) == pytest.approx(1050.0, rel=0.02)

    def test_robust_to_one_straggler(self):
        telemetry, template_of = linear_history("t1", n=7)
        straggler = job("t1-s", 200, 100000.0)
        template_of["t1-s"] = "t1"
        bank = fit_micromodels(telemetry + [straggler], template_of)
        assert bank.models["t1"].predict(300) < 2000.0

    def test_constant_input_yields_flat_model(self):
        telemetry = [job(f"j{i}", 100, 500.0 + i) for i in range(5)]
        template_of = {f"j{i}": "t" for i in range(5)}
        bank = fit_micromodels(telemetry, template_of)
        model = bank.models["t"]
        assert model.slope == 0.0
        assert model.predict(100) == pytest.approx(502.0)

    def test_min_observations_threshold(self):
        telemetry, template_of = linear_history("t1", n=2)
        bank = fit_micromodels(telemetry, template_of,
                               min_observations=3)
        assert len(bank) == 0

    def test_one_model_per_template(self):
        t1, m1 = linear_history("t1", slope=1.0)
        t2, m2 = linear_history("t2", slope=5.0, start=100)
        bank = fit_micromodels(t1 + t2, {**m1, **m2})
        assert len(bank) == 2
        assert bank.models["t2"].slope > bank.models["t1"].slope

    def test_prediction_never_negative(self):
        telemetry, template_of = linear_history("t1", base=-500.0,
                                                slope=0.1)
        bank = fit_micromodels(telemetry, template_of)
        assert bank.predict("t1", 0) == 0.0

    def test_unknown_template_predicts_none(self):
        bank = MicroModelBank(metric="processing_time")
        assert bank.predict("nope", 100) is None


class TestEvaluation:
    def test_high_accuracy_on_recurring_workload(self):
        train, template_of = linear_history("t1", n=8)
        test, test_templates = linear_history("t1", n=4, start=50)
        bank = fit_micromodels(train, template_of)
        quality = evaluate_micromodels(bank, test,
                                       {**template_of, **test_templates})
        assert quality.evaluated == 4
        assert quality.median_relative_error < 0.05
        assert quality.within_20_percent == 1.0

    def test_evaluation_skips_unknown_templates(self):
        train, template_of = linear_history("t1")
        bank = fit_micromodels(train, template_of)
        quality = evaluate_micromodels(bank, [job("x", 100, 10.0)], {})
        assert quality.evaluated == 0

    def test_end_to_end_on_simulated_telemetry(self):
        """Fit on the first days of a simulation, evaluate on the rest."""
        from repro.simulation import SimulationConfig, WorkloadSimulation
        from repro.workload import generate_workload

        workload = generate_workload(seed=5, virtual_clusters=2,
                                     templates_per_vc=6, adhoc_per_day=0)
        config = SimulationConfig(days=4, cloudviews_enabled=False)
        simulation = WorkloadSimulation(workload, config)
        report = simulation.run()
        template_of = {j.job_id: j.template_id
                       for j in report.repository.jobs}
        split = 2 * 86400.0
        train = [t for t in report.telemetry if t.submit_time < split]
        test = [t for t in report.telemetry if t.submit_time >= split]
        bank = fit_micromodels(train, template_of,
                               metric="processing_time",
                               min_observations=2)
        quality = evaluate_micromodels(bank, test, template_of)
        assert quality.evaluated > 0
        # Recurring jobs are highly predictable per template.
        assert quality.median_relative_error < 0.25
