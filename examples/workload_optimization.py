"""Broader workload optimization (paper Section 5.2).

CloudViews "opened up the area of workload optimization for cloud query
engines": the same signatures power applications beyond reuse.  This
example walks through three of them over one simulated deployment:

1. **workload compression** into a representative set for pre-production
   evaluation;
2. **micro-models** -- per-template performance predictors learned from
   telemetry;
3. **annotations-file debugging** -- reproducing a job's reuse behaviour
   offline from a snapshot of the selected signatures (Figure 5).

Run:  python examples/workload_optimization.py
"""

from repro import generate_workload
from repro.insights import (
    compile_with_annotations,
    export_current_annotations,
)
from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.telemetry import evaluate_micromodels, fit_micromodels
from repro.workload import compress_workload, replay_plan


def main() -> None:
    workload = generate_workload(seed=11, virtual_clusters=2,
                                 templates_per_vc=10)
    config = SimulationConfig(days=5, cloudviews_enabled=True)
    simulation = WorkloadSimulation(workload, config)
    print("simulating 5 days of the deployment ...")
    report = simulation.run()

    # ------------------------------------------------------------- #
    print("\n== 1. Workload compression (pre-production replay set) ==")
    compressed = compress_workload(report.repository)
    print(f"{compressed.original_jobs} jobs collapse into "
          f"{len(compressed.representatives)} representative classes "
          f"({compressed.compression_ratio:.1f}x compression)")
    print("heaviest classes:")
    for job, weight in replay_plan(compressed, max_representatives=5):
        print(f"  {job.template_id:<24} x{weight}")

    # ------------------------------------------------------------- #
    print("\n== 2. Micro-models (per-template predictors) ==")
    template_of = {j.job_id: j.template_id for j in report.repository.jobs}
    split = 3 * 86400.0
    train = [t for t in report.telemetry if t.submit_time < split]
    test = [t for t in report.telemetry if t.submit_time >= split]
    bank = fit_micromodels(train, template_of, metric="processing_time",
                           min_observations=2)
    quality = evaluate_micromodels(bank, test, template_of)
    print(f"fitted {len(bank)} per-template models from "
          f"{len(train)} training jobs")
    print(f"held-out accuracy over {quality.evaluated:.0f} jobs: "
          f"median relative error {quality.median_relative_error:.1%}, "
          f"{quality.within_20_percent:.0%} within 20%")

    # ------------------------------------------------------------- #
    print("\n== 3. Annotations-file debugging (Figure 5) ==")
    engine = simulation.session.engine
    snapshot = export_current_annotations(engine)
    lines = snapshot.count("\n") + 1
    print(f"exported the current selection generation "
          f"({engine.insights.annotation_count()} annotations, "
          f"{lines} lines of JSON)")
    instance = workload.jobs_for_day(4)[0]
    debug = compile_with_annotations(
        engine, instance.template.sql, snapshot,
        params=instance.params,
        virtual_cluster=instance.template.virtual_cluster,
        now=5 * 86400.0, job_id="incident-repro")
    print(f"recompiled {instance.template.template_id} from the file: "
          f"built={debug.built_views} reused={debug.reused_views}")
    print(debug.plan.explain())


if __name__ == "__main__":
    main()
