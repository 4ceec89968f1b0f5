"""SparkCruise-style workload insights (paper Section 5.5).

SparkCruise ships a "Workload Insights Notebook" that shows data
engineers their workload's redundancy before they enable computation
reuse.  This example mirrors that flow: the session logs every executed
query, the user inspects the insights, schedules the analysis
themselves, and only then turns reuse on.

Run:  python examples/workload_insights.py
"""

from repro import (
    DeploymentMode,
    MultiLevelControls,
    SelectionPolicy,
    Session,
    schema_of,
)
from repro.extensions import format_insights, workload_insights_report

DASHBOARD_QUERIES = [
    ("hourly-errors",
     "SELECT Service, COUNT(*) AS errors FROM Logs JOIN Services "
     "WHERE Level = 'ERROR' GROUP BY Service"),
    ("error-latency",
     "SELECT Service, AVG(LatencyMs) AS avg_latency "
     "FROM Logs JOIN Services WHERE Level = 'ERROR' GROUP BY Service"),
    ("tier-volume",
     "SELECT Tier, COUNT(*) AS n FROM Logs JOIN Services "
     "WHERE Level = 'ERROR' GROUP BY Tier"),
    ("all-traffic",
     "SELECT Service, COUNT(*) AS n FROM Logs JOIN Services "
     "GROUP BY Service"),
]


def main() -> None:
    # Opt-out: every virtual cluster is onboarded, so turning reuse on
    # is the job-level override alone.
    session = Session(
        controls=MultiLevelControls(mode=DeploymentMode.OPT_OUT),
        policy=SelectionPolicy(min_reuses_per_epoch=0.0))
    session.register_table(
        schema_of("Logs", [("ServiceId", "int"), ("Level", "str"),
                           ("LatencyMs", "float")]),
        [dict(ServiceId=i % 12,
              Level="ERROR" if i % 5 == 0 else "INFO",
              LatencyMs=float(i % 900)) for i in range(900)])
    session.register_table(
        schema_of("Services", [("ServiceId", "int"), ("Service", "str"),
                               ("Tier", "str")]),
        [dict(ServiceId=i, Service=f"svc-{i}",
              Tier="frontend" if i % 3 else "backend") for i in range(12)])

    # Phase 1: run the cluster's workload with reuse OFF; the session
    # logs plans and signatures as it goes (no engine changes).
    print("== Phase 1: observe the workload (reuse disabled) ==")
    for cycle in range(3):
        for name, sql in DASHBOARD_QUERIES:
            session.run(sql, virtual_cluster="dashboards", template_id=name,
                        pipeline_id="dashboards", reuse_override=False,
                        now=cycle * 60.0)
    print(f"{session.repository.total_jobs()} queries logged")

    # Phase 2: the Workload Insights Notebook.
    print("\n== Phase 2: Workload Insights Notebook ==")
    report = workload_insights_report(session.repository)
    print(format_insights(report))

    # Phase 3: convinced -- schedule the analysis and enable reuse.
    print("\n== Phase 3: enable computation reuse ==")
    selection = session.analyze_and_publish()
    print(f"published {len(selection.selected)} view selections")
    for name, sql in DASHBOARD_QUERIES:
        result = session.run(sql, virtual_cluster="dashboards",
                             template_id=name, pipeline_id="dashboards",
                             now=300.0)
        print(f"{name:<16} built={result.views_built} "
              f"reused={result.views_reused}")
    print(f"\nsession totals: {session.views_created} views "
          f"created, {session.views_reused} reuses")
    session.close()


if __name__ == "__main__":
    main()
