"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate``  -- run the paired deployment simulation and print the
  Table-1 impact summary (``--backend sqlite`` executes every job on a
  real SQLite database instead of the in-memory interpreter);
* ``diff-backends`` -- run the bundled workloads on every execution
  backend with reuse on and off and assert byte-equal results and
  identical reuse decisions;
* ``tpcds``     -- replay the SparkCruise-on-TPC-DS flow (Section 5.5);
* ``capture``   -- profile a generated workload (compile-only) and save
  the workload repository to a JSONL capture;
* ``analyze``   -- load one or more captures and print workload insights
  (Figure 3 statistics, reuse candidates, join-set opportunities);
* ``explain``   -- compile a query against the demo catalog and print its
  optimized plan;
* ``obs``       -- inspect a flight-recorder capture (``obs metrics``,
  ``obs trace <job_id>``, ``obs events --since <day>``) written by
  ``simulate --obs-dir``;
* ``lint``      -- run the plan/signature/reuse soundness analyzer over
  the bundled workloads (text or JSON findings; non-zero exit on any
  error finding, so it slots straight into CI).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.backends import backend_names
from repro.common.errors import ReproError
from repro.engine.engine import ScopeEngine
from repro.selection.registry import SELECTION_ALGORITHMS
from repro.simulation import SimulationConfig, WorkloadSimulation
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    load_capture,
    render_events,
    render_flamegraph,
)
from repro.telemetry.comparison import compare_telemetry
from repro.workload.generator import generate_workload
from repro.workload.analysis import pipeline_summary
from repro.workload.persistence import merge_captures, save_repository
from repro.workload.profiling import compile_only_repository


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CloudViews reproduction (EDBT 2021)")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="run the deployment simulation (Table 1)")
    simulate.add_argument("--days", type=int, default=6)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--virtual-clusters", type=int, default=3)
    simulate.add_argument("--templates-per-vc", type=int, default=16)
    simulate.add_argument("--selection", default="bigsubs",
                          choices=sorted(SELECTION_ALGORITHMS))
    simulate.add_argument("--workers", type=int, default=None, metavar="N",
                          help="run the wave-parallel simulation on N "
                               "scheduler threads instead of the serial "
                               "cluster co-simulation; the resulting view "
                               "catalog and reuse counts are identical "
                               "for every N")
    simulate.add_argument("--shards", type=int, default=0, metavar="N",
                          help="serve insights from N shard worker "
                               "processes (implies --workers; default 0 "
                               "keeps the in-process service); digest "
                               "and reuse counts are identical for "
                               "every N")
    simulate.add_argument("--obs-dir", default=None, metavar="DIR",
                          help="write the flight-recorder capture "
                               "(metrics.json, spans.jsonl, events.jsonl) "
                               "to DIR")
    simulate.add_argument("--view-ttl", type=float, default=None,
                          metavar="SECONDS",
                          help="view time-to-live in simulated seconds "
                               "(default: one week, the paper's eviction "
                               "policy)")
    simulate.add_argument("--backend", default="memory",
                          choices=sorted(backend_names()),
                          help="execution backend: 'memory' interprets "
                               "plans in-process, 'sqlite' compiles them "
                               "to SQL against a real database")

    diff = sub.add_parser(
        "diff-backends",
        help="differential check: run the bundled workloads on every "
             "backend x reuse setting and assert byte-equal results "
             "and identical reuse decisions")
    diff.add_argument("--workload", default="all",
                      choices=["all", "tpcds", "cooking"])
    diff.add_argument("--days", type=int, default=3,
                      help="cooking-workload days")
    diff.add_argument("--scale-rows", type=int, default=400,
                      help="TPC-DS synthetic row count")

    tpcds = sub.add_parser(
        "tpcds", help="SparkCruise on mini TPC-DS (Section 5.5)")
    tpcds.add_argument("--scale-rows", type=int, default=2000)

    capture = sub.add_parser(
        "capture", help="profile a workload and save a JSONL capture")
    capture.add_argument("output")
    capture.add_argument("--days", type=int, default=7)
    capture.add_argument("--seed", type=int, default=7)
    capture.add_argument("--virtual-clusters", type=int, default=3)
    capture.add_argument("--templates-per-vc", type=int, default=16)

    analyze = sub.add_parser(
        "analyze", help="workload insights over saved captures")
    analyze.add_argument("captures", nargs="+")

    explain = sub.add_parser(
        "explain", help="compile a query against the demo catalog")
    explain.add_argument("sql")
    explain.add_argument("--run-date", default="d0000")

    obs = sub.add_parser(
        "obs", help="inspect a flight-recorder capture")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_metrics = obs_sub.add_parser(
        "metrics", help="render the metrics dump (counters/gauges/"
                        "histograms with p50/p95/p99)")
    obs_metrics.add_argument("--capture", default="obs-capture",
                             help="capture directory (default: obs-capture)")

    obs_trace = obs_sub.add_parser(
        "trace", help="render one job's span tree as a text flamegraph")
    obs_trace.add_argument("job_id")
    obs_trace.add_argument("--capture", default="obs-capture")

    obs_events = obs_sub.add_parser(
        "events", help="print the structured event log")
    obs_events.add_argument("--capture", default="obs-capture")
    obs_events.add_argument("--since", type=int, default=None,
                            metavar="DAY",
                            help="only events at or after simulated "
                                 "midnight of DAY")
    obs_events.add_argument("--kind", default=None,
                            help="filter to one event kind "
                                 "(e.g. view.sealed)")
    obs_events.add_argument("--limit", type=int, default=200)

    lint = sub.add_parser(
        "lint", help="soundness analysis of the reuse pipeline "
                     "(plan validity, signature soundness, reuse safety)")
    lint.add_argument("--format", default="text", choices=["text", "json"],
                      dest="output_format")
    lint.add_argument("--suppress", action="append", default=[],
                      metavar="RULE",
                      help="skip one rule by name (repeatable); see "
                           "--list-rules")
    lint.add_argument("--workload", default="all",
                      choices=["all", "cooking", "tpcds"],
                      help="which bundled workload(s) to analyze")
    lint.add_argument("--seed", type=int, default=7)
    lint.add_argument("--scale-rows", type=int, default=500,
                      help="TPC-DS synthetic row count")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")

    chaos = sub.add_parser(
        "chaos",
        help="chaos campaign: run the cooking workload under seeded "
             "fault plans and assert every job completes, results stay "
             "byte-identical to a fault-free run, and the catalog "
             "recovers to a consistent digest")
    chaos.add_argument("--seed", default="0..4", metavar="SPEC",
                       help="campaign seeds: one int, a comma list "
                            "('0,3,9'), or an inclusive range ('0..4'); "
                            "default 0..4")
    chaos.add_argument("--backend", default="memory",
                       choices=sorted(backend_names()) + ["all"],
                       help="execution backend under test, or 'all'")
    chaos.add_argument("--days", type=int, default=3,
                       help="cooking-workload days per run")
    chaos.add_argument("--shards", type=int, default=0, metavar="N",
                       help="run each campaign seed against N insights "
                            "shard processes; adds shard-seam faults "
                            "(RPC drops/delays, real SIGKILLs) to the "
                            "menu and checks merged per-shard WAL "
                            "recovery (default 0: in-process service)")
    chaos.add_argument("--plan", action="store_true",
                       help="print each seed's fault plan and exit "
                            "without running anything")

    gc = sub.add_parser(
        "gc", help="view lifecycle operations against a catalog journal "
                   "(sweep, GDPR forget, epoch bump, stats)")
    gc.add_argument("--journal-dir", default="repro-journal", metavar="DIR",
                    help="catalog journal directory "
                         "(default: repro-journal)")
    gc.add_argument("--sweep", action="store_true",
                    help="run one GC sweep (expiry + purged-entry "
                         "collection + budget eviction)")
    gc.add_argument("--forget", default=None, metavar="STREAM",
                    help="apply a GDPR forget to STREAM: new GUID and a "
                         "cascade purge of every dependent view")
    gc.add_argument("--bump-epoch", action="store_true",
                    help="roll the runtime epoch: all signatures change, "
                         "every view and annotation is invalidated")
    gc.add_argument("--stats", action="store_true",
                    help="print the lifecycle summary")
    gc.add_argument("--now", type=float, default=None,
                    help="simulated time for sweep/forget "
                         "(default: wall clock)")
    gc.add_argument("--storage-budget", type=int, default=None,
                    metavar="BYTES",
                    help="byte budget enforced by --sweep's eviction pass")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "simulate": _cmd_simulate,
        "diff-backends": _cmd_diff_backends,
        "tpcds": _cmd_tpcds,
        "capture": _cmd_capture,
        "analyze": _cmd_analyze,
        "explain": _cmd_explain,
        "obs": _cmd_obs,
        "lint": _cmd_lint,
        "gc": _cmd_gc,
        "chaos": _cmd_chaos,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        sys.stderr.close()
        return 0
    except ReproError as error:
        # Bad input (unparsable SQL, an unknown column, an invalid
        # setting) is the user's to fix: a message, not a traceback.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


# --------------------------------------------------------------------- #
# commands


def _workload(args):
    return generate_workload(seed=args.seed,
                             virtual_clusters=args.virtual_clusters,
                             templates_per_vc=args.templates_per_vc)


def _simulation(args, recorder, **config_kwargs) -> WorkloadSimulation:
    config = SimulationConfig(days=args.days,
                              selection_algorithm=args.selection,
                              view_ttl_seconds=args.view_ttl,
                              backend=args.backend,
                              **config_kwargs)
    return WorkloadSimulation(_workload(args), config, recorder=recorder)


def _print_capture(args, recorder) -> None:
    if args.obs_dir:
        paths = recorder.dump(args.obs_dir)
        print(f"flight-recorder capture -> {args.obs_dir} "
              f"({', '.join(sorted(paths))})")


def _cmd_simulate(args) -> int:
    if args.shards and args.workers is None:
        # Sharding only exists on the concurrent path; give it the
        # scheduler default rather than failing.
        args.workers = 4
    if args.workers is not None:
        return _cmd_simulate_concurrent(args)
    reports = {}
    recorder = FlightRecorder()
    simulations = {}
    for enabled in (True, False):
        label = "cloudviews" if enabled else "baseline"
        print(f"simulating {args.days} days ({label}) ...")
        # The flight recorder rides on the CloudViews-enabled run; the
        # baseline stays uninstrumented, as in the paper's A/B harness.
        simulation = _simulation(args, recorder if enabled else None,
                                 cloudviews_enabled=enabled)
        simulations[label] = simulation
        reports[label] = simulation.run()
    enabled, baseline = reports["cloudviews"], reports["baseline"]
    comparison = compare_telemetry(baseline.telemetry, enabled.telemetry)
    summary = pipeline_summary(enabled.repository)

    print(f"\n{'Jobs':<42}{summary['jobs']:>12,}")
    print(f"{'Views Created':<42}{enabled.views_created:>12,}")
    print(f"{'Views Used':<42}{enabled.views_reused:>12,}")
    for label, value in comparison.rows():
        print(f"{label:<42}{value:>11.2f}%")

    usage = simulations["cloudviews"].session.insights.metrics
    lookups = usage.cache_hits + usage.cache_misses
    hit_ratio = usage.cache_hits / max(1, lookups)
    print("\nInsights service usage")
    print(f"{'Annotation Fetches':<42}{usage.fetches:>12,}")
    print(f"{'Serving-Cache Hit Ratio':<42}{hit_ratio:>11.1%}")
    print(f"{'Annotations Served':<42}{usage.annotations_served:>12,}")
    print(f"{'View Locks Acquired':<42}{usage.locks_acquired:>12,}")
    print(f"{'View Lock Denials':<42}{usage.locks_denied:>12,}")
    print(f"{'Views Early-Sealed':<42}"
          f"{usage.views_reported_available:>12,}")

    print()
    print(recorder.render_summary())
    _print_capture(args, recorder)
    return 0


def _cmd_simulate_concurrent(args) -> int:
    """The wave schedule on the concurrent scheduler.

    The reported catalog digest and reuse counts are invariant in the
    worker count: ``--workers 8`` must print the same digest as
    ``--workers 1`` (only the throughput line changes).
    """
    recorder = FlightRecorder()
    sharding = (f", {args.shards} shards" if args.shards else "")
    print(f"simulating {args.days} days "
          f"(cloudviews, {args.workers} workers{sharding}) ...")
    simulation = _simulation(args, recorder, workers=args.workers,
                             shards=args.shards)
    report = simulation.run()

    print(f"\n{'Jobs':<42}{report.jobs:>12,}")
    print(f"{'Job Failures':<42}{report.failures:>12,}")
    print(f"{'Degraded Jobs (reuse disabled)':<42}"
          f"{report.degraded_jobs:>12,}")
    print(f"{'Views Created':<42}{report.views_created:>12,}")
    print(f"{'Views Used':<42}{report.views_reused:>12,}")
    print(f"{'Throughput (jobs/s)':<42}{report.jobs_per_second:>12,.1f}")
    if report.shard_stats:
        busy = report.shard_busy_seconds
        print(f"{'Shard Busy Seconds (makespan/total)':<42}"
              f"{max(busy):>6.3f}/{sum(busy):.3f}")
    print(f"View Catalog Digest  {report.catalog_digest}")

    client = simulation.session.insights
    usage = client.metrics
    print("\nInsights client")
    print(f"{'Annotation Fetches':<42}{usage.fetches:>12,}")
    print(f"{'Client-Cache Hits':<42}{client.cache_hits:>12,}")
    print(f"{'Degraded Fetches':<42}{client.degraded_fetches:>12,}")
    print(f"{'View Locks Acquired':<42}{usage.locks_acquired:>12,}")
    print(f"{'View Lock Denials':<42}{usage.locks_denied:>12,}")

    _print_capture(args, recorder)
    return 0


def _cmd_diff_backends(args) -> int:
    """Cross-backend differential check; non-zero exit on any mismatch."""
    from repro.backends.differential import (
        run_cooking_differential,
        run_tpcds_differential,
    )

    reports = []
    if args.workload in ("all", "tpcds"):
        reports.append(run_tpcds_differential(scale_rows=args.scale_rows))
    if args.workload in ("all", "cooking"):
        reports.append(run_cooking_differential(days=args.days))
    failed = False
    for report in reports:
        print(report.summary())
        for mismatch in report.mismatches:
            print(f"  - {mismatch}")
        failed = failed or not report.ok
    return 1 if failed else 0


def _cmd_obs(args) -> int:
    capture = load_capture(args.capture)
    if not capture:
        print(f"no flight-recorder capture found in {args.capture!r} "
              "(run `repro simulate --obs-dir <dir>` first)")
        return 1
    if args.obs_command == "metrics":
        print(MetricsRegistry.render_dict(capture.get("metrics", {})))
    elif args.obs_command == "trace":
        spans = [s for s in capture.get("spans", [])
                 if s.trace_id == args.job_id]
        print(render_flamegraph(spans, args.job_id))
        if not spans:
            return 1
    elif args.obs_command == "events":
        events = capture.get("events", [])
        if args.since is not None:
            events = [e for e in events if e.at >= args.since * 86400.0]
        if args.kind is not None:
            events = [e for e in events if e.kind == args.kind]
        print(render_events(events, limit=args.limit))
    return 0


def _cmd_gc(args) -> int:
    """View lifecycle operations against a durable catalog journal."""
    import time as _time

    from repro.lifecycle import LifecycleConfig, LifecycleManager

    engine = ScopeEngine()
    manager = LifecycleManager(engine, LifecycleConfig(
        journal_dir=args.journal_dir,
        storage_budget_bytes=args.storage_budget))
    now = _time.time() if args.now is None else args.now
    acted = False
    try:
        report = manager.last_recovery
        if report is not None and report.recovered_anything:
            print(f"recovered {report.views_restored} view(s) from "
                  f"{args.journal_dir} (snapshot: {report.snapshot_views}, "
                  f"wal ops: {report.wal_ops}, epoch: {report.epoch})")
        if args.forget:
            purged = manager.forget_stream(args.forget, at=now)
            print(f"gdpr forget {args.forget!r}: "
                  f"purged {purged} dependent view(s)")
            acted = True
        if args.bump_epoch:
            version = manager.bump_epoch(at=now)
            print(f"runtime epoch bumped -> {version} "
                  f"(epoch {manager.epoch}; all views invalidated)")
            acted = True
        if args.sweep:
            result = manager.janitor.run_once(now)
            print(f"sweep: expired {result.expired}, "
                  f"collected {result.removed}, "
                  f"budget-evicted {result.budget_evicted}, "
                  f"pinned-skipped {result.pinned_skipped}, "
                  f"reclaimed {result.reclaimed_bytes:,} bytes "
                  f"in {result.duration_seconds * 1000:.2f} ms")
            acted = True
        if args.stats or not acted:
            for key, value in manager.stats(now).items():
                print(f"{key:<28} {value}")
    finally:
        manager.close()
    return 0


def _cmd_tpcds(args) -> int:
    from repro.extensions.sparkcruise import sparkcruise_tpcds
    from repro.workload.tpcds import TPCDS_QUERIES

    baseline, enabled = (sparkcruise_tpcds(args.scale_rows, reuse)
                         for reuse in (False, True))
    reduction = (baseline.work - enabled.work) / baseline.work * 100
    print(f"queries:                {len(TPCDS_QUERIES)}")
    print(f"baseline work:          {baseline.work:,.0f}")
    print(f"with reuse:             {enabled.work:,.0f}")
    print(f"running-time reduction: {reduction:.1f}% (paper: ~30%)")
    return 0


def _cmd_capture(args) -> int:
    repository = compile_only_repository(_workload(args), days=args.days)
    lines = save_repository(repository, args.output)
    print(f"captured {repository.total_jobs()} jobs / "
          f"{repository.total_subexpressions()} subexpressions "
          f"({lines} lines) -> {args.output}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.extensions.generalized import join_set_opportunities
    from repro.selection.candidates import build_candidates
    from repro.workload.patterns import discover_patterns

    repository = merge_captures(args.captures)
    summary = pipeline_summary(repository)
    print(f"jobs:                   {summary['jobs']:,}")
    print(f"subexpressions:         {summary['subexpressions']:,}")
    print(f"virtual clusters:       {summary['virtual_clusters']}")
    print(f"repeated fraction:      {repository.repeated_fraction():.1%}")
    print(f"avg repeat frequency:   "
          f"{repository.average_repeat_frequency():.2f}")
    candidates = build_candidates(repository)
    print(f"reuse candidates:       {len(candidates)}")
    print("top join-sets (Figure 8):")
    for opportunity in join_set_opportunities(repository)[:5]:
        print(f"  {' JOIN '.join(opportunity.inputs):<40} "
              f"x{opportunity.occurrences} "
              f"({opportunity.distinct_variants} variants)")
    print("top query patterns (operator chains):")
    for pattern in discover_patterns(repository)[:5]:
        print(f"  {pattern.render():<50.50} x{pattern.occurrences}")
    return 0


def _cmd_explain(args) -> int:
    engine = ScopeEngine()
    workload = generate_workload(seed=7, virtual_clusters=1,
                                 templates_per_vc=1)
    workload.install(engine)
    compiled = engine.compile(args.sql, params={"runDate": args.run_date},
                              reuse_enabled=False)
    print(compiled.plan.explain())
    return 0


def _parse_seed_spec(spec: str) -> List[int]:
    """``'7'``, ``'0,3,9'``, or the inclusive range ``'0..4'``."""
    spec = spec.strip()
    if ".." in spec:
        low, high = spec.split("..", 1)
        start, stop = int(low), int(high)
        if stop < start:
            raise ValueError(f"empty seed range {spec!r}")
        return list(range(start, stop + 1))
    return [int(part) for part in spec.split(",") if part.strip()]


def _cmd_chaos(args) -> int:
    from repro.faults.chaos import (
        campaign_plan,
        check_ctas_crash_recovery,
        run_campaign,
    )

    # CI overrides the seed matrix without touching workflow args.
    spec = os.environ.get("REPRO_CHAOS_SEEDS", args.seed)
    try:
        seeds = _parse_seed_spec(spec)
    except ValueError as error:
        print(f"bad --seed spec: {error}", file=sys.stderr)
        return 2
    if args.plan:
        for seed in seeds:
            plan = campaign_plan(seed, shards=args.shards)
            print(f"seed {seed}: " + "; ".join(
                f"{s.point}:{s.kind}(p={s.probability},"
                f"max={s.max_fires})" for s in plan.specs))
        return 0
    backends = (sorted(backend_names()) if args.backend == "all"
                else [args.backend])
    failed = False
    for backend in backends:
        report = run_campaign(seeds, backend=backend, days=args.days,
                              shards=args.shards)
        print(report.summary())
        if not report.ok:
            failed = True
        if backend == "sqlite":
            # The restart-consistency probe only means something on a
            # backend with durable state.
            print(check_ctas_crash_recovery())
    return 1 if failed else 0


def _cmd_lint(args) -> int:
    from repro.analysis import Analyzer, Report, rule_catalog

    if args.list_rules:
        for name, severity, description in rule_catalog():
            print(f"{name:<24} {severity:<5} {description}")
        return 0

    analyzer = Analyzer(suppress=args.suppress)
    report = Report()
    if args.workload in ("all", "cooking"):
        report.extend(_lint_cooking(analyzer, args.seed))
    if args.workload in ("all", "tpcds"):
        report.extend(_lint_tpcds(analyzer, args.scale_rows))
    if args.output_format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return report.exit_code


def _lint_cooking(analyzer, seed: int):
    """Compile-only lint of one cooked day of the generated workload."""
    engine = ScopeEngine()
    workload = generate_workload(seed=seed, virtual_clusters=2,
                                 templates_per_vc=8)
    workload.install(engine)
    plans = []
    last = 0.0
    for instance in workload.jobs_for_day(0):
        compiled = engine.compile(
            instance.template.sql, params=instance.params,
            virtual_cluster=instance.virtual_cluster,
            reuse_enabled=False, now=instance.submit_time,
            job_id=f"{instance.template.template_id}@d0")
        plans.append((compiled.job_id, compiled.plan))
        last = max(last, instance.submit_time)
    return _lint_against(analyzer, engine, plans, last)


def _lint_tpcds(analyzer, scale_rows: int):
    """Lint the TPC-DS flow end to end: the reuse round's plans carry
    real ViewScans and Spools, so the reuse-safety rules get exercised
    against a live view store."""
    from repro.extensions.sparkcruise import sparkcruise_tpcds

    enabled = sparkcruise_tpcds(scale_rows)
    jobs = {name: result.compiled for name, result in enabled.results.items()}
    return _lint_against(
        analyzer, enabled.engine,
        [(name, job.plan) for name, job in jobs.items()],
        max(job.submitted_at for job in jobs.values()),
        [match for job in jobs.values() for match in job.optimized.matches])


def _lint_against(analyzer, engine, plans, now: float, matches=()):
    """Lint ``plans`` and the reuse ``matches`` against ``engine``'s
    catalog and view store as of ``now``."""
    from repro.analysis import AnalysisContext

    ctx = AnalysisContext(catalog=engine.catalog,
                          view_store=engine.view_store,
                          salt=engine.signature_salt, now=now)
    report = analyzer.analyze_workload(plans, ctx)
    return report.extend(analyzer.analyze_matches(matches, ctx))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
