"""The end-to-end benchmark: one command, every metric, outputs checked.

Two ways in, one machinery (a repeat = one fresh child process that sets
up, runs the timed window and verifies its outputs):

``python benchmarks/e2e/run.py [--workload W] [--seed 7] [--out FILE]``
    The report.  Each workload runs ``REPEATS`` untraced repeats,
    round-robin across workloads so slow machine drift spreads evenly,
    then one traced repeat.  Prints every end-to-end metric (median,
    min, max) and every per-layer metric by name with its unit, and
    writes the result JSON that ``compare.py`` reads.

``... --workload W --seed N --seconds S --trace 0|1``
    One measurement in the form ``BENCHMARK.json`` promises: the last
    line of standard output is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics
    for ``--trace 0``, the per-layer metrics for ``--trace 1``.

The timed window is a fixed amount of work -- days 1 .. D-1 of the
workload, D sized so that it takes about ``run_seconds`` -- not a fixed
time; another ``--seconds`` scales the number of timed days with it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
sys.path.insert(0, SRC)

from workloads import WORKLOADS, WorkloadSpec, workload_named  # noqa: E402

#: Untraced repeats per workload in the report; the median is reported.
REPEATS = 3
#: Set-ups per ``--trace 0`` measurement; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The driver allows one measurement 180 s; children still running when
#: this much of it is gone are killed with their shards.
TIME_LIMIT_S = 170.0


def load_benchmark() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# --------------------------------------------------------------------- #
# child side

def child_main(args: argparse.Namespace) -> int:
    from harness import make_workdir, remove_workdir, run_repeat
    from verify import verify

    spec = dataclasses.replace(workload_named(args.workload), days=args.days)
    workdir = make_workdir()
    try:
        repeat = run_repeat(
            spec, args.seed, workdir, args.spawned_at,
            traced=args.child == "traced",
            setup_only=args.child == "setup",
            trace_out=args.trace_out)
        out: Dict[str, object] = {"setup_s": repeat.setup_s}
        if repeat.log is not None:
            log = repeat.log
            out.update(end_to_end=repeat.end_to_end,
                       per_layer=repeat.per_layer, details=repeat.details,
                       attempted=log.attempted, failed=log.failed,
                       correct=not log.failed, problems=log.errors[:10])
            verdict = verify(spec, args.seed, repeat)
            out["failed"] = log.failed + verdict.mismatched
            out["correct"] = verdict.correct and not log.failed
            out["problems"] = (log.errors + verdict.problems)[:10]
            out["details"]["verified_jobs"] = verdict.sampled
            if repeat.per_layer:
                out["per_layer"]["lifecycle.recover_s"] = verdict.recover_s
                out["per_layer"]["failed_share"] = \
                    out["failed"] / max(1, log.attempted)
    finally:
        remove_workdir(workdir)
    print(json.dumps(out))
    return 0


# --------------------------------------------------------------------- #
# parent side

def spawn(mode: str, spec: WorkloadSpec, seed: int,
          trace_out: Optional[str] = None,
          timeout: float = TIME_LIMIT_S) -> Dict[str, object]:
    """Run one repeat in a fresh process and return what it printed."""
    command = [sys.executable, os.path.abspath(__file__), "--child", mode,
               "--workload", spec.name, "--seed", str(seed),
               "--days", str(spec.days),
               "--spawned-at", repr(time.time())]
    if trace_out:
        command += ["--trace-out", trace_out]
    # Its own process group, so a hung child goes with its shard workers.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True,
        env={**os.environ, "PYTHONHASHSEED": "0"})
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"{mode} repeat of {spec.name} exited with "
                           f"{process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def provenance(seed: int, specs: List[WorkloadSpec]) -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "parameters": {spec.name: dataclasses.asdict(spec)
                       for spec in specs},
    }


def scaled(spec: WorkloadSpec, scale: float) -> WorkloadSpec:
    """``spec`` with its timed days (all but day 0) times ``scale``."""
    return dataclasses.replace(
        spec, days=1 + max(1, round((spec.days - 1) * scale)))


def units_of(benchmark: Dict[str, object], section: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in benchmark[section]}


def with_units(values: Dict[str, float], units: Dict[str, str]
               ) -> Dict[str, Dict[str, object]]:
    """``{name: {value, unit}}`` for exactly the declared metrics."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"harness did not measure {missing}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def set_overhead_share(traced: Dict[str, object],
                       untraced_jobs_per_s: float) -> None:
    traced["per_layer"]["trace.overhead_share"] = 1.0 - (
        traced["end_to_end"]["jobs_per_s"] / untraced_jobs_per_s)


def measure_once(benchmark, spec: WorkloadSpec, seed: int, traced: bool,
                 trace_out: Optional[str]) -> int:
    """The ``BENCHMARK.json`` form: one result object on the last line."""
    deadline = time.monotonic() + TIME_LIMIT_S

    def left() -> float:
        return max(1.0, deadline - time.monotonic())

    if traced:
        untraced = spawn("full", spec, seed, timeout=left())
        result = spawn("traced", spec, seed, trace_out, left())
        set_overhead_share(result, untraced["end_to_end"]["jobs_per_s"])
        metrics = with_units(result["per_layer"],
                             units_of(benchmark, "per_layer"))
    else:
        setups = [spawn("setup", spec, seed, timeout=left())["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
        result = spawn("full", spec, seed, timeout=left())
        result["end_to_end"]["setup_s"] = statistics.median(
            setups + [result["setup_s"]])
        metrics = with_units(result["end_to_end"],
                             units_of(benchmark, "end_to_end"))
    for name, metric in metrics.items():
        print(f"{spec.name:24s} {name:34s} {metric['value']:14.6g} "
              f"{metric['unit']}")
    # The raw side of the scaled times: window_s, machine_speed, ...
    print(f"details: {json.dumps(result['details'])}")
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics}))
    return 0


def report(benchmark, specs: List[WorkloadSpec], seed: int,
           out: Optional[str], trace_out: Optional[str]) -> int:
    """Every workload, ``REPEATS`` untraced repeats plus a traced one."""
    e2e_units = units_of(benchmark, "end_to_end")
    layer_units = units_of(benchmark, "per_layer")
    untraced: Dict[str, List[Dict[str, object]]] = {
        spec.name: [] for spec in specs}
    for _ in range(REPEATS):
        for spec in specs:  # W1,W2,W3,W4,W1,...: drift spreads evenly
            untraced[spec.name].append(spawn("full", spec, seed))
    result = {"provenance": provenance(seed, specs), "repeats": REPEATS,
              "workloads": {}}
    ok = True
    for spec in specs:
        name = spec.name
        runs = untraced[name]
        end_to_end = {}
        for metric, unit in e2e_units.items():
            values = [run["end_to_end"][metric] for run in runs]
            end_to_end[metric] = {
                "median": statistics.median(values), "min": min(values),
                "max": max(values), "unit": unit, "values": values}
        path = f"{trace_out}.{name}.jsonl" if trace_out else None
        traced = spawn("traced", spec, seed, path)
        set_overhead_share(traced, end_to_end["jobs_per_s"]["median"])
        every = runs + [traced]
        entry = {
            "why": spec.why,
            "correct": all(run["correct"] for run in every),
            "attempted": sum(run["attempted"] for run in every),
            "failed": sum(run["failed"] for run in every),
            "problems": [p for run in every for p in run["problems"]],
            "end_to_end": end_to_end,
            "per_layer": with_units(traced["per_layer"], layer_units),
            "details": [run["details"] for run in every],
        }
        result["workloads"][name] = entry
        ok = ok and entry["correct"]
        print(f"\n== {name}: {entry['attempted']} jobs attempted, "
              f"{entry['failed']} failed, outputs "
              f"{'correct' if entry['correct'] else 'WRONG'}")
        for metric, row in end_to_end.items():
            print(f"  {metric:34s} {row['median']:14.6g} {row['unit']:6s} "
                  f"(min {row['min']:.6g}, max {row['max']:.6g}, "
                  f"n={len(row['values'])})")
        raw = [run["details"]["raw_jobs_per_s"] for run in runs]
        speed = [run["details"]["machine_speed"] for run in runs]
        print(f"  (as measured: jobs_per_s {min(raw):.6g} .. {max(raw):.6g} "
              f"at machine speed {min(speed):.3g} .. {max(speed):.3g})")
        for metric, row in entry["per_layer"].items():
            print(f"  {metric:34s} {row['value']:14.6g} {row['unit']}")
        for problem in entry["problems"]:
            print(f"  problem: {problem}")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="scale the timed days from run_seconds of "
                             "BENCHMARK.json (the default) to this")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="print one BENCHMARK.json result object: 0 = "
                             "end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--out", help="write the report's result JSON here")
    parser.add_argument("--trace-out",
                        help="dump the traced repeat's spans (JSON lines)")
    parser.add_argument("--child", choices=("full", "setup", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--days", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    # Let a terminated parent unwind, so spawn() takes its child along.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    benchmark = load_benchmark()
    scale = (1.0 if args.seconds is None
             else args.seconds / benchmark["run_seconds"])
    specs = [scaled(spec, scale) for spec in WORKLOADS
             if args.workload in (None, spec.name)]
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return measure_once(benchmark, specs[0], args.seed,
                            bool(args.trace), args.trace_out)
    return report(benchmark, specs, args.seed, args.out, args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
