#!/usr/bin/env python3
"""The ledger benchmark: bytes-to-verdict and socket-to-verdict on four
workloads, with a span ledger that sums to the total.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--smoke]
        [--out PATH [--allow-dirty]] [--spans-out PATH]

``--trace 0`` (default) measures the end-to-end metrics on untraced runs;
``--trace 1`` produces the per-layer metrics, most of them from a traced
child process.  ``--out`` runs both and writes one result document.  Every
metric is printed by name with its unit; the last line of standard output
is one JSON object per (workload, mode); the exit code is non-zero when
any verdict was wrong.  Definitions: ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import common
import offline
import service
import workloads
from common import median, percentile, repro_cli, run_child
from workloads import WORKLOADS, Workload

#: set-up is repeated so ``setup_s`` is a median, not one draw.
SETUP_REPEATS = 3
SCHEMA = "repro.ledger-bench/v1"


class Result:
    """What one (workload, mode) invocation measured."""

    def __init__(self, workload: str, mode: int):
        self.workload = workload
        self.mode = mode
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.capture_sha256 = ""
        self.traces = 0

    def count(self, attempted: int, problems: List[str], failed: Optional[int] = None):
        """Book ``attempted`` operations; ``failed`` defaults to one per
        problem reported."""
        self.attempted += attempted
        self.failed += len(problems) if failed is None else failed
        self.problems.extend(problems)

    def take(self, samples: Dict[str, List[float]]) -> None:
        """Record raw samples; the reported value of each is its median."""
        for name, values in samples.items():
            if values:
                self.samples[name] = list(values)
                self.metrics[name] = median(values)

    def document(self, declared) -> Dict[str, object]:
        """The result document's entry: the declared metrics of this mode
        (a layer that did not run reads 0) and every raw sample."""
        return {
            "metrics": {name: float(self.metrics.get(name, 0.0)) for name in declared},
            "samples": self.samples,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
        }


# -- set-up --------------------------------------------------------------------


def set_up(workload: Workload, seed: int, smoke: bool, workdir: Path, repeats: int, result: Result):
    """Run the set-up child ``repeats`` times (same seed, so the same bytes
    each time -- checked) and return the capture it left behind."""
    walls: List[float] = []
    speeds: List[float] = []
    capture = None
    meter = common.Speedometer()
    for _ in range(repeats):
        again, child = workloads.set_up(workload.name, seed, smoke, workdir / "capture")
        walls.append(child.wall_s)
        speeds.append(meter.after_run())
        if capture is not None and again.sha256 != capture.sha256:
            result.count(0, ["same seed produced different capture bytes"])
        capture = again
    result.take(
        {"setup_s": [wall * speed for wall, speed in zip(walls, common.steady_speeds(speeds))]}
    )
    result.capture_sha256 = capture.sha256
    result.traces = capture.traces
    return capture


def canary(workdir: Path, result: Result) -> None:
    attempted, problems = workloads.check_canary(workdir / "canary")
    result.count(attempted, problems, failed=attempted if problems else 0)


# -- mode 0: end to end, untraced ----------------------------------------------


#: a timed window always holds at least this many runs, however short.
MIN_RUNS = 3


def end_to_end(workload: Workload, capture, seconds: float, workdir: Path, result: Result):
    """Repeat the workload's timed operation for as long as one more fits
    in ``seconds`` (and at least ``MIN_RUNS`` times); times are recorded in
    calibrated seconds (:class:`common.Speedometer`)."""
    if workload.surface == "offline":
        one_run = offline.Runner(workload, capture)
    else:
        def one_run():
            return service.run_pass(capture.directory, workdir, open_loop=False).timed()
    runs: List[common.Timed] = []
    speeds: List[float] = []
    meter = common.Speedometer()
    started = time.perf_counter()
    longest = attempts = 0
    while attempts < MIN_RUNS or time.perf_counter() - started + longest < seconds:
        tick = time.perf_counter()
        run = one_run()
        speed = meter.after_run()
        longest = max(longest, time.perf_counter() - tick)
        attempts += 1
        if not run.failed and run.process.peak_rss_mb <= run.process.rss_floor_mb:
            run.problems.append("peak RSS is the benchmark's own, not the verifier's")
            run.failed = run.attempted
        result.count(run.attempted, run.problems, failed=run.failed)
        if not run.failed:
            runs.append(run)
            speeds.append(speed)
    if not runs:
        return
    speeds = common.steady_speeds(speeds)
    result.take(
        {
            "machine_speed": speeds,
            "verdict_s": [r.verdict_s * s for r, s in zip(runs, speeds)],
            "traces_per_s": [r.traces / (r.verdict_s * s) for r, s in zip(runs, speeds)],
            "cpu_s": [r.process.cpu_s * s for r, s in zip(runs, speeds)],
            "peak_rss_mb": [r.process.peak_rss_mb for r in runs],
        }
    )


# -- mode 1: per layer ---------------------------------------------------------


def traced_argv(*args: str) -> List[str]:
    return [sys.executable, str(common.LEDGER_DIR / "traced.py"), *args]


def traced_child(args: List[str], out: Path) -> Dict[str, object]:
    run = run_child(traced_argv(*args, "--out", str(out)))
    if run.returncode != 0:
        raise RuntimeError(f"traced child exited {run.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def per_layer_offline(workload: Workload, capture, seconds: float, workdir: Path, spans_out, result: Result):
    """The CLI run is the reference verdict; the traced child must print
    the same summary while producing the ledger."""
    reference = offline.verify_once(workload, capture)
    problems = [] if reference.returncode == 0 else [f"reference run exited {reference.returncode}"]
    result.count(1, problems)
    shards = str(workload.shards)
    child_args = ["verify", str(capture.directory), "--parallel", shards]
    if spans_out:
        child_args += ["--spans-out", str(spans_out)]
    # shards2 splits its window: the inline-backend ledger, then one
    # coordinator-side pass on the process backend.
    share = 0.6 if workload.shards else 1.0
    ledger = traced_child([*child_args, "--seconds", str(seconds * share)], workdir / "ledger.json")
    docs = [ledger]
    result.metrics.update(ledger["metrics"])
    if workload.shards:
        coordinator = traced_child(
            ["verify", str(capture.directory), "--parallel", shards, "--backend", "process",
             "--coordinator-only", "--min-passes", "1"],
            workdir / "coordinator.json",
        )
        docs.append(coordinator)
        result.metrics.update(
            {k: v for k, v in coordinator["metrics"].items() if k.startswith("parallel.")}
        )
        serial = run_child(repro_cli("verify", str(capture.directory)))
        result.count(1, [] if serial.returncode == 0 else [f"serial run exited {serial.returncode}"])
        result.metrics["parallel.wall_over_serial"] = reference.wall_s / serial.wall_s
        result.metrics["parallel.cpu_over_serial"] = reference.cpu_s / serial.cpu_s
    for doc in docs:
        bad = []
        if not doc["summaries_agree"] or doc["summary"].strip() != reference.stdout.strip():
            bad.append("traced summary differs from the CLI's")
        result.count(doc["runs"], bad, failed=doc["runs"] if bad else 0)


def per_layer_service(capture, seconds: float, workdir: Path, spans_out, result: Result):
    """Open-loop passes (untraced subprocess) for latency at the stated
    rate, one untraced closed-loop pass as the overhead base, then the
    traced in-process gateway under the same closed loop."""
    one_pass = capture.traces / service.OPEN_LOOP_RATE + 1.0
    opened: List[service.Pass] = []
    started = time.perf_counter()
    while not opened or time.perf_counter() - started + one_pass < seconds:
        opened.append(service.run_pass(capture.directory, workdir, open_loop=True))
        result.count(opened[-1].frames, opened[-1].problems, failed=opened[-1].failed)
    pooled = [ms for p in opened for ms in p.latencies_ms]
    late = [ms for p in opened for ms in p.late_ms]
    result.samples["ack_p50_ms"] = [percentile(p.latencies_ms, 0.50) for p in opened if p.latencies_ms]
    result.samples["ack_p90_ms"] = [percentile(p.latencies_ms, 0.90) for p in opened if p.latencies_ms]
    last = opened[-1]
    budget = last.status.get("budget", {})
    counters = last.status.get("service", {})

    closed = service.run_pass(capture.directory, workdir, open_loop=False)
    result.count(closed.frames, closed.problems, failed=closed.failed)
    out = workdir / "ledger.json"
    argv = traced_argv(
        "serve", "--initial-db", str(capture.directory / "initial_db.json"), "--out", str(out)
    )
    if spans_out:
        argv += ["--spans-out", str(spans_out)]
    traced = service.run_pass(
        capture.directory, workdir, open_loop=False, server_argv=argv, poll_status=True
    )
    result.count(traced.frames, traced.problems, failed=traced.failed)
    result.metrics.update(json.loads(out.read_text(encoding="utf-8"))["metrics"])
    result.metrics.update(
        {
            "ack_p50_ms": median(result.samples["ack_p50_ms"]) if pooled else 0.0,
            "ack_p90_ms": median(result.samples["ack_p90_ms"]) if pooled else 0.0,
            "service.ack_p95_ms": percentile(pooled, 0.95) if pooled else 0.0,
            "service.ack_p99_ms": percentile(pooled, 0.99) if pooled else 0.0,
            "service.generator_late_ms_p95": percentile(late, 0.95) if late else 0.0,
            "service.offered_rate": median([p.offered_rate for p in opened]),
            "service.frames": counters.get("frames", 0),
            "service.bytes_in": counters.get("bytes", 0),
            "service.pending_peak": budget.get("pending_peak", 0),
            "service.budget_stalls": budget.get("stalls", 0),
            "service.drain_ms": last.drain_ms,
            "service.status_query_ms_p50": (
                median(traced.status_query_ms) if traced.status_query_ms else 0.0
            ),
            "service.wall_over_offline": closed.verdict_s / closed.offline_wall_s,
            "trace.overhead_share": traced.verdict_s / closed.verdict_s - 1.0,
        }
    )


# -- one invocation ------------------------------------------------------------


def run_one(name: str, mode: int, seed: int, seconds: float, smoke: bool, spans_out) -> Result:
    workload = WORKLOADS[name]
    result = Result(name, mode)
    workdir = common.REPO_ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        repeats = SETUP_REPEATS if mode == 0 else 1
        capture = set_up(workload, seed, smoke, workdir, repeats, result)
        canary(workdir, result)
        if mode == 0:
            end_to_end(workload, capture, seconds, workdir, result)
        elif workload.surface == "offline":
            per_layer_offline(workload, capture, seconds, workdir, spans_out, result)
        else:
            per_layer_service(capture, seconds, workdir, spans_out, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another invocation is still using it
    result.metrics["failed_share"] = result.failed / result.attempted
    return result


def report(result: Result, manifest: Dict[str, object]) -> Dict[str, object]:
    """Print every metric of the mode by name with its unit and return the
    driver's result object.  A per-layer row whose layer does not run on
    this workload reads 0."""
    section = "end_to_end" if result.mode == 0 else "per_layer"
    units = common.metric_units(manifest, section)
    print(f"== {result.workload} [{section}] traces={result.traces} "
          f"capture_sha256={result.capture_sha256[:16]}")
    metrics = {}
    for name, value in result.document(units)["metrics"].items():
        unit = units[name]
        samples = result.samples.get(name)
        spread = ""
        if samples and len(samples) > 1:
            q1, q3 = common.quartiles(samples)
            spread = f"   (n={len(samples)} q1={q1:.6g} q3={q3:.6g})"
        print(f"{name:<34} {value:>14.6g} {unit}{spread}")
        metrics[name] = {"value": value, "unit": unit}
    if "machine_speed" in result.metrics:
        # Not a metric of the program: the factor the times above carry.
        print(f"{'(machine_speed':<34} {result.metrics['machine_speed']:>14.6g} ratio; "
              f"times are wall seconds x this)")
    for problem in result.problems:
        print(f"FAILED: {problem}")
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


# -- provenance ----------------------------------------------------------------


def git_commit() -> str:
    """``<short sha>`` or ``<short sha>-dirty``; ``unknown`` outside git."""
    try:
        sha = subprocess.run(
            ["git", "-C", str(common.REPO_ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(common.REPO_ROOT), "status", "--porcelain"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{sha}-dirty" if dirty else sha


def main(argv=None) -> int:
    common.require_program()
    manifest = common.load_manifest()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="default: all four, in manifest order")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per invocation (default: the manifest's run_seconds; 2 with --smoke)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace")
    parser.add_argument("--smoke", action="store_true", help="shrink every workload; whole suite < 30 s")
    parser.add_argument("--out", default=None, help="write the result document (runs both modes)")
    parser.add_argument("--allow-dirty", action="store_true")
    parser.add_argument("--spans-out", default=None, help="traced run: write its spans as JSONL")
    args = parser.parse_args(argv)

    commit = git_commit()
    if args.out and commit.endswith("-dirty") and not args.allow_dirty:
        parser.error("refusing to write --out from a dirty tree (pass --allow-dirty to label it so)")
    seconds = args.seconds if args.seconds is not None else (2.0 if args.smoke else float(manifest["run_seconds"]))
    names = [args.workload] if args.workload else [w["name"] for w in manifest["workloads"]]
    modes = [0, 1] if args.out else [args.trace]
    _env, stripped = common.child_env()
    document = {
        "schema": SCHEMA,
        "provenance": {
            "commit": commit, "nproc": os.cpu_count(), "python": platform.python_version(),
            "seed": args.seed, "seconds": seconds, "smoke": args.smoke,
            "setup_repeats": SETUP_REPEATS, "stripped_env": stripped,
        },
        "workloads": {},
    }
    correct = True
    for name in names:
        entry = document["workloads"].setdefault(name, {})
        for mode in modes:
            result = run_one(name, mode, args.seed, seconds, args.smoke, args.spans_out)
            line = report(result, manifest)
            correct = correct and line["correct"]
            entry["capture_sha256"] = result.capture_sha256
            entry["traces"] = result.traces
            section = "end_to_end" if mode == 0 else "per_layer"
            entry[section] = result.document(common.metric_units(manifest, section))
            print(json.dumps(line), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
