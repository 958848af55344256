"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``run``
    Run a workload on the simulated DBMS and capture per-client trace
    files (JSONL, or binary frames with ``--format binary``) plus the
    initial database image.
``verify``
    Verify a captured trace directory against an isolation spec and print
    the verification report.
``profiles``
    Print the Fig. 1 registry of DBMS isolation-level implementations.
``bench``
    Regenerate the paper's tables/figures (same as ``python -m repro.bench``).

A typical round trip::

    python -m repro run --workload smallbank --dbms postgresql --level SR \
        --txns 2000 --clients 16 --out /tmp/capture
    python -m repro verify /tmp/capture --dbms postgresql --level SR
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import closing
from pathlib import Path
from typing import Optional, Sequence

from .core.io import (
    dump_client_streams,
    dump_initial_db,
    load_client_streams,
    load_initial_db,
)
from .core.metrics import MetricsRegistry, render_stats, run_stats
from .core.pipeline import pipeline_from_client_streams
from .core.runtime import CollectorWatch, relax_collector
from .core.spec import IsolationLevel, IsolationSpec, profile, supported_dbms
from .core.verifier import Verifier


def _build_workload(name: str, seed: int):
    from .workloads import (
        BlindW,
        InsertScanWorkload,
        ListAppendWorkload,
        LostUpdateWorkload,
        SmallBank,
        TpcC,
        WriteSkewWorkload,
        YcsbA,
    )

    factories = {
        "blindw-w": lambda: BlindW.w(seed=seed),
        "blindw-rw": lambda: BlindW.rw(seed=seed),
        "blindw-rw+": lambda: BlindW.rw_plus(seed=seed),
        "smallbank": lambda: SmallBank(scale_factor=0.5, seed=seed),
        "tpcc": lambda: TpcC(scale_factor=1, seed=seed),
        "ycsb-a": lambda: YcsbA(seed=seed),
        "ycsb-b": lambda: YcsbA.b(seed=seed),
        "ycsb-c": lambda: YcsbA.c(seed=seed),
        "ycsb-f": lambda: YcsbA.f(seed=seed),
        "list-append": lambda: ListAppendWorkload(seed=seed),
        "insert-scan": lambda: InsertScanWorkload(
            initial_rows=50, insert_ratio=0.35, delete_ratio=0.15, seed=seed
        ),
        "write-skew": lambda: WriteSkewWorkload(seed=seed),
        "lost-update": lambda: LostUpdateWorkload(seed=seed),
    }
    try:
        return factories[name]()
    except KeyError:
        known = ", ".join(sorted(factories))
        raise SystemExit(f"unknown workload {name!r}; known: {known}")


def _resolve_spec(dbms: str, level: str) -> IsolationSpec:
    try:
        iso_level = IsolationLevel(level.upper())
    except ValueError:
        options = ", ".join(lvl.value for lvl in IsolationLevel)
        raise SystemExit(f"unknown isolation level {level!r}; known: {options}")
    try:
        return profile(dbms, iso_level)
    except KeyError as exc:
        raise SystemExit(str(exc))


def _fault_plan(args):
    from .dbsim.faults import FaultPlan

    return FaultPlan(
        skip_lock_on_noop_update="noop-lock" in args.inject,
        stale_read_prob=0.05 if "stale-read" in args.inject else 0.0,
        forget_write_lock_prob=0.5 if "forget-lock" in args.inject else 0.0,
        ignore_own_write_prob=0.5 if "ignore-own-write" in args.inject else 0.0,
        dirty_read_prob=0.05 if "dirty-read" in args.inject else 0.0,
        future_read_prob=0.1 if "future-read" in args.inject else 0.0,
        phantom_skip_prob=0.05 if "phantom" in args.inject else 0.0,
        disable_fuw="no-fuw" in args.inject,
        disable_ssi="no-ssi" in args.inject,
        disable_write_locks="no-locks" in args.inject,
        seed=args.seed,
    )


def cmd_run(args) -> int:
    from .dbsim.engine import SimulatedDBMS
    from .workloads import WorkloadRunner

    spec = _resolve_spec(args.dbms, args.level)
    workload = _build_workload(args.workload, args.seed)
    db = SimulatedDBMS(spec=spec, seed=args.seed, faults=_fault_plan(args))
    runner = WorkloadRunner(
        db,
        workload,
        clients=args.clients,
        seed=args.seed,
        clock_skew=args.clock_skew,
        clock_jitter=args.clock_jitter,
    )
    run = runner.run(txns=args.txns)
    out = Path(args.out)
    dump_client_streams(run.client_streams, out, fmt=args.format)
    dump_initial_db(run.initial_db, out / "initial_db.json")
    print(
        f"{run.workload} on {spec.name}: {run.committed} committed, "
        f"{run.aborted} aborted, {run.trace_count} traces -> {out} "
        f"({args.format})"
    )
    return 0


def cmd_verify(args) -> int:
    """Exit 0 = verified clean, 1 = violations found, 2 = no verdict: the
    capture is missing, unreadable or corrupt, or its traces break the
    trace contract (a client stream not sorted by ``ts_bef``, an operation
    after its transaction's terminal).  The capture is decoded on demand
    while it is verified, so damage surfaces mid-run: one line on stderr,
    no report (daemonic shard workers are reaped at exit)."""
    try:
        return _verify(args)
    except (OSError, ValueError) as exc:
        print(f"repro verify: {args.capture}: {exc}", file=sys.stderr)
        return 2


class _TimedIterator:
    """An iterator that sums the wall time spent inside its ``next()``."""

    def __init__(self, iterator):
        self._next = iterator.__next__
        self.seconds = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        tick = time.perf_counter()
        try:
            return self._next()
        finally:
            self.seconds += time.perf_counter() - tick


def _verify(args) -> int:
    import json

    spec = _resolve_spec(args.dbms, args.level)
    capture = Path(args.capture)
    streams = load_client_streams(capture)
    initial_path = capture / "initial_db.json"
    initial_db = load_initial_db(initial_path) if initial_path.exists() else None
    instrumented = args.stats or args.stats_json is not None
    metrics = MetricsRegistry() if instrumented else None
    if args.parallel > 0:
        from .core.parallel import ParallelVerifier

        verifier = ParallelVerifier(
            spec=spec,
            initial_db=initial_db,
            shards=args.parallel,
            backend=args.parallel_backend,
            gc_every=args.gc_every,
            metrics=metrics,
        )
    else:
        verifier = Verifier(
            spec=spec,
            initial_db=initial_db,
            gc_every=args.gc_every,
            metrics=metrics,
        )
    with CollectorWatch(metrics), closing(
        pipeline_from_client_streams(streams, metrics=metrics)
    ) as pipeline:
        batches = pipeline.iter_batches()
        if instrumented:
            # Charge the pipeline's own sort/dispatch work (the time
            # spent inside the batch iterator, between batches -- capture
            # decode included, since the feeds pull it on demand) to the
            # "pipeline-sort" phase; everything inside process_batch() is
            # the mechanisms' time.
            wall_start = time.perf_counter()
            batches = _TimedIterator(batches)
        for batch in batches:
            verifier.process_batch(batch)
        report = verifier.finish()
        document = None
        if instrumented:
            wall_seconds = time.perf_counter() - wall_start
            document = run_stats(
                report,
                metrics=metrics,
                pipeline_sort_seconds=batches.seconds,
                wall_seconds=wall_seconds,
            )
    print(report.summary())
    if document is not None:
        if args.stats:
            print(render_stats(document))
        if args.stats_json is not None:
            Path(args.stats_json).write_text(
                json.dumps(document, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from .service import ServiceConfig, create_gateway

    spec = _resolve_spec(args.dbms, args.level)
    initial_db = (
        load_initial_db(Path(args.initial_db)) if args.initial_db else None
    )
    metrics = MetricsRegistry() if args.stats else None
    config = ServiceConfig(
        spec=spec,
        initial_db=initial_db,
        host=args.host,
        port=args.port,
        status_port=args.status_port,
        ingest_unix=args.unix,
        status_unix=args.status_unix,
        gc_every=args.gc_every,
        session_credit=args.credit,
        pending_budget=args.budget,
        metrics=metrics,
    )

    async def serve() -> int:
        gateway = create_gateway(config)
        await gateway.start()
        print(f"ingest endpoint : {gateway.ingest_endpoint}", flush=True)
        print(f"status endpoint : {gateway.status_endpoint}", flush=True)
        loop = asyncio.get_running_loop()

        def request_drain() -> None:
            asyncio.ensure_future(gateway.drain())

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, request_drain)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        # Runs until a drain arrives -- via signal or the status
        # endpoint's `drain` query.
        await gateway.drained.wait()
        report = gateway.final_report
        print(report.summary())
        print(f"fingerprint     : {gateway.fingerprint}")
        await gateway.aclose()
        return 0 if report.ok else 1

    return asyncio.run(serve())


def _workers(text: str) -> int:
    """``serve --workers``: N > 1 gets the pointer, not a bare choice error."""
    count = int(text)
    if count > 1:
        from .service.gateway import ONE_LOOP_ONLY

        raise argparse.ArgumentTypeError(ONE_LOOP_ONLY)
    return count


def cmd_profiles(args) -> int:
    from .bench.experiments import fig1_profiles

    print(fig1_profiles().render())
    return 0


def cmd_bench(args) -> int:
    from .bench.harness import main as bench_main

    return bench_main(args.bench_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Black-box isolation-level verification (Leopard reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a workload and capture traces")
    run_p.add_argument("--workload", default="blindw-rw")
    run_p.add_argument("--dbms", default="postgresql", choices=supported_dbms())
    run_p.add_argument("--level", default="SR")
    run_p.add_argument("--txns", type=int, default=2000)
    run_p.add_argument("--clients", type=int, default=8)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--clock-skew", type=float, default=0.0)
    run_p.add_argument("--clock-jitter", type=float, default=0.0)
    run_p.add_argument(
        "--inject",
        nargs="*",
        default=[],
        choices=[
            "noop-lock",
            "stale-read",
            "forget-lock",
            "ignore-own-write",
            "dirty-read",
            "future-read",
            "phantom",
            "no-fuw",
            "no-ssi",
            "no-locks",
        ],
        help="fault classes to inject into the engine",
    )
    run_p.add_argument("--out", required=True, help="capture directory")
    run_p.add_argument(
        "--format",
        choices=["jsonl", "binary"],
        default="jsonl",
        help="trace capture format (binary = repro.traces/v1b frames)",
    )
    run_p.set_defaults(fn=cmd_run)

    verify_p = sub.add_parser("verify", help="verify a captured trace directory")
    verify_p.add_argument("capture", help="directory written by `run`")
    verify_p.add_argument("--dbms", default="postgresql", choices=supported_dbms())
    verify_p.add_argument("--level", default="SR")
    verify_p.add_argument("--gc-every", type=int, default=512)
    verify_p.add_argument(
        "--parallel",
        type=int,
        default=0,
        metavar="N",
        help="verify with N key-partitioned shards (0 = serial verifier)",
    )
    verify_p.add_argument(
        "--parallel-backend",
        choices=["process", "inline"],
        default="process",
        help="shard execution backend for --parallel",
    )
    verify_p.add_argument(
        "--stats",
        action="store_true",
        help="instrument the run and print the stats block under the report",
    )
    verify_p.add_argument(
        "--stats-json",
        metavar="PATH",
        default=None,
        help="instrument the run and write the repro.stats/v1 JSON document",
    )
    verify_p.set_defaults(fn=cmd_verify)

    serve_p = sub.add_parser(
        "serve", help="run the online verification service (docs/service.md)"
    )
    serve_p.add_argument("--dbms", default="postgresql", choices=supported_dbms())
    serve_p.add_argument("--level", default="SR")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=7401)
    serve_p.add_argument("--status-port", type=int, default=7402)
    serve_p.add_argument(
        "--unix", default=None, metavar="PATH",
        help="serve ingest on a Unix socket instead of TCP",
    )
    serve_p.add_argument(
        "--status-unix", default=None, metavar="PATH",
        help="serve status on a Unix socket instead of TCP",
    )
    serve_p.add_argument(
        "--initial-db", default=None, metavar="PATH",
        help="initial database image (initial_db.json from `run`)",
    )
    serve_p.add_argument("--gc-every", type=int, default=512)
    serve_p.add_argument(
        "--credit", type=int, default=8,
        help="TRACES frames a session may have in flight",
    )
    serve_p.add_argument(
        "--budget", type=int, default=200_000,
        help="service-wide ceiling on staged traces",
    )
    # Leftover of the retired multi-loop tier: the ledger driver still
    # passes `--workers 1` (benchmarks/ledger/service.py:142), so the
    # spelling parses until a `benchmark` PR drops it there.
    serve_p.add_argument(
        "--workers", type=_workers, choices=[1], default=1,
        help=argparse.SUPPRESS,
    )
    serve_p.add_argument(
        "--stats", action="store_true",
        help="instrument the service (metrics query serves the registry)",
    )
    serve_p.set_defaults(fn=cmd_serve)

    profiles_p = sub.add_parser("profiles", help="print the Fig. 1 registry")
    profiles_p.set_defaults(fn=cmd_profiles)

    bench_p = sub.add_parser("bench", help="regenerate paper tables/figures")
    bench_p.add_argument("bench_args", nargs=argparse.REMAINDER)
    bench_p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "bench":
        # Hand the whole tail to the bench harness untouched (argparse's
        # REMAINDER mishandles leading options like ``--list``).
        from .bench.harness import main as bench_main

        return bench_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    # This interpreter is ours: `python -m repro`, not a caller's process
    # that happens to invoke main() (tests do, embedders may).
    relax_collector()
    sys.exit(main())
