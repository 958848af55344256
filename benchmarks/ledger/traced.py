"""The traced child process: runs the program in-process with the span
wrappers of ``spans.py`` installed and writes one ledger document.

``verify``  -- the call sequence of ``python -m repro verify`` (load,
decode, pipeline, verifier, report), first untraced for the overhead base,
then traced until the time window is spent; the pass with the median total
is the one reported, so its rows still sum to its total.

``serve``   -- the gateway of ``python -m repro serve`` on the same two
Unix sockets, so the benchmark's own driver can push frames at it while
the non-yielding sections between a frame and its credit are timed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from common import load_manifest, require_program
from spans import (
    Tracer,
    install_core,
    install_parallel_coordinator,
    install_parallel_inline,
    install_service,
)

ROOT = "ledger.unattributed"


def declared_rows() -> List[str]:
    return [m["name"] for m in load_manifest()["per_layer"]]


def verify_capture(capture: Path, shards: int, backend: str, metrics, span: Callable):
    """What ``cmd_verify`` does between argv and the printed summary."""
    from repro.core.io import load_client_streams, load_initial_db
    from repro.core.pipeline import pipeline_from_client_streams
    from repro.core.spec import PG_SERIALIZABLE
    from repro.core.verifier import Verifier

    streams = span("io.load", load_client_streams, capture)
    initial_db = span("io.load", load_initial_db, capture / "initial_db.json")
    if shards:
        from repro.core.parallel import ParallelVerifier

        verifier = ParallelVerifier(
            spec=PG_SERIALIZABLE, initial_db=initial_db, shards=shards,
            backend=backend, metrics=metrics,
        )
    else:
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=initial_db, metrics=metrics)
    pipeline = pipeline_from_client_streams(streams, metrics=metrics)
    for batch in pipeline.iter_batches():
        verifier.process_batch(batch)
    return verifier.finish()


def _counter(registry, name: str) -> int:
    return sum(registry.counters_with_name(name).values())


def ledger_document(tracer: Tracer, registry, report, total_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass: one ``<span>_s`` self-time row
    per span name, plus the counts taken at the same boundaries."""
    rows = {f"{name}_s": seconds for name, seconds in tracer.self_seconds().items()}
    calls = tracer.call_counts()
    counts = tracer.counts
    classify_calls = calls.get("versions.classify", 0)
    batches = max(0, calls.get("pipeline.sort", 0) - 1)  # last next() ends the stream
    stats = report.stats
    doc = dict(rows)
    doc.update(
        {
            "ledger.total_s": total_s,
            "ledger.unattributed_share": rows.get(f"{ROOT}_s", 0.0) / total_s,
            "codec.decode_traces": counts.get("codec.decode_traces", 0),
            "codec.bytes_in": counts.get("codec.bytes_in", 0),
            "pipeline.batches": batches,
            "pipeline.batch_traces_mean": (
                stats.traces_processed / batches if batches else 0.0
            ),
            "bus.deps_published": _counter(registry, "bus.deps.accepted")
            + _counter(registry, "bus.deps.dropped"),
            "versions.classify_calls": classify_calls,
            "versions.memo_hit_rate": (
                _counter(registry, "chain.memo.hits") / classify_calls
                if classify_calls else 0.0
            ),
            "versions.frontier_hit_rate": (
                _counter(registry, "chain.memo.frontier_hits") / classify_calls
                if classify_calls else 0.0
            ),
            "locktable.acquire_calls": calls.get("locktable.acquire", 0),
            "gc.collections": calls.get("gc.collect", 0),
            "gc.txns_pruned": stats.gc_txns_pruned,
            "gc.live_structures_peak": counts.get("gc.live_structures_peak", 0),
            "deps.wr": stats.deps_wr,
            "deps.ww": stats.deps_ww,
            "deps.rw": stats.deps_rw,
        }
    )
    shard_traces = [
        value for key, value in counts.items() if key.startswith("parallel.shard_traces.")
    ]
    if shard_traces:
        doc["parallel.shard_skew"] = max(shard_traces) / (
            sum(shard_traces) / len(shard_traces)
        )
    return doc


def cmd_verify(args) -> int:
    from repro.core.metrics import MetricsRegistry

    capture = Path(args.capture)
    started = time.perf_counter()

    def plain(_name, fn, *call_args):
        return fn(*call_args)

    untraced: List[float] = []
    reference: Optional[str] = None
    if args.coordinator_only:
        summary_runs = 0
    else:
        # The first pass pays for imports and cold caches: it is the
        # warm-up, and only the two after it are the overhead base.
        for _ in range(3):
            tick = time.perf_counter()
            reference = verify_capture(
                capture, args.parallel, args.backend, None, plain
            ).summary()
            untraced.append(time.perf_counter() - tick)
        del untraced[0]
        summary_runs = 3

    tracer = Tracer(keep_spans=bool(args.spans_out))
    if args.coordinator_only:
        install_parallel_coordinator(tracer)
    else:
        install_core(tracer, declared_rows())
        if args.parallel:
            install_parallel_inline(tracer)

    def span(name, fn, *call_args):
        return tracer.wrap(fn, name)(*call_args)

    passes: List[Dict[str, float]] = []
    summaries_agree = True
    while len(passes) < args.min_passes or (
        time.perf_counter() - started < args.seconds and len(passes) < 7
    ):
        tracer.reset()
        registry = MetricsRegistry()
        tick = time.perf_counter()
        report = span(ROOT, verify_capture, capture, args.parallel, args.backend, registry, span)
        total_s = time.perf_counter() - tick
        summary_runs += 1
        if reference is None:
            reference = report.summary()
        summaries_agree = summaries_agree and report.summary() == reference
        if args.coordinator_only:
            seconds = tracer.self_seconds()
            passes.append(
                {
                    "ledger.total_s": total_s,
                    "parallel.intake_s": seconds["parallel.intake"],
                    "parallel.tail_s": seconds["parallel.tail"],
                    "parallel.transport_bytes": _counter(registry, "parallel.transport.bytes"),
                    "parallel.transport_frames": _counter(registry, "parallel.transport.frames"),
                    "parallel.segments": _counter(registry, "parallel.stream.segments"),
                }
            )
        else:
            passes.append(ledger_document(tracer, registry, report, total_s))
    if args.spans_out:
        tracer.write_jsonl(args.spans_out)
    passes.sort(key=lambda doc: doc["ledger.total_s"])
    chosen = passes[len(passes) // 2]
    if untraced:
        chosen["trace.overhead_share"] = (
            chosen["ledger.total_s"] / (sum(untraced) / len(untraced)) - 1.0
        )
    Path(args.out).write_text(
        json.dumps(
            {
                "metrics": chosen,
                "passes": len(passes),
                "runs": summary_runs,
                "summary": reference,
                "summaries_agree": summaries_agree,
                "untraced_wall_s": untraced,
            }
        ),
        encoding="utf-8",
    )
    return 0


def cmd_serve(args) -> int:
    from repro.core.io import load_initial_db
    from repro.core.metrics import MetricsRegistry
    from repro.core.spec import PG_SERIALIZABLE
    from repro.service import ServiceConfig, create_gateway

    tracer = Tracer(keep_spans=bool(args.spans_out))
    install_core(tracer, declared_rows())
    install_service(tracer)
    registry = MetricsRegistry()
    config = ServiceConfig(
        spec=PG_SERIALIZABLE,
        initial_db=load_initial_db(Path(args.initial_db)),
        ingest_unix="i.sock",
        status_unix="s.sock",
        acceptor_workers=1,
        metrics=registry,
    )

    async def serve() -> int:
        gateway = create_gateway(config)
        cpu_started = time.process_time()
        await gateway.start()
        print(f"ingest endpoint : {gateway.ingest_endpoint}", flush=True)
        print(f"status endpoint : {gateway.status_endpoint}", flush=True)
        await gateway.drained.wait()
        cpu_s = time.process_time() - cpu_started
        report = gateway.final_report
        print(report.summary())
        print(f"fingerprint     : {gateway.fingerprint}")
        await gateway.aclose()
        doc = ledger_document(tracer, registry, report, cpu_s)
        # Everything the process burned outside the wrapped sections:
        # frame reads, credit writes, the event loop itself.
        doc["service.other_s"] = cpu_s - sum(tracer.self_seconds().values())
        Path(args.out).write_text(json.dumps({"metrics": doc}), encoding="utf-8")
        if args.spans_out:
            tracer.write_jsonl(args.spans_out)
        return 0 if report.ok else 1

    return asyncio.run(serve())


def main(argv=None) -> int:
    require_program()
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify")
    verify.add_argument("capture")
    verify.add_argument("--parallel", type=int, default=0)
    verify.add_argument("--backend", choices=["inline", "process"], default="inline")
    verify.add_argument(
        "--coordinator-only", action="store_true",
        help="process backend: time only ParallelVerifier.process_batch/finish",
    )
    verify.add_argument("--seconds", type=float, default=0.0)
    verify.add_argument("--min-passes", type=int, default=2)
    verify.add_argument("--out", required=True)
    verify.add_argument("--spans-out", default=None)
    verify.set_defaults(fn=cmd_verify)
    serve = sub.add_parser("serve")
    serve.add_argument("--initial-db", required=True)
    serve.add_argument("--out", required=True)
    serve.add_argument("--spans-out", default=None)
    serve.set_defaults(fn=cmd_serve)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
