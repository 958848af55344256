"""Load driver: measure the gateway's ingest ceiling and prove the
offline equivalence at scale.

The harness starts an :class:`~repro.service.gateway.IngestGateway`
in-process on Unix sockets, drives ``sessions`` concurrent protocol
clients pushing a deterministic synthetic workload, polls the status
endpoint while the run is hot, drains, and then re-verifies the *same*
streams offline through the batch path -- asserting the two reports
fingerprint identically and that pending-event memory stayed under the
configured budget (the soak contract of ``docs/service.md``).

The synthetic workload is built for scale, not for bug hunting: each
client increments its own account key and reads a shared never-written
hot key, so the history is clean, every version chain keeps growing (GC
has real work) and timestamps are globally unique by construction.
Streams are generated lazily -- the driver never materialises the whole
history, so peak memory is the service's own staging, which is exactly
what the soak is measuring.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..core.codec import encode_batch
from ..core.metrics import MetricsRegistry
from ..core.pipeline import pipeline_from_client_streams
from ..core.report import report_fingerprint
from ..core.spec import PG_SERIALIZABLE, IsolationSpec
from ..core.trace import Trace
from ..core.verifier import Verifier
from . import protocol
from .gateway import ServiceConfig, create_gateway
from .sessions import SEQ_BITS

#: Traces per synthetic transaction: read own, write own, read hot, commit.
TRACES_PER_TXN = 4

#: Timestamp layout: one slot per operation; client sub-slots keep every
#: timestamp in the whole history distinct (ties never arise, so arrival
#: interleaving cannot influence dispatch order).
_OP_STEP = 1e-4


@dataclass
class LoadConfig:
    """One load run (``--quick`` and the soak are presets over this)."""

    traces: int = 100_000
    sessions: int = 16
    frame_traces: int = 512
    session_credit: int = 8
    pending_budget: int = 200_000
    gc_every: int = 512
    hot_keys: int = 16
    spec: IsolationSpec = PG_SERIALIZABLE
    #: status-endpoint poll cadence while ingesting (0 disables).
    poll_interval: float = 0.25
    #: directory for the Unix sockets (a tmpdir in practice).
    socket_dir: str = "/tmp"

    @property
    def txns_per_client(self) -> int:
        per_client = max(1, self.traces // (self.sessions * TRACES_PER_TXN))
        return per_client

    @property
    def actual_traces(self) -> int:
        return self.txns_per_client * TRACES_PER_TXN * self.sessions


def synthetic_stream(cfg: LoadConfig, client_id: int) -> Iterator[Trace]:
    """Client ``client_id``'s monotone trace stream, lazily."""
    own = ("acct", client_id)
    sub = client_id * (_OP_STEP / (4 * max(cfg.sessions, 1)))
    for j in range(cfg.txns_per_client):
        txn = f"c{client_id}x{j}"
        base = j * TRACES_PER_TXN * _OP_STEP + sub
        t0 = base
        t1 = base + _OP_STEP
        t2 = base + 2 * _OP_STEP
        t3 = base + 3 * _OP_STEP
        width = _OP_STEP / 8
        hot = ("hot", (client_id + j) % cfg.hot_keys)
        yield Trace.read(
            t0, t0 + width, txn, {own: {"v": j}}, client_id=client_id, op_index=0
        )
        yield Trace.write(
            t1, t1 + width, txn, {own: {"v": j + 1}}, client_id=client_id, op_index=1
        )
        yield Trace.read(
            t2, t2 + width, txn, {hot: {"v": 0}}, client_id=client_id, op_index=2
        )
        yield Trace.commit(t3, t3 + width, txn, client_id=client_id, op_index=3)


def initial_db(cfg: LoadConfig) -> Dict[object, Dict[str, object]]:
    db: Dict[object, Dict[str, object]] = {
        ("acct", c): {"v": 0} for c in range(cfg.sessions)
    }
    db.update({("hot", h): {"v": 0} for h in range(cfg.hot_keys)})
    return db


def _stamped_stream(cfg: LoadConfig, client_id: int) -> Iterator[Trace]:
    """The offline replica of what the gateway ingests: the same stream
    with the same deterministic trace ids the session registry stamps."""
    base = client_id << SEQ_BITS
    for seq, trace in enumerate(synthetic_stream(cfg, client_id)):
        yield dataclasses.replace(trace, trace_id=base + seq)


def iter_frames(cfg: LoadConfig, client_id: int) -> Iterator[bytes]:
    """Encode the client's stream into wire frames, lazily."""
    batch: List[Trace] = []
    for trace in synthetic_stream(cfg, client_id):
        batch.append(trace)
        if len(batch) >= cfg.frame_traces:
            yield protocol.traces_frame(encode_batch(batch))
            batch = []
    if batch:
        yield protocol.traces_frame(encode_batch(batch))


# -- protocol client ----------------------------------------------------------


async def drive_client(
    path: str,
    client_id: int,
    frames: Iterator[bytes],
    start_gate: Optional["asyncio.Barrier"] = None,
) -> Dict[str, object]:
    """One well-behaved session: honour credit, send every frame, say
    BYE, wait for the ack.

    ``start_gate`` synchronises session start-up: every participant
    registers (HELLO/WELCOME) before any of them streams data.  Without
    it a fast client could push the dispatch watermark past a slower
    client's first timestamp before that client ever says HELLO -- and
    the gateway refuses traces behind the dispatched watermark."""
    reader, writer = await asyncio.open_unix_connection(path)
    stats: Dict[str, object] = {
        "client": client_id,
        "frames": 0,
        "errors": [],
        "acked": None,
        "latencies": [],
    }
    # Ingest latency per frame: send -> matching CREDIT return.  The
    # server returns exactly one credit per drained frame, in order, so
    # a FIFO of send timestamps pairs them up without sequence numbers.
    sent_at: "deque" = deque()
    latencies: List[float] = stats["latencies"]
    try:
        writer.write(protocol.SERVICE_MAGIC + protocol.hello_frame(client_id))
        await writer.drain()
        payload = await protocol.read_frame(reader)
        tag, body = protocol.split_frame(payload)
        if tag != protocol.S_WELCOME:
            raise protocol.ServiceProtocolError(
                f"expected WELCOME, got {protocol.TAG_NAMES.get(tag, hex(tag))}"
            )
        welcome = protocol.parse_control(tag, body)
        if start_gate is not None:
            await start_gate.wait()
        credit = asyncio.Semaphore(int(welcome["credit"]))
        finished = asyncio.Event()

        async def read_loop() -> None:
            while True:
                payload = await protocol.read_frame(reader)
                if payload is None:
                    # Server went away: unblock the sender so it can exit.
                    credit.release()
                    finished.set()
                    return
                tag, body = protocol.split_frame(payload)
                if tag == protocol.S_CREDIT:
                    now = time.perf_counter()
                    for _ in range(int(protocol.parse_control(tag, body)["frames"])):
                        if sent_at:
                            latencies.append(now - sent_at.popleft())
                        credit.release()
                elif tag == protocol.S_ERROR:
                    stats["errors"].append(protocol.parse_control(tag, body))
                    credit.release()
                    finished.set()
                    return
                elif tag == protocol.S_BYE:
                    stats["acked"] = protocol.parse_control(tag, body)[
                        "traces_accepted"
                    ]
                    finished.set()
                    return

        reader_task = asyncio.ensure_future(read_loop())
        try:
            for frame in frames:
                await credit.acquire()
                if finished.is_set():
                    break
                sent_at.append(time.perf_counter())
                writer.write(frame)
                await writer.drain()
                stats["frames"] += 1
            if not finished.is_set():
                writer.write(protocol.bye_frame())
                await writer.drain()
            await finished.wait()
        finally:
            reader_task.cancel()
            try:
                await reader_task
            except (asyncio.CancelledError, Exception):
                pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return stats


async def query_status(path: str, request: str) -> Dict[str, object]:
    """One status-endpoint round trip over a Unix socket."""
    import json

    reader, writer = await asyncio.open_unix_connection(path)
    try:
        writer.write(request.encode("utf-8") + b"\n")
        await writer.drain()
        line = await reader.readline()
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


# -- the run ------------------------------------------------------------------


def _percentile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of an unsorted sample (None when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def _latency_summary(values: List[float]) -> Optional[Dict[str, object]]:
    """p50/p95/p99 of one latency sample, rounded to microseconds."""
    if not values:
        return None
    return {
        "count": len(values),
        "p50": round(_percentile(values, 0.50), 6),
        "p95": round(_percentile(values, 0.95), 6),
        "p99": round(_percentile(values, 0.99), 6),
    }


def offline_fingerprint(cfg: LoadConfig) -> str:
    """Verify the identical streams through the offline batch path and
    fingerprint the report."""
    verifier = Verifier(
        spec=cfg.spec, initial_db=initial_db(cfg), gc_every=cfg.gc_every
    )
    streams = {
        client_id: _stamped_stream(cfg, client_id)
        for client_id in range(cfg.sessions)
    }
    pipeline = pipeline_from_client_streams(streams, batch_size=cfg.frame_traces)
    for batch in pipeline.iter_batches():
        verifier.process_batch(batch)
    return report_fingerprint(verifier.finish())


async def run_load(cfg: LoadConfig) -> Dict[str, object]:
    """The full measurement: serve, drive, poll, drain, compare."""
    import os

    ingest_path = os.path.join(cfg.socket_dir, f"repro-ingest-{os.getpid()}.sock")
    status_path = os.path.join(cfg.socket_dir, f"repro-status-{os.getpid()}.sock")
    for path in (ingest_path, status_path):
        if os.path.exists(path):
            os.unlink(path)
    gateway = create_gateway(
        ServiceConfig(
            spec=cfg.spec,
            initial_db=initial_db(cfg),
            ingest_unix=ingest_path,
            status_unix=status_path,
            gc_every=cfg.gc_every,
            session_credit=cfg.session_credit,
            pending_budget=cfg.pending_budget,
            # Instrumented so the status endpoint's metrics block carries
            # real numbers during the soak; the documented registry
            # overhead is <5%.
            metrics=MetricsRegistry(),
        )
    )
    await gateway.start()
    polls = {"count": 0, "pending_max": 0}
    stop_polling = asyncio.Event()

    async def poll_loop() -> None:
        while not stop_polling.is_set():
            try:
                doc = await query_status(status_path, "status")
                polls["count"] += 1
                pending = doc.get("budget", {}).get("pending", 0)
                polls["pending_max"] = max(polls["pending_max"], pending)
            except (ConnectionError, OSError, ValueError):
                pass
            try:
                await asyncio.wait_for(
                    stop_polling.wait(), timeout=cfg.poll_interval
                )
            except asyncio.TimeoutError:
                pass

    poller = (
        asyncio.ensure_future(poll_loop()) if cfg.poll_interval > 0 else None
    )
    ingest_start = time.perf_counter()
    start_gate = asyncio.Barrier(cfg.sessions)
    client_stats = await asyncio.gather(
        *(
            drive_client(
                ingest_path,
                client_id,
                iter_frames(cfg, client_id),
                start_gate=start_gate,
            )
            for client_id in range(cfg.sessions)
        )
    )
    ingest_seconds = time.perf_counter() - ingest_start
    stop_polling.set()
    if poller is not None:
        await poller

    drain_start = time.perf_counter()
    drain_doc = await query_status(status_path, "drain")
    drain_seconds = time.perf_counter() - drain_start
    report = gateway.final_report
    await gateway.aclose()
    for path in (ingest_path, status_path):
        if os.path.exists(path):
            os.unlink(path)

    total = cfg.actual_traces
    accepted = sum(int(s["acked"] or 0) for s in client_stats)
    offline_start = time.perf_counter()
    offline = offline_fingerprint(cfg)
    offline_seconds = time.perf_counter() - offline_start
    all_latencies = [lat for s in client_stats for lat in s["latencies"]]
    return {
        "schema": "repro.service-load/v3",
        "traces": total,
        "traces_accepted": accepted,
        "sessions": cfg.sessions,
        "ingest_latency": _latency_summary(all_latencies),
        "session_latency": [
            {"client": s["client"], **(_latency_summary(s["latencies"]) or {})}
            for s in client_stats
            if s["latencies"]
        ],
        "frame_traces": cfg.frame_traces,
        "session_credit": cfg.session_credit,
        "pending_budget": cfg.pending_budget,
        "ingest_seconds": round(ingest_seconds, 3),
        "traces_per_sec": round(total / ingest_seconds, 1) if ingest_seconds else 0.0,
        "drain_seconds": round(drain_seconds, 3),
        "offline_seconds": round(offline_seconds, 3),
        "pending_peak": gateway.pending_peak,
        "within_budget": gateway.pending_peak <= cfg.pending_budget,
        "budget_stalls": gateway.stalls_total,
        "status_polls": polls["count"],
        "status_pending_max": polls["pending_max"],
        "client_errors": sum(len(s["errors"]) for s in client_stats),
        "online_fingerprint": drain_doc.get("fingerprint"),
        "offline_fingerprint": offline,
        "fingerprints_match": drain_doc.get("fingerprint") == offline,
        "report_ok": bool(report.ok) if report is not None else None,
        "violations": len(report.violations) if report is not None else None,
    }


def run_load_sync(cfg: Optional[LoadConfig] = None) -> Dict[str, object]:
    """Synchronous entry point (CLI / bench harness)."""
    return asyncio.run(run_load(cfg or LoadConfig()))
