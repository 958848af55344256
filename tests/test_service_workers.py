"""The multi-loop ingest tier: cross-worker cursor handoff, poison
isolation across acceptor workers, and drain-fingerprint identity.

The single-loop ``IngestGateway`` stays the reference oracle (PR 9 keeps
its code verbatim behind ``create_gateway``); these tests pin the sharded
tier to the same observable behavior.  The fingerprint-identity matrix
runs real subprocesses (like ``tests/test_hashseed.py``) so each gateway
gets a clean interpreter to fork its acceptor workers from.
"""

import asyncio
import json
import os
import subprocess
import sys

from repro import PG_SERIALIZABLE, OnlineVerifier, Verifier
from repro import pipeline_from_client_streams
from repro.core.codec import encode_batch
from repro.core.io import dump_client_streams, load_client_streams
from repro.core.report import report_fingerprint
from repro.core.trace import SEQ_BITS, Trace
from repro.service import (
    IngestGateway,
    MultiLoopGateway,
    ServiceConfig,
    create_gateway,
)
from repro.service import protocol
from repro.service.load import (
    LoadConfig,
    drive_client,
    initial_db,
    iter_frames,
    offline_fingerprint,
)


def _quick_cfg(tmp_path, **overrides) -> LoadConfig:
    defaults = dict(
        traces=640,
        sessions=2,
        shards=2,
        workers=2,
        backend="inline",
        frame_traces=16,
        session_credit=4,
        pending_budget=5_000,
        gc_every=64,
        socket_dir=str(tmp_path),
    )
    defaults.update(overrides)
    return LoadConfig(**defaults)


def _gateway(cfg: LoadConfig, tmp_path) -> MultiLoopGateway:
    return create_gateway(
        ServiceConfig(
            spec=cfg.spec,
            initial_db=initial_db(cfg),
            ingest_unix=os.path.join(str(tmp_path), "ingest.sock"),
            status_unix=os.path.join(str(tmp_path), "status.sock"),
            shards=cfg.shards,
            backend=cfg.backend,
            gc_every=cfg.gc_every,
            session_credit=cfg.session_credit,
            pending_budget=cfg.pending_budget,
            acceptor_workers=cfg.workers,
        )
    )


async def _partial_session(path, client_id, frames):
    """Send ``frames`` without BYE, then drop the connection."""
    reader, writer = await asyncio.open_unix_connection(path)
    writer.write(protocol.SERVICE_MAGIC + protocol.hello_frame(client_id))
    await writer.drain()
    payload = await protocol.read_frame(reader)
    tag, _ = protocol.split_frame(payload)
    assert tag == protocol.S_WELCOME
    for frame in frames:
        writer.write(frame)
        await writer.drain()
        payload = await protocol.read_frame(reader)
        tag, _ = protocol.split_frame(payload)
        assert tag == protocol.S_CREDIT
    writer.close()
    await writer.wait_closed()


async def _connect_and_hello(path, client_id):
    """Open a session and handshake, but send no traces yet: a bound
    idle client pins the watermark at its -inf floor, so nothing another
    session streams meanwhile can be dispatched past it."""
    reader, writer = await asyncio.open_unix_connection(path)
    writer.write(protocol.SERVICE_MAGIC + protocol.hello_frame(client_id))
    await writer.drain()
    payload = await protocol.read_frame(reader)
    tag, _ = protocol.split_frame(payload)
    assert tag == protocol.S_WELCOME
    return reader, writer


async def _stream_and_bye(reader, writer, frames):
    acked = 0
    for frame in frames:
        writer.write(frame)
        await writer.drain()
        while True:
            payload = await protocol.read_frame(reader)
            tag, _ = protocol.split_frame(payload)
            if tag == protocol.S_CREDIT:
                acked += 1
                break
            assert tag in (protocol.S_PAUSE, protocol.S_RESUME)
    writer.write(protocol.bye_frame())
    await writer.drain()
    while True:
        payload = await protocol.read_frame(reader)
        tag, _ = protocol.split_frame(payload)
        if tag == protocol.S_BYE:
            break
    writer.close()
    await writer.wait_closed()
    return acked


async def _bad_client(path, client_id, bad_payload):
    """Connect, handshake, send one poison frame, return the ERROR."""
    reader, writer = await asyncio.open_unix_connection(path)
    try:
        writer.write(protocol.SERVICE_MAGIC + protocol.hello_frame(client_id))
        await writer.drain()
        payload = await protocol.read_frame(reader)
        tag, body = protocol.split_frame(payload)
        if tag == protocol.S_ERROR:
            # Refused at HELLO (e.g. an evicted client rejoining).
            return protocol.parse_control(tag, body)
        assert tag == protocol.S_WELCOME
        writer.write(bad_payload)
        await writer.drain()
        while True:
            payload = await protocol.read_frame(reader)
            if payload is None:
                return None
            tag, body = protocol.split_frame(payload)
            if tag == protocol.S_ERROR:
                return protocol.parse_control(tag, body)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestFactory:
    def test_single_loop_stays_the_reference_gateway(self, tmp_path):
        # acceptor_workers=1 must return the untouched single-loop class,
        # not a one-worker multi-loop arrangement: it is the oracle every
        # multi-worker drain is compared against.
        config = ServiceConfig(
            ingest_unix=os.path.join(str(tmp_path), "i.sock"),
            status_unix=os.path.join(str(tmp_path), "s.sock"),
            acceptor_workers=1,
        )
        assert type(create_gateway(config)) is IngestGateway

    def test_multi_loop_requires_two_workers(self, tmp_path):
        config = ServiceConfig(
            ingest_unix=os.path.join(str(tmp_path), "i.sock"),
            status_unix=os.path.join(str(tmp_path), "s.sock"),
            acceptor_workers=2,
        )
        assert type(create_gateway(config)) is MultiLoopGateway


class TestCrossWorkerHandoff:
    def test_reconnect_resumes_on_a_different_worker(self, tmp_path):
        """Sessions are dealt round robin by accept order (session 1 ->
        worker 0, session 2 -> worker 1, session 3 -> worker 0), so the
        choreography below lands client 0's dropped connection and its
        resume on DIFFERENT workers -- the coordinator directory carries
        the cursor across the handoff and the drained report is still
        byte-identical to the offline run."""
        cfg = _quick_cfg(tmp_path)

        async def scenario():
            gateway = _gateway(cfg, tmp_path)
            await gateway.start()
            ingest = gateway.ingest_endpoint
            try:
                frames = list(iter_frames(cfg, 0))
                half = len(frames) // 2
                # Session 1 (worker 0): client 1 binds and idles -- its
                # -inf floor pins the watermark so client 0's resume
                # below can never trip the late-join rule.
                held = await _connect_and_hello(ingest, 1)
                # Session 2 (worker 1): client 0's first half, dropped
                # without BYE.
                await _partial_session(ingest, 0, frames[:half])
                # Session 3 (worker 0): the same client resumes from its
                # coordinator-held cursor on the OTHER worker.
                resumed = await drive_client(ingest, 0, iter(frames[half:]))
                # Client 1 now streams its whole history on session 1.
                other_acked = await _stream_and_bye(*held, iter_frames(cfg, 1))
                report = await gateway.drain()
            finally:
                await gateway.aclose()
            return gateway, resumed, other_acked, report

        gateway, resumed, other_acked, report = asyncio.run(scenario())
        assert not resumed["errors"]
        per_client = cfg.actual_traces // cfg.sessions
        # One credit per drained frame: client 1's whole stream.
        assert other_acked == per_client // cfg.frame_traces
        assert gateway.traces_total == cfg.actual_traces
        # The handoff really crossed processes: client 0 was served by
        # both acceptor workers, client 1 by one.
        assert gateway.directory.client_record(0).workers == {0, 1}
        assert gateway.directory.client_record(1).workers == {0}
        assert report.ok
        from repro.core.report import report_fingerprint

        assert report_fingerprint(report) == offline_fingerprint(cfg)

    def test_worker_counts_sum_to_accepted(self, tmp_path):
        cfg = _quick_cfg(tmp_path)

        async def scenario():
            gateway = _gateway(cfg, tmp_path)
            await gateway.start()
            try:
                gate = asyncio.Barrier(cfg.sessions)
                await asyncio.gather(
                    *(
                        drive_client(
                            gateway.ingest_endpoint,
                            c,
                            iter_frames(cfg, c),
                            start_gate=gate,
                        )
                        for c in range(cfg.sessions)
                    )
                )
                await gateway.drain()
            finally:
                await gateway.aclose()
            return gateway

        gateway = asyncio.run(scenario())
        counts = gateway.worker_trace_counts()
        assert len(counts) == cfg.workers
        assert sum(counts) == cfg.actual_traces
        # Round-robin placement with one session per client spreads the
        # fleet: no worker sat idle.
        assert all(count > 0 for count in counts)


class TestPoisonIsolation:
    def test_poison_evicts_across_workers_without_stalling_good_clients(
        self, tmp_path
    ):
        """A poison frame on worker 0 must (a) not stall good clients on
        either worker, (b) evict the client service-wide so its re-HELLO
        is refused even when the retry lands on worker 1, and (c) leave
        the drained report byte-identical to the offline run."""
        cfg = _quick_cfg(tmp_path)

        async def scenario():
            gateway = _gateway(cfg, tmp_path)
            await gateway.start()
            ingest = gateway.ingest_endpoint
            try:
                # Session 1 -> worker 0: client 99 registers in watermark
                # accounting, then sends garbage.  Without service-wide
                # eviction its -inf floor would hold every worker's
                # sessions forever.
                error = await _bad_client(
                    ingest, 99, protocol.traces_frame(b"\x00 not a batch")
                )
                # Sessions 2 and 3 -> workers 1 and 0: the good clients.
                gate = asyncio.Barrier(cfg.sessions)
                stats = await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            drive_client(
                                ingest,
                                c,
                                iter_frames(cfg, c),
                                start_gate=gate,
                            )
                            for c in range(cfg.sessions)
                        )
                    ),
                    timeout=60,
                )
                # Session 4 -> worker 1: the evicted client retries on
                # the OTHER worker and is refused at HELLO.
                refused = await _bad_client(ingest, 99, protocol.bye_frame())
                report = await gateway.drain()
            finally:
                await gateway.aclose()
            return gateway, error, stats, refused, report

        gateway, error, stats, refused, report = asyncio.run(scenario())
        assert error is not None
        assert gateway.evictions_total == 1
        per_client = cfg.actual_traces // cfg.sessions
        assert [s["acked"] for s in stats] == [per_client] * cfg.sessions
        assert not any(s["errors"] for s in stats)
        assert refused is not None and "evicted" in refused["message"]
        assert report.ok
        from repro.core.report import report_fingerprint

        assert report_fingerprint(report) == offline_fingerprint(cfg)


# -- one id scheme: offline files == N=1 gateway == N=2 tier, ties included ----


def _tied_streams(clients=(0, 1, 2), txns=24):
    """Every client runs on the same timestamp grid, so operation ``k``
    of every client carries the same ``ts_bef``: cross-client order is
    decided by the trace ids alone."""
    streams = {}
    for client in clients:
        key = ("acct", client)
        stream = streams[client] = []
        for j in range(txns):
            txn, t = f"c{client}x{j}", float(3 * j)
            stream.append(
                Trace.write(t, t + 0.5, txn, {key: {"v": j + 1}}, client_id=client)
            )
            stream.append(
                Trace.commit(t + 1, t + 1.5, txn, client_id=client, op_index=1)
            )
    return streams


def _order(traces):
    return [(t.ts_bef, t.client_id, t.trace_id) for t in traces]


class TestOneIdScheme:
    """Offline capture files, the single-loop gateway and the two-worker
    tier all stamp ``client_id << SEQ_BITS | seq`` at decode.  With equal
    ``ts_bef`` on every client the dispatch order is then ``(ts_bef,
    client_id, arrival)`` on all three, trace ids included, and the
    reports are byte-identical."""

    def _offline(self, directory, db):
        dispatched = []
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=db)
        pipeline = pipeline_from_client_streams(load_client_streams(directory))
        for batch in pipeline.iter_batches():
            dispatched.extend(batch)
            verifier.process_batch(batch)
        return _order(dispatched), report_fingerprint(verifier.finish())

    def _served(self, streams, db, tmp_path, workers, monkeypatch):
        dispatched = []
        plain = OnlineVerifier._dispatch

        def recording(self, batch):
            dispatched.extend(batch)
            return plain(self, batch)

        monkeypatch.setattr(OnlineVerifier, "_dispatch", recording)
        sockets = tmp_path / f"workers{workers}"
        sockets.mkdir()
        frames = {
            client: [
                protocol.traces_frame(encode_batch(stream[i : i + 10]))
                for i in range(0, len(stream), 10)
            ]
            for client, stream in streams.items()
        }

        async def scenario():
            gateway = create_gateway(
                ServiceConfig(
                    initial_db=db,
                    ingest_unix=str(sockets / "ingest.sock"),
                    status_unix=str(sockets / "status.sock"),
                    acceptor_workers=workers,
                )
            )
            await gateway.start()
            try:
                gate = asyncio.Barrier(len(streams))
                stats = await asyncio.gather(
                    *(
                        drive_client(
                            gateway.ingest_endpoint,
                            client,
                            iter(client_frames),
                            start_gate=gate,
                        )
                        for client, client_frames in frames.items()
                    )
                )
                report = await gateway.drain()
            finally:
                await gateway.aclose()
            return stats, report

        stats, report = asyncio.run(scenario())
        monkeypatch.undo()
        assert [s["errors"] for s in stats] == [[]] * len(stats)
        return _order(dispatched), report_fingerprint(report)

    def test_tied_timestamps_dispatch_identically_everywhere(
        self, tmp_path, monkeypatch
    ):
        streams = _tied_streams()
        db = {("acct", client): {"v": 0} for client in streams}
        expected = [
            (t.ts_bef, client, (client << SEQ_BITS) + seq)
            for client, stream in streams.items()
            for seq, t in enumerate(stream)
        ]
        expected.sort()
        runs = {}
        for fmt in ("binary", "jsonl"):
            dump_client_streams(streams, tmp_path / fmt, fmt=fmt)
            runs[fmt] = self._offline(tmp_path / fmt, db)
        for workers in (1, 2):
            runs[workers] = self._served(streams, db, tmp_path, workers, monkeypatch)
        for name, (order, _fingerprint) in runs.items():
            assert order == expected, name
        assert len({fingerprint for _, fingerprint in runs.values()}) == 1


# -- drain-fingerprint identity matrix (subprocess) ----------------------------

_FINGERPRINT_SCRIPT = r"""
import json, sys, tempfile
from repro.core.io import dump_client_streams, load_client_streams
from repro.core.parallel import ParallelVerifier
from repro.core.pipeline import pipeline_from_client_streams
from repro.core.report import report_fingerprint
from repro.service.load import LoadConfig, initial_db, run_load_sync, synthetic_stream

workers = int(sys.argv[1])
with tempfile.TemporaryDirectory(prefix="repro-svc-test-") as socket_dir:
    cfg = LoadConfig(
        traces=640,
        sessions=4,
        shards=2,
        workers=workers,
        backend="inline",
        frame_traces=16,
        session_credit=4,
        pending_budget=5_000,
        gc_every=64,
        poll_interval=0.1,
        socket_dir=socket_dir,
    )
    doc = run_load_sync(cfg)
    # The third leg: the same streams as capture files, stamped at decode
    # by the lazy offline loader.
    dump_client_streams(
        {c: synthetic_stream(cfg, c) for c in range(cfg.sessions)},
        socket_dir + "/capture",
        fmt="binary",
    )
    verifier = ParallelVerifier(
        spec=cfg.spec, initial_db=initial_db(cfg), shards=cfg.shards,
        backend=cfg.backend, gc_every=cfg.gc_every,
    )
    pipeline = pipeline_from_client_streams(
        load_client_streams(socket_dir + "/capture"), batch_size=cfg.frame_traces
    )
    for batch in pipeline.iter_batches():
        verifier.process_batch(batch)
    from_files = report_fingerprint(verifier.finish())
print(
    json.dumps(
        {
            "online": doc["online_fingerprint"],
            "offline": doc["offline_fingerprint"],
            "from_files": from_files,
            "match": doc["fingerprints_match"],
            "worker_traces": doc["worker_traces"],
            "traces_accepted": doc["traces_accepted"],
            "client_errors": doc["client_errors"],
            "report_ok": doc["report_ok"],
        }
    )
)
"""


def _run_load_subprocess(workers: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SCRIPT, str(workers)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestFingerprintIdentity:
    def test_workers_1_and_2_drain_identically_to_offline(self):
        """The whole matrix in one pass: the single-loop gateway (the
        pre-PR reference path, selected verbatim by ``create_gateway``)
        and the two-worker tier must both drain to the byte-identical
        offline fingerprint -- hence to each other -- and to the
        fingerprint of the same streams read back from capture files,
        now that all three stamp their trace ids at decode."""
        single = _run_load_subprocess(1)
        multi = _run_load_subprocess(2)
        for doc in (single, multi):
            assert doc["match"], doc
            assert doc["online"] == doc["offline"] == doc["from_files"]
            assert doc["client_errors"] == 0
            assert doc["report_ok"] is True
            assert sum(doc["worker_traces"]) == doc["traces_accepted"]
        assert single["online"] == multi["online"]
        assert len(single["worker_traces"]) == 1
        assert len(multi["worker_traces"]) == 2
