"""Multi-loop ingest tier: N acceptor workers in front of one verifier loop.

``MultiLoopGateway`` splits the service into a **stamp-and-forward**
topology (``docs/service.md`` has the operator view)::

    clients ──► coordinator accept loop ──(fd passing, round robin)──►
        acceptor worker 0..N-1  (own asyncio loop + process each)
            frame parsing · codec decode · credit · budget gate ·
            deterministic ``client_id << SEQ_BITS | seq`` stamping
        ──(chunked ``send_bytes`` pipes)──►
    verifier loop (this process)
        ``OnlineVerifier.feed_validated`` k-way merge ──► backend

The coordinator owns the listening socket and *accepts* every
connection, then hands the accepted fd to a worker over the worker's
control pipe (``multiprocessing.reduction.send_handle``).  Round-robin
assignment by accept order keeps the worker that serves a given
connection deterministic, which the cross-worker tests rely on.

Ordering is the whole point: a worker forwards each accepted ``TRACES``
frame as the *original batch payload bytes* plus the client's base
sequence number, and the verifier loop decodes it with
``decode_batch(body, first_trace_id=client_id << SEQ_BITS | base_seq)``
-- exactly the ids the single-loop registry would have stamped.  The
online merge then dispatches in global ``(ts_bef, trace_id)`` order no
matter how worker pipes interleave, so the drain report is
byte-identical to a single-loop run and to offline verification.

Per-byte work never touches the verifier loop; what crosses the pipe is
pre-validated, so the hot path is ``feed_validated`` (O(1) endpoint
checks) plus the dispatch merge.  Status documents are rendered from a
snapshot cache refreshed off the dispatch path (staleness bounded by
``ServiceConfig.status_refresh``; ``status.cache.*`` metrics), and the
service-wide pending budget lives in shared memory
(:class:`SharedServiceState`) that the workers' budget gates read
predictively -- granted credit still cannot be recalled, so the gate
trips ``inflight_capacity`` below the budget exactly like the
single-loop gate.

Client sessions keep single-loop semantics across workers: a client's
cursor lives in the coordinator's :class:`~repro.service.sessions.
ClientDirectory`, a reconnect may land on any worker (``BIND`` waits
until the previous session's ``DETACH`` arrives -- pipe FIFO guarantees
the cursor is current when the grant is issued), and a poison frame
evicts only its own client, on whichever worker it struck.
"""

from __future__ import annotations

import asyncio
import ctypes
import json
import multiprocessing
import pickle
import queue
import socket
import threading
import time
from multiprocessing import connection as _mp_connection
from multiprocessing import reduction as _mp_reduction
from typing import Dict, List, Optional, Set, Tuple, Union

from ..core.codec import CodecError, PayloadDecoder, PayloadEncoder, decode_batch
from ..core.metrics import NULL_REGISTRY
from ..core.online import OnlineVerifier
from ..core.parallel import _make_context
from ..core.report import VerificationReport, report_fingerprint
from ..core.runtime import relax_collector
from . import protocol, status
from .protocol import ServiceProtocolError
from .sessions import SEQ_BITS, ClientDirectory

# -- worker -> coordinator forward frames -------------------------------------
# Tag byte first, then codec-primitive fields.  The pipes are private to
# one gateway instance, so unlike the wire protocol these tags may be
# renumbered freely.
W_BIND = 0x01      # varint(session) varint(client)
W_TRACES = 0x02    # varint(client) varint(base_seq) varint(count)
                   # varint(frame_offset) raw(batch payload)
W_MARK = 0x03      # varint(client) double(ts) u8(is_bye)
W_DETACH = 0x04    # varint(client) varint(session)
W_ERROR = 0x05     # varint(session) varint(offset) string(reason)
                   # u8(has_client) varint(client)
W_STATS = 0x06     # raw(pickled stats dict)
W_EOF = 0x07       # raw(pickled final stats dict)

# -- coordinator -> worker control frames -------------------------------------
C_CONN = 0x81      # varint(session); the accepted socket fd follows via
                   # send_handle on the same pipe
C_BIND_OK = 0x82   # varint(session) varint(client) varint(next_seq)
                   # double(floor)
C_BIND_ERR = 0x83  # varint(session) varint(client) string(reason)
C_EVICTED = 0x84   # varint(client) string(reason)
C_DRAIN = 0x85     # empty


def _frame(tag: int) -> PayloadEncoder:
    enc = PayloadEncoder()
    enc.u8(tag)
    return enc


class SharedServiceState:
    """Lock-free shared counters between the verifier loop and the
    acceptor workers.

    Every slot has exactly one writer (the coordinator or one worker);
    readers tolerate bounded staleness, so no locks are needed -- the
    budget gate is predictive by design and a stale read only moves the
    trip point by one poll interval.
    """

    def __init__(self, workers: int):
        self.workers = workers
        n = workers
        # int64 slots: [0] pending events (coordinator); [1] draining
        # flag (coordinator); then four per-worker vectors --
        # traces forwarded (worker i), traces applied (coordinator),
        # active sessions (worker i), largest TRACES frame (worker i).
        self._ints = multiprocessing.RawArray(ctypes.c_int64, 2 + 4 * n)
        # double slots: [0] dispatch watermark (coordinator).
        self._doubles = multiprocessing.RawArray(ctypes.c_double, 1)
        self._doubles[0] = float("-inf")

    # coordinator-written slots
    def set_pending(self, value: int) -> None:
        self._ints[0] = value

    def pending(self) -> int:
        return self._ints[0]

    def set_draining(self) -> None:
        self._ints[1] = 1

    def draining(self) -> bool:
        return bool(self._ints[1])

    def note_applied(self, worker: int, count: int) -> None:
        self._ints[2 + self.workers + worker] += count

    def set_watermark(self, ts: float) -> None:
        self._doubles[0] = ts

    def watermark(self) -> float:
        return self._doubles[0]

    # worker-written slots
    def note_sent(self, worker: int, count: int) -> None:
        self._ints[2 + worker] += count

    def set_active(self, worker: int, sessions: int) -> None:
        self._ints[2 + 2 * self.workers + worker] = sessions

    def note_frame_traces(self, worker: int, count: int) -> None:
        slot = 2 + 3 * self.workers + worker
        if count > self._ints[slot]:
            self._ints[slot] = count

    # fleet-wide reads
    def in_pipe(self) -> int:
        """Traces forwarded by the workers but not yet applied by the
        verifier loop -- the budget must count them or the pipes become
        an unbounded buffer."""
        n = self.workers
        sent = sum(self._ints[2 : 2 + n])
        applied = sum(self._ints[2 + n : 2 + 2 * n])
        return max(0, sent - applied)

    def active_sessions(self) -> int:
        n = self.workers
        return sum(self._ints[2 + 2 * n : 2 + 3 * n])

    def frame_traces_max(self) -> int:
        n = self.workers
        return max(self._ints[2 + 3 * n : 2 + 4 * n], default=0)

    def worker_sent(self, worker: int) -> int:
        return self._ints[2 + worker]


async def _open_stream(loop, sock: socket.socket):
    """Wrap an accepted socket in asyncio streams (the worker side of
    fd passing; ``start_server`` does this internally for its own
    accepts)."""
    reader = asyncio.StreamReader(loop=loop)
    reader_protocol = asyncio.StreamReaderProtocol(reader, loop=loop)
    transport, _ = await loop.connect_accepted_socket(
        lambda: reader_protocol, sock
    )
    writer = asyncio.StreamWriter(transport, reader_protocol, reader, loop)
    return reader, writer


# =============================================================================
# Acceptor worker (child process)
# =============================================================================


class _WorkerClient:
    """Worker-local slice of a client's cursor, seeded from BIND_OK."""

    __slots__ = ("client_id", "next_seq", "floor", "evicted", "active_session")

    def __init__(self, client_id: int, next_seq: int, floor: float):
        self.client_id = client_id
        self.next_seq = next_seq
        self.floor = floor
        self.evicted = False
        self.active_session: Optional[int] = None


class _AcceptorWorker:
    """One acceptor process: an asyncio loop over the sessions the
    coordinator hands it, forwarding validated stamped batches."""

    def __init__(self, worker_id: int, conn, shared: SharedServiceState, options):
        self.worker_id = worker_id
        self.conn = conn
        self.shared = shared
        self.credit = options["session_credit"]
        self.budget = options["pending_budget"]
        self.stats_interval = options["stats_interval"]
        self.draining = False
        self.clients: Dict[int, _WorkerClient] = {}
        self.sessions: Dict[int, Dict[str, object]] = {}
        self._session_tasks: Dict[int, asyncio.Task] = {}
        self._bind_waiters: Dict[int, asyncio.Future] = {}
        self._session_kick: Dict[int, str] = {}
        self._out: "queue.SimpleQueue" = queue.SimpleQueue()
        self._counters = {
            "sessions_opened": 0,
            "sessions_closed": 0,
            "frames": 0,
            "traces": 0,
            "bytes": 0,
            "heartbeats": 0,
            "credits": 0,
            "stalls": 0,
            "errors": 0,
        }
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_event: Optional[asyncio.Event] = None

    # -- pipe plumbing -----------------------------------------------------

    def _send(self, enc: PayloadEncoder) -> None:
        self._out.put(enc.finish())

    def _writer_main(self) -> None:
        while True:
            item = self._out.get()
            if item is None:
                return
            try:
                self.conn.send_bytes(item)
            except (BrokenPipeError, OSError):
                return

    def _reader_main(self, loop, rx: asyncio.Queue) -> None:
        while True:
            try:
                payload = self.conn.recv_bytes()
            except (EOFError, OSError):
                break
            fd = None
            if PayloadDecoder(payload).u8() == C_CONN:
                # The accepted socket rides the same pipe, immediately
                # after its announcement frame.
                try:
                    fd = _mp_reduction.recv_handle(self.conn)
                except (EOFError, OSError):
                    break
            try:
                loop.call_soon_threadsafe(rx.put_nowait, (payload, fd))
            except RuntimeError:
                break
        try:
            loop.call_soon_threadsafe(rx.put_nowait, None)
        except RuntimeError:
            pass

    # -- main --------------------------------------------------------------

    async def run(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._drain_event = asyncio.Event()
        rx: asyncio.Queue = asyncio.Queue()
        writer = threading.Thread(
            target=self._writer_main, name=f"acceptor-{self.worker_id}-tx", daemon=True
        )
        writer.start()
        reader = threading.Thread(
            target=self._reader_main,
            args=(self._loop, rx),
            name=f"acceptor-{self.worker_id}-rx",
            daemon=True,
        )
        reader.start()
        pipe_task = self._loop.create_task(self._pipe_loop(rx))
        stats_task = self._loop.create_task(self._stats_loop())
        await self._drain_event.wait()
        self.draining = True
        while self._session_tasks:
            await asyncio.wait(list(self._session_tasks.values()))
        stats_task.cancel()
        enc = _frame(W_EOF)
        enc.raw(pickle.dumps(self._stats(), protocol=pickle.HIGHEST_PROTOCOL))
        self._send(enc)
        self._out.put(None)
        writer.join()
        pipe_task.cancel()

    async def _pipe_loop(self, rx: asyncio.Queue) -> None:
        while True:
            item = await rx.get()
            if item is None:
                self._drain_event.set()
                return
            payload, fd = item
            dec = PayloadDecoder(payload)
            tag = dec.u8()
            if tag == C_CONN:
                session_id = dec.varint()
                sock = socket.socket(fileno=fd)
                task = self._loop.create_task(self._handle_conn(session_id, sock))
                self._session_tasks[session_id] = task
            elif tag == C_BIND_OK:
                session_id = dec.varint()
                client_id = dec.varint()
                next_seq = dec.varint()
                floor = dec.double()
                waiter = self._bind_waiters.pop(session_id, None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(("ok", client_id, next_seq, floor))
            elif tag == C_BIND_ERR:
                session_id = dec.varint()
                client_id = dec.varint()
                reason = dec.string()
                waiter = self._bind_waiters.pop(session_id, None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(("err", client_id, 0, reason))
            elif tag == C_EVICTED:
                client_id = dec.varint()
                reason = dec.string()
                self._evict_local(client_id, reason)
            elif tag == C_DRAIN:
                self._drain_event.set()

    def _evict_local(self, client_id: int, reason: str) -> None:
        """The verifier loop rejected this client's batch (late join past
        the dispatched watermark): kill its live session, refuse resume."""
        record = self.clients.get(client_id)
        if record is None:
            record = self.clients[client_id] = _WorkerClient(
                client_id, 0, float("-inf")
            )
        record.evicted = True
        session_id = record.active_session
        task = self._session_tasks.get(session_id) if session_id is not None else None
        if task is not None and not task.done():
            self._session_kick[session_id] = reason
            task.cancel()

    async def _stats_loop(self) -> None:
        while True:
            await asyncio.sleep(self.stats_interval)
            enc = _frame(W_STATS)
            enc.raw(pickle.dumps(self._stats(), protocol=pickle.HIGHEST_PROTOCOL))
            self._send(enc)

    def _stats(self) -> Dict[str, object]:
        doc = dict(self._counters)
        doc["worker"] = self.worker_id
        doc["sessions_active"] = len(self.sessions)
        doc["sessions"] = [
            {
                "session": sid,
                "client": st.get("client"),
                "frames": st["frames"],
                "traces": st["traces"],
                "bytes": st["bytes"],
            }
            for sid, st in sorted(self.sessions.items())
        ]
        return doc

    # -- sessions ----------------------------------------------------------

    async def _handle_conn(self, session_id: int, sock: socket.socket) -> None:
        reader, writer = await _open_stream(self._loop, sock)
        st: Dict[str, object] = {
            "client": None,
            "frames": 0,
            "traces": 0,
            "bytes": 0,
            "frame_offset": 0,
            "bound": False,
        }
        self.sessions[session_id] = st
        self._counters["sessions_opened"] += 1
        self.shared.set_active(self.worker_id, len(self.sessions))
        try:
            if self.draining or self.shared.draining():
                raise ServiceProtocolError(
                    "service is draining", session_id=session_id
                )
            await self._session_loop(session_id, st, reader, writer)
        except (ServiceProtocolError, CodecError, ValueError) as exc:
            await self._poison(session_id, st, writer, exc)
        except asyncio.CancelledError:
            reason = self._session_kick.pop(session_id, None)
            if reason is None:
                raise
            # Coordinator-side eviction: the error entry already exists
            # there; just tell the client and fall through to close.
            self._counters["errors"] += 1
            try:
                writer.write(
                    protocol.error_frame(session_id, st["frame_offset"], reason)
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        except (asyncio.IncompleteReadError, ConnectionError):
            # Abrupt transport loss mid-frame: the client may reconnect
            # (on any worker) and resume from its cursor.
            pass
        finally:
            if st["bound"]:
                enc = _frame(W_DETACH)
                enc.varint(st["client"])
                enc.varint(session_id)
                self._send(enc)
                record = self.clients.get(st["client"])
                if record is not None and record.active_session == session_id:
                    record.active_session = None
            self.sessions.pop(session_id, None)
            self._session_tasks.pop(session_id, None)
            self._bind_waiters.pop(session_id, None)
            self._counters["sessions_closed"] += 1
            self.shared.set_active(self.worker_id, len(self.sessions))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _bind(self, session_id: int, client_id: int) -> Tuple[int, float]:
        """Ask the coordinator's client directory for this client's
        cursor.  The reply may be deferred: if another session (on any
        worker) still drives the client, the grant waits for its DETACH
        -- pipe FIFO then guarantees every previously forwarded batch is
        already applied, so the cursor we receive is current."""
        record = self.clients.get(client_id)
        if record is not None and record.evicted:
            raise ServiceProtocolError(
                f"client {client_id} was evicted for a poison frame; "
                f"its stream cannot resume",
                session_id=session_id,
            )
        waiter: asyncio.Future = self._loop.create_future()
        self._bind_waiters[session_id] = waiter
        enc = _frame(W_BIND)
        enc.varint(session_id)
        enc.varint(client_id)
        self._send(enc)
        verdict, _, next_seq, floor_or_reason = await waiter
        if verdict != "ok":
            raise ServiceProtocolError(
                str(floor_or_reason), session_id=session_id
            )
        return next_seq, floor_or_reason

    async def _session_loop(self, session_id, st, reader, writer) -> None:
        await protocol.read_magic(reader)
        offset = len(protocol.SERVICE_MAGIC)

        st["frame_offset"] = offset
        payload = await protocol.read_frame(reader)
        if payload is None:
            return
        offset += protocol.PREFIX_SIZE + len(payload)
        tag, body = protocol.split_frame(payload)
        if tag != protocol.F_HELLO:
            raise ServiceProtocolError(
                f"first frame must be HELLO, got "
                f"{protocol.TAG_NAMES.get(tag, hex(tag))}",
                session_id=session_id,
                byte_offset=st["frame_offset"],
            )
        client_id = protocol.parse_control(tag, body)["client_id"]
        st["client"] = client_id
        next_seq, floor = await self._bind(session_id, client_id)
        record = self.clients.get(client_id)
        if record is None:
            record = self.clients[client_id] = _WorkerClient(
                client_id, next_seq, floor
            )
        else:
            record.next_seq = next_seq
            record.floor = max(record.floor, floor)
        record.active_session = session_id
        st["bound"] = True
        writer.write(protocol.welcome_frame(session_id, self.credit))
        await writer.drain()

        while True:
            st["frame_offset"] = offset
            payload = await protocol.read_frame(reader)
            if payload is None:
                return
            size = protocol.PREFIX_SIZE + len(payload)
            offset += size
            st["frames"] += 1
            st["bytes"] += size
            self._counters["frames"] += 1
            self._counters["bytes"] += size
            tag, body = protocol.split_frame(payload)

            if tag == protocol.F_TRACES:
                count = self._forward_traces(session_id, st, record, body)
                st["traces"] += count
                self._counters["traces"] += count
                await self._budget_gate(record, writer)
                writer.write(protocol.credit_frame(1))
                self._counters["credits"] += 1
                await writer.drain()
            elif tag == protocol.F_HEARTBEAT:
                now = protocol.parse_control(tag, body)["now"]
                self._counters["heartbeats"] += 1
                record.floor = max(record.floor, now)
                enc = _frame(W_MARK)
                enc.varint(client_id)
                enc.double(now)
                enc.u8(0)
                self._send(enc)
            elif tag == protocol.F_BYE:
                enc = _frame(W_MARK)
                enc.varint(client_id)
                enc.double(float("inf"))
                enc.u8(1)
                self._send(enc)
                writer.write(protocol.bye_ack_frame(st["traces"]))
                await writer.drain()
                return
            else:
                raise ServiceProtocolError(
                    f"unexpected frame "
                    f"{protocol.TAG_NAMES.get(tag, hex(tag))} on the "
                    f"ingest stream",
                    session_id=session_id,
                    byte_offset=st["frame_offset"],
                )

    def _forward_traces(
        self, session_id, st, record: _WorkerClient, body: bytes
    ) -> int:
        """Decode-validate one TRACES frame locally, advance the cursor,
        and forward the *original payload bytes* plus the base sequence
        -- the verifier loop re-decodes with the deterministic first
        trace id and never sees an invalid run."""
        traces = decode_batch(body)
        floor = record.floor
        last = floor
        for trace in traces:
            if trace.client_id != record.client_id:
                raise ValueError(
                    f"trace from client {trace.client_id} pushed on "
                    f"client {record.client_id}'s stream"
                )
            ts = trace.ts_bef
            if ts < floor:
                raise ValueError(
                    f"client {record.client_id} pushed trace at {ts} "
                    f"behind its progress mark {floor}"
                )
            if ts < last:
                raise ValueError(
                    f"client {record.client_id} stream is not monotone"
                )
            last = ts
        count = len(traces)
        if count == 0:
            return 0
        enc = _frame(W_TRACES)
        enc.varint(record.client_id)
        enc.varint(record.next_seq)
        enc.varint(count)
        enc.varint(st["frame_offset"])
        enc.raw(body)
        self._send(enc)
        record.next_seq += count
        record.floor = last
        self.shared.note_sent(self.worker_id, count)
        self.shared.note_frame_traces(self.worker_id, count)
        return count

    def _over_budget(self) -> bool:
        shared = self.shared
        inflight = (
            shared.active_sessions() * self.credit * shared.frame_traces_max()
        )
        return shared.pending() + shared.in_pipe() + inflight > self.budget

    async def _budget_gate(self, record: _WorkerClient, writer) -> None:
        """The single-loop gate, driven by the shared predictive
        counters: hold credit while the fleet is over budget unless this
        client is the laggard holding the watermark back."""
        if not self._over_budget():
            return
        if record.floor <= self.shared.watermark():
            return
        self._counters["stalls"] += 1
        writer.write(protocol.pause_frame())
        await writer.drain()
        while not self.draining and not self.shared.draining():
            if not self._over_budget():
                break
            if record.floor <= self.shared.watermark():
                break
            await asyncio.sleep(0.05)
        writer.write(protocol.resume_frame())
        await writer.drain()

    async def _poison(self, session_id, st, writer, exc: Exception) -> None:
        """Worker-side poison handling: evict locally, report the error
        (and the eviction) upstream, tell the client where it went bad."""
        if isinstance(exc, ServiceProtocolError) and exc.session_id is not None:
            err = exc
        else:
            reason = exc.reason if isinstance(exc, ServiceProtocolError) else str(exc)
            err = ServiceProtocolError(
                reason,
                session_id=session_id,
                byte_offset=st["frame_offset"],
            )
        self._counters["errors"] += 1
        client_id = st.get("client") if st["bound"] else None
        if client_id is not None:
            record = self.clients.get(client_id)
            if record is not None:
                record.evicted = True
        enc = _frame(W_ERROR)
        enc.varint(session_id)
        enc.varint(err.byte_offset or 0)
        enc.string(err.reason)
        enc.u8(1 if client_id is not None else 0)
        enc.varint(client_id or 0)
        self._send(enc)
        try:
            writer.write(
                protocol.error_frame(
                    err.session_id or 0, err.byte_offset or 0, err.reason
                )
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass


def _acceptor_worker_main(worker_id, conn, shared, options) -> None:
    """Child-process entry point (fork context; see ``_make_context``)."""
    relax_collector()
    try:
        asyncio.run(_AcceptorWorker(worker_id, conn, shared, options).run())
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# =============================================================================
# Coordinator (verifier-loop process)
# =============================================================================


class _FleetSessions:
    """Registry facade so ``status.status_document`` renders the same
    schema over the worker fleet's aggregated session state."""

    def __init__(self, gateway: "MultiLoopGateway"):
        self._gateway = gateway

    @property
    def active(self) -> int:
        return sum(
            stats.get("sessions_active", 0)
            for stats in self._gateway.worker_stats.values()
        )

    @property
    def opened(self) -> int:
        return self._gateway.sessions_opened

    @property
    def clients(self) -> int:
        return self._gateway.directory.clients

    def sessions_snapshot(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for stats in self._gateway.worker_stats.values():
            rows.extend(stats.get("sessions", []))
        rows.sort(key=lambda row: row["session"])
        return rows


class MultiLoopGateway:
    """The sharded ingest tier: coordinator accept loop + verifier loop
    in this process, ``acceptor_workers`` stamp-and-forward processes.

    Drop-in for :class:`~repro.service.gateway.IngestGateway` (same
    lifecycle, endpoints, status schema, drain contract); construct via
    :func:`~repro.service.gateway.create_gateway`.
    """

    #: Stats deltas absorbed into the same service.* counters the
    #: single-loop gateway maintains inline.
    _ABSORBED = (
        ("frames", "service.frames"),
        ("bytes", "service.bytes"),
        ("credits", "service.credit.granted"),
        ("stalls", "service.budget.stalls"),
        ("sessions_opened", "service.sessions.opened"),
        ("sessions_closed", "service.sessions.closed"),
    )

    def __init__(self, config):
        if config.acceptor_workers < 2:
            raise ValueError(
                "MultiLoopGateway needs acceptor_workers >= 2; "
                "use IngestGateway (the reference single-loop path) for 1"
            )
        self.config = config
        self.metrics = config.metrics if config.metrics is not None else NULL_REGISTRY
        from .gateway import build_backend

        self._backend = build_backend(config)
        self.online = OnlineVerifier(verifier=self._backend)
        self.directory = ClientDirectory()
        self.shared = SharedServiceState(config.acceptor_workers)

        self.sessions_opened = 0
        self.traces_total = 0
        self.heartbeats_total = 0
        self.errors_total = 0
        self.evictions_total = 0
        self.pending_peak = 0
        self.max_ts_seen: Optional[float] = None
        self.errors: List[Dict[str, object]] = []
        #: freshest periodic stats per worker (final at drain).
        self.worker_stats: Dict[int, Dict[str, object]] = {}
        self._absorbed: Dict[int, Dict[str, int]] = {}
        self.registry = _FleetSessions(self)

        self._m_opened = self.metrics.counter("service.sessions.opened")
        self._m_active = self.metrics.gauge("service.sessions.active")
        self._m_traces = self.metrics.counter("service.traces")
        self._m_heartbeats = self.metrics.counter("service.heartbeats")
        self._m_errors = self.metrics.counter("service.errors")
        self._m_evictions = self.metrics.counter("service.evictions")
        self._m_pending = self.metrics.gauge("service.pending")
        self._m_pending_peak = self.metrics.gauge("service.pending.peak")
        self._m_lag = self.metrics.gauge("service.watermark.lag")
        self._m_cache_hits = self.metrics.counter("status.cache.hits")
        self._m_cache_misses = self.metrics.counter("status.cache.misses")
        self._m_cache_age = self.metrics.gauge("status.cache.age.seconds")

        self._procs: List[multiprocessing.Process] = []
        self._conns: List = []
        self._listen_sock: Optional[socket.socket] = None
        self._status_server: Optional[asyncio.base_events.Server] = None
        self._status_tasks: Set[asyncio.Task] = set()
        self._accept_task: Optional[asyncio.Task] = None
        self._apply_task: Optional[asyncio.Task] = None
        self._drainer: Optional[threading.Thread] = None
        self._rx: Optional[asyncio.Queue] = None
        self._next_session = 1
        self._eofs = 0
        self._workers_done: Optional[asyncio.Event] = None
        self._drain_lock: Optional[asyncio.Lock] = None
        self._draining = False
        self._final_report: Optional[VerificationReport] = None
        self._fingerprint: Optional[str] = None
        self.drained = asyncio.Event()

        self._status_cache: Optional[Dict[str, object]] = None
        self._status_cache_at = 0.0
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._drain_lock = asyncio.Lock()
        self._workers_done = asyncio.Event()
        self._rx = asyncio.Queue()
        cfg = self.config
        options = {
            "session_credit": cfg.session_credit,
            "pending_budget": cfg.pending_budget,
            "stats_interval": cfg.stats_interval,
        }
        # Fork the workers before binding any listener so no socket fd
        # leaks into the children; each worker owns only its pipe.
        ctx = _make_context()
        for worker_id in range(cfg.acceptor_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_acceptor_worker_main,
                args=(worker_id, child_conn, self.shared, options),
                daemon=True,
                name=f"repro-acceptor-{worker_id}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

        if cfg.ingest_unix:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(cfg.ingest_unix)
            sock.listen(cfg.listen_backlog)
        else:
            sock = socket.create_server(
                (cfg.host, cfg.port), backlog=cfg.listen_backlog
            )
        sock.setblocking(False)
        self._listen_sock = sock

        if cfg.status_unix:
            self._status_server = await asyncio.start_unix_server(
                self._handle_status,
                path=cfg.status_unix,
                backlog=cfg.listen_backlog,
            )
        else:
            self._status_server = await asyncio.start_server(
                self._handle_status,
                cfg.host,
                cfg.status_port,
                backlog=cfg.listen_backlog,
            )

        # Threads must start after every fork (they do not survive one).
        self._drainer = threading.Thread(
            target=self._drain_main,
            args=(list(self._conns), self._loop, self._rx),
            name="service-forward-drainer",
            daemon=True,
        )
        self._drainer.start()
        self._apply_task = self._loop.create_task(self._apply_loop())
        self._accept_task = self._loop.create_task(self._accept_loop())

    @staticmethod
    def _drain_main(conns: List, loop, rx: "asyncio.Queue") -> None:
        """Forward every worker frame into the verifier loop's queue,
        tagged with its worker id (pipe order per worker is preserved --
        the cursor-handoff protocol depends on that FIFO)."""
        live = {conn: idx for idx, conn in enumerate(conns)}
        while live:
            for conn in _mp_connection.wait(list(live)):
                try:
                    payload = conn.recv_bytes()
                except (EOFError, OSError):
                    del live[conn]
                    continue
                try:
                    loop.call_soon_threadsafe(rx.put_nowait, (live[conn], payload))
                except RuntimeError:
                    return
        try:
            loop.call_soon_threadsafe(rx.put_nowait, None)
        except RuntimeError:
            pass

    @property
    def ingest_endpoint(self) -> Union[str, Tuple[str, int]]:
        if self.config.ingest_unix:
            return self.config.ingest_unix
        return self._listen_sock.getsockname()[:2]

    @property
    def status_endpoint(self) -> Union[str, Tuple[str, int]]:
        if self.config.status_unix:
            return self.config.status_unix
        return self._status_server.sockets[0].getsockname()[:2]

    async def drain(self) -> VerificationReport:
        """Graceful shutdown, fleet edition: stop accepting, tell every
        worker to finish its sessions, apply everything still in the
        pipes (each worker's EOF frame follows all its data frames), then
        finish the verifier and publish the final report."""
        async with self._drain_lock:
            if self._final_report is not None:
                return self._final_report
            self._draining = True
            self.shared.set_draining()
            if self._accept_task is not None:
                self._accept_task.cancel()
                try:
                    await self._accept_task
                except (asyncio.CancelledError, OSError):
                    pass
            if self._listen_sock is not None:
                self._listen_sock.close()
            for worker_id, session_id, client_id in self.directory.fail_all_pending():
                self._send_to(
                    worker_id,
                    self._bind_err_frame(
                        session_id, client_id, "service is draining"
                    ),
                )
            drain_frame = _frame(C_DRAIN).finish()
            for conn in self._conns:
                try:
                    conn.send_bytes(drain_frame)
                except (BrokenPipeError, OSError):
                    pass
            await self._workers_done.wait()
            for proc in self._procs:
                proc.join(timeout=10)
            report = self.online.finish()
            self._final_report = report
            self._fingerprint = report_fingerprint(report)
            self._status_cache = None
            self.drained.set()
            return report

    async def aclose(self) -> None:
        if self._status_server is not None:
            self._status_server.close()
            await self._status_server.wait_closed()
        if self._listen_sock is not None:
            self._listen_sock.close()
        for task in (self._accept_task, self._apply_task, *self._status_tasks):
            if task is not None and task is not asyncio.current_task():
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, OSError):
                    pass
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass

    # -- accept loop -------------------------------------------------------

    async def _accept_loop(self) -> None:
        """Accept every connection here, hand the fd to a worker round
        robin by accept order -- deterministic assignment, one public
        endpoint, no thundering herd."""
        workers = self.config.acceptor_workers
        while True:
            try:
                client_sock, _ = await self._loop.sock_accept(self._listen_sock)
            except asyncio.CancelledError:
                raise
            except OSError:
                if self._draining:
                    return
                raise
            session_id = self._next_session
            self._next_session += 1
            worker_id = (session_id - 1) % workers
            self.sessions_opened += 1
            self._m_opened.inc()
            conn = self._conns[worker_id]
            enc = _frame(C_CONN)
            enc.varint(session_id)
            try:
                # send_bytes + send_handle back to back with no await in
                # between: nothing else can interleave on this pipe.
                conn.send_bytes(enc.finish())
                _mp_reduction.send_handle(
                    conn, client_sock.fileno(), self._procs[worker_id].pid
                )
            except (BrokenPipeError, OSError):
                pass
            client_sock.close()

    # -- forwarded-frame apply loop ----------------------------------------

    async def _apply_loop(self) -> None:
        while True:
            item = await self._rx.get()
            if item is None:
                self._workers_done.set()
                return
            worker_id, payload = item
            dec = PayloadDecoder(payload)
            tag = dec.u8()
            if tag == W_TRACES:
                self._apply_traces(worker_id, dec)
            elif tag == W_MARK:
                client_id = dec.varint()
                ts = dec.double()
                is_bye = dec.u8()
                if not is_bye:
                    self.heartbeats_total += 1
                    self._m_heartbeats.inc()
                self.online.heartbeat(client_id, ts)
                self.directory.note_mark(client_id, ts)
                self._note_pending()
            elif tag == W_BIND:
                session_id = dec.varint()
                client_id = dec.varint()
                self._apply_bind(worker_id, session_id, client_id)
            elif tag == W_DETACH:
                client_id = dec.varint()
                session_id = dec.varint()
                granted = self.directory.detach(client_id, session_id)
                if granted is not None:
                    self._grant_bind(*granted)
            elif tag == W_ERROR:
                self._apply_error(worker_id, dec)
            elif tag in (W_STATS, W_EOF):
                stats = pickle.loads(dec.raw())
                self._absorb_stats(worker_id, stats)
                if tag == W_EOF:
                    self._eofs += 1
                    if self._eofs == self.config.acceptor_workers:
                        self._workers_done.set()

    def _apply_traces(self, worker_id: int, dec: PayloadDecoder) -> None:
        client_id = dec.varint()
        base_seq = dec.varint()
        count = dec.varint()
        frame_offset = dec.varint()
        body = dec.raw()
        first_id = (client_id << SEQ_BITS) + base_seq
        try:
            traces = decode_batch(body, first_trace_id=first_id)
            self.online.feed_validated(client_id, traces)
        except (CodecError, ValueError) as exc:
            # Only the late-join race can land here (workers validate
            # everything else); evict exactly like the single loop would.
            self._evict(worker_id, client_id, frame_offset, str(exc))
        else:
            self.directory.note_traces(
                client_id, base_seq + count, traces[-1].ts_bef
            )
            self.traces_total += count
            self._m_traces.inc(count)
            newest = traces[-1].ts_bef
            if self.max_ts_seen is None or newest > self.max_ts_seen:
                self.max_ts_seen = newest
        self.shared.note_applied(worker_id, count)
        self._note_pending()

    def _apply_bind(self, worker_id: int, session_id: int, client_id: int) -> None:
        verdict, payload = self.directory.bind(client_id, worker_id, session_id)
        if verdict == "bound":
            self._grant_bind(worker_id, session_id, payload)
        elif verdict == "refused":
            self._send_to(
                worker_id, self._bind_err_frame(session_id, client_id, payload)
            )
        # "queued": the grant is issued when the driving session detaches.

    def _grant_bind(self, worker_id: int, session_id: int, entry) -> None:
        self.online.register_client(entry.client_id)
        enc = _frame(C_BIND_OK)
        enc.varint(session_id)
        enc.varint(entry.client_id)
        enc.varint(entry.next_seq)
        enc.double(entry.floor)
        self._send_to(worker_id, enc.finish())

    def _bind_err_frame(self, session_id: int, client_id: int, reason: str) -> bytes:
        enc = _frame(C_BIND_ERR)
        enc.varint(session_id)
        enc.varint(client_id)
        enc.string(reason)
        return enc.finish()

    def _apply_error(self, worker_id: int, dec: PayloadDecoder) -> None:
        session_id = dec.varint()
        byte_offset = dec.varint()
        reason = dec.string()
        has_client = dec.u8()
        client_id = dec.varint()
        self._record_error(
            session_id, client_id if has_client else None, byte_offset, reason
        )
        if has_client:
            self._evict_client_state(client_id, reason)

    def _evict(
        self, worker_id: int, client_id: int, byte_offset: int, reason: str
    ) -> None:
        """Verifier-loop-detected poison (late join): record it, evict,
        and kick the owning worker so it kills the live session."""
        entry = self.directory.client_record(client_id)
        session_id = entry.active_session if entry is not None else None
        self._record_error(session_id, client_id, byte_offset, reason)
        self._evict_client_state(client_id, reason)
        owner = entry.active_worker if entry is not None else None
        if owner is not None:
            enc = _frame(C_EVICTED)
            enc.varint(client_id)
            enc.string(reason)
            self._send_to(owner, enc.finish())

    def _record_error(
        self,
        session_id: Optional[int],
        client_id: Optional[int],
        byte_offset: int,
        reason: str,
    ) -> None:
        self.errors_total += 1
        self._m_errors.inc()
        self.errors.append(
            {
                "session": session_id,
                "client": client_id,
                "byte_offset": byte_offset,
                "error": reason,
            }
        )
        del self.errors[:-100]

    def _evict_client_state(self, client_id: int, reason: str) -> None:
        refused = self.directory.evict(client_id, reason)
        self.online.evict_client(client_id)
        self.evictions_total += 1
        self._m_evictions.inc()
        for worker_id, session_id in refused:
            self._send_to(
                worker_id, self._bind_err_frame(session_id, client_id, reason)
            )
        self._note_pending()

    def _absorb_stats(self, worker_id: int, stats: Dict[str, object]) -> None:
        self.worker_stats[worker_id] = stats
        if self.metrics.enabled:
            prev = self._absorbed.setdefault(worker_id, {})
            for key, metric in self._ABSORBED:
                value = int(stats.get(key, 0))
                delta = value - prev.get(key, 0)
                if delta > 0:
                    self.metrics.inc(metric, delta)
                prev[key] = value
            label = str(worker_id)
            self.metrics.set_gauge(
                "service.worker.traces", int(stats.get("traces", 0)), worker=label
            )
            self.metrics.set_gauge(
                "service.worker.sessions",
                int(stats.get("sessions_active", 0)),
                worker=label,
            )
            self._m_active.set(self.registry.active)

    def _send_to(self, worker_id: int, frame: bytes) -> None:
        try:
            self._conns[worker_id].send_bytes(frame)
        except (BrokenPipeError, OSError):
            pass

    def _note_pending(self) -> None:
        pending = self.pending_events()
        self.shared.set_pending(pending)
        self.shared.set_watermark(self.online.watermark)
        if pending > self.pending_peak:
            self.pending_peak = pending
        self._m_pending.set(pending)
        self._m_pending_peak.high_watermark(pending)
        lag = self.watermark_lag()
        if lag is not None:
            self._m_lag.set(lag)

    # -- shared state (status facade) --------------------------------------

    @property
    def final_report(self) -> Optional[VerificationReport]:
        return self._final_report

    @property
    def fingerprint(self) -> Optional[str]:
        return self._fingerprint

    @property
    def draining(self) -> bool:
        return self._draining

    def _stat_sum(self, key: str) -> int:
        return sum(int(s.get(key, 0)) for s in self.worker_stats.values())

    @property
    def frames_total(self) -> int:
        return self._stat_sum("frames")

    @property
    def bytes_total(self) -> int:
        return self._stat_sum("bytes")

    @property
    def credits_total(self) -> int:
        return self._stat_sum("credits")

    @property
    def stalls_total(self) -> int:
        return self._stat_sum("stalls")

    @property
    def frame_traces_max(self) -> int:
        return self.shared.frame_traces_max()

    def worker_trace_counts(self) -> List[int]:
        """Traces accepted per worker (the load document's v2 field; at
        drain the sum equals ``traces_total`` exactly)."""
        return [
            int(self.worker_stats.get(i, {}).get("traces", 0))
            for i in range(self.config.acceptor_workers)
        ]

    def pending_events(self) -> int:
        pending = self.online.pending
        extra = getattr(self._backend, "coordinator_pending_events", None)
        if callable(extra):
            pending += extra()
        return pending

    def inflight_capacity(self) -> int:
        return (
            self.shared.active_sessions()
            * self.config.session_credit
            * self.shared.frame_traces_max()
        )

    def over_budget(self) -> bool:
        return (
            self.pending_events() + self.shared.in_pipe() + self.inflight_capacity()
            > self.config.pending_budget
        )

    def watermark_lag(self) -> Optional[float]:
        watermark = self.online.watermark
        if self.max_ts_seen is None or watermark == float("-inf"):
            return None
        if watermark == float("inf"):
            return 0.0
        return max(0.0, self.max_ts_seen - watermark)

    # -- status ------------------------------------------------------------

    def status_document(self) -> Dict[str, object]:
        """The ``status`` response body, served from a snapshot cache so
        pollers cost the verifier loop one render per ``status_refresh``
        interval instead of one per query (staleness is bounded by
        construction: a hit never returns a document older than the
        refresh interval)."""
        now = time.monotonic()
        age = now - self._status_cache_at
        if self._status_cache is None or age > self.config.status_refresh:
            doc = status.status_document(self)
            doc["workers"] = self._workers_document()
            self._status_cache = doc
            self._status_cache_at = now
            age = 0.0
            self._m_cache_misses.inc()
        else:
            self._m_cache_hits.inc()
        self._m_cache_age.set(age)
        doc = dict(self._status_cache)
        doc["cache"] = {
            "age_seconds": round(age, 4),
            "refresh_interval": self.config.status_refresh,
        }
        return doc

    def _workers_document(self) -> List[Dict[str, object]]:
        out = []
        for worker_id in range(self.config.acceptor_workers):
            stats = self.worker_stats.get(worker_id, {})
            out.append(
                {
                    "worker": worker_id,
                    "alive": self._procs[worker_id].is_alive(),
                    "sessions_active": int(stats.get("sessions_active", 0)),
                    "frames": int(stats.get("frames", 0)),
                    "traces": int(stats.get("traces", 0)),
                    "bytes": int(stats.get("bytes", 0)),
                    "stalls": int(stats.get("stalls", 0)),
                    "forwarded": self.shared.worker_sent(worker_id),
                }
            )
        return out

    async def _handle_status(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._status_tasks.add(task)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                if not line.strip():
                    continue
                response = await status.handle_query(self, line)
                writer.write(
                    json.dumps(response, sort_keys=True).encode("utf-8") + b"\n"
                )
                await writer.drain()
        except asyncio.CancelledError:
            pass
        except (ConnectionError, OSError):
            pass
        finally:
            self._status_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


__all__ = [
    "MultiLoopGateway",
    "SharedServiceState",
]
