"""Asyncio ingest gateway: concurrent client sessions feeding one
online verifier.

Each connection pushes length-prefixed frames (``protocol``); accepted
``TRACES`` frames are decoded with the binary codec -- which stamps the
deterministic trace ids from the client's cursor (``sessions``) -- and
staged into the
:class:`~repro.core.online.OnlineVerifier`, whose watermark dispatches
them to its serial :class:`~repro.core.verifier.Verifier`.

Backpressure is two-layered (documented in ``docs/service.md``):

* **credit** is the hard per-session gate: ``WELCOME`` grants a number of
  ``TRACES`` frames that may be in flight; the server returns one credit
  per drained frame, so a session can never buffer more than
  ``session_credit`` undecoded frames server-side;
* the **service-wide memory budget** bounds the traces staged in the
  online layer.  While over budget, credit is withheld from every
  session that is *ahead of* the watermark; the laggard sessions -- the
  ones whose next frame can advance the watermark and therefore *shrink*
  the backlog -- are always admitted, so the gate throttles without
  deadlocking.

A poison frame (malformed bytes, unsorted stream, wrong client id) kills
only its own session: the client is evicted from watermark accounting so
the other sessions keep dispatching, and the ``ERROR`` frame sent back
carries the session id and byte offset of the offending frame.  A trace
the verifier refuses at dispatch (its transaction already terminated) is
the same offence found later, possibly while *another* session's frame
advanced the watermark: the client it came from is evicted, its own
session gets the ``ERROR``, and the session that happened to be feeding
carries on.

Graceful drain: stop accepting connections, wait for live sessions,
flush every staged trace through ``finish()`` and publish the final
report -- byte-identical (same :func:`~repro.core.report.
report_fingerprint`) to an offline ``verify`` over the same streams.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from ..core.codec import CodecError, decode_batch
from ..core.metrics import MetricsRegistry, NULL_REGISTRY
from ..core.online import OnlineVerifier
from ..core.report import VerificationReport, report_fingerprint
from ..core.spec import IsolationSpec, PG_SERIALIZABLE
from ..core.trace import Trace
from . import protocol, status
from .protocol import ServiceProtocolError
from .sessions import Session, SessionRegistry

Key = object


@dataclass
class ServiceConfig:
    """Everything the gateway needs to run; mirrors ``verify``'s knobs
    plus the service-only transport and backpressure settings."""

    spec: IsolationSpec = PG_SERIALIZABLE
    initial_db: Optional[Mapping[Key, Mapping[str, object]]] = None
    #: TCP endpoints (port 0 binds an ephemeral port) ...
    host: str = "127.0.0.1"
    port: int = 0
    status_port: int = 0
    #: ... or Unix sockets, which take precedence when set.
    ingest_unix: Optional[str] = None
    status_unix: Optional[str] = None
    gc_every: int = 512
    #: TRACES frames a session may have in flight (the hard per-session
    #: buffer cap; WELCOME announces it).
    session_credit: int = 8
    #: service-wide ceiling on traces staged in the online layer.
    pending_budget: int = 200_000
    #: listen(2) backlog for both listeners.  Hundreds of sessions
    #: connecting at once (a soak start, a fleet reconnect) overflow the
    #: asyncio default of 100 and the kernel resets the excess mid
    #: handshake, so size for the connection *burst*, not the steady
    #: state.
    listen_backlog: int = 1024
    #: Leftover of the retired multi-loop tier: the ledger driver still
    #: spells ``acceptor_workers=1`` (benchmarks/ledger/traced.py:221), so
    #: the field stays until a `benchmark` PR drops that; `create_gateway`
    #: refuses any other value.
    acceptor_workers: int = 1
    metrics: Optional[MetricsRegistry] = None


#: What ``acceptor_workers != 1`` and ``serve --workers N`` are told.
ONE_LOOP_ONLY = (
    "repro serve is one ingest loop: the multi-loop tier (--workers N / "
    "acceptor_workers > 1) was retired, see docs/service.md section 8"
)


def create_gateway(config: ServiceConfig) -> "IngestGateway":
    """Gateway factory: the one :class:`IngestGateway`."""
    if config.acceptor_workers != 1:
        raise ValueError(ONE_LOOP_ONLY)
    if config.session_credit < 1:
        raise ValueError(
            f"session_credit must be at least 1, got {config.session_credit}: "
            f"a session without credit can never send"
        )
    return IngestGateway(config)


class IngestGateway:
    """The long-running service: ingest listener + status listener over
    one shared online verifier."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.metrics = config.metrics if config.metrics is not None else NULL_REGISTRY
        self.online = OnlineVerifier(
            spec=config.spec,
            initial_db=config.initial_db,
            gc_every=config.gc_every,
            metrics=config.metrics,
        )
        self.registry = SessionRegistry()

        # The service's counters: plain ints, always on, served by the
        # ``status`` query (the registry holds the verifier's instruments).
        self.frames_total = 0
        self.traces_total = 0
        self.bytes_total = 0
        self.heartbeats_total = 0
        self.errors_total = 0
        self.evictions_total = 0
        self.credits_total = 0
        self.stalls_total = 0
        self.pending_peak = 0
        #: largest TRACES frame seen so far, in traces -- sizes the
        #: budget gate's in-flight margin.
        self.frame_traces_max = 0
        self.max_ts_seen: Optional[float] = None
        #: last protocol errors, newest last (status endpoint shows them).
        self.errors: List[Dict[str, object]] = []

        self._ingest_server: Optional[asyncio.base_events.Server] = None
        self._status_server: Optional[asyncio.base_events.Server] = None
        self._tasks: Set[asyncio.Task] = set()
        self._status_tasks: Set[asyncio.Task] = set()
        #: client id -> (session, writer, task) of the connection driving
        #: it, so an offence found during someone else's dispatch can be
        #: answered on the offender's own connection.
        self._live: Dict[int, Tuple[Session, asyncio.StreamWriter, asyncio.Task]] = {}
        #: how many of ``online.refused`` have been evicted here.
        self._refusals_settled = 0
        self._dispatch_cond: Optional[asyncio.Condition] = None
        self._drain_lock: Optional[asyncio.Lock] = None
        self._draining = False
        self._final_report: Optional[VerificationReport] = None
        self._fingerprint: Optional[str] = None
        self.drained = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind both listeners (ephemeral ports are resolved here)."""
        self._dispatch_cond = asyncio.Condition()
        self._drain_lock = asyncio.Lock()
        cfg = self.config
        if cfg.ingest_unix:
            self._ingest_server = await asyncio.start_unix_server(
                self._handle_ingest,
                path=cfg.ingest_unix,
                backlog=cfg.listen_backlog,
            )
        else:
            self._ingest_server = await asyncio.start_server(
                self._handle_ingest,
                cfg.host,
                cfg.port,
                backlog=cfg.listen_backlog,
            )
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

    @property
    def ingest_endpoint(self) -> Union[str, Tuple[str, int]]:
        if self.config.ingest_unix:
            return self.config.ingest_unix
        sock = self._ingest_server.sockets[0]
        return sock.getsockname()[:2]

    @property
    def status_endpoint(self) -> Union[str, Tuple[str, int]]:
        if self.config.status_unix:
            return self.config.status_unix
        sock = self._status_server.sockets[0]
        return sock.getsockname()[:2]

    async def drain(self) -> VerificationReport:
        """Graceful shutdown: refuse new connections, wait for live
        sessions to finish, flush everything staged and publish the final
        report.  Idempotent; concurrent callers share the one report."""
        async with self._drain_lock:
            if self._final_report is not None:
                return self._final_report
            self._draining = True
            async with self._dispatch_cond:
                self._dispatch_cond.notify_all()
            self._ingest_server.close()
            await self._ingest_server.wait_closed()
            tasks = [t for t in self._tasks if t is not asyncio.current_task()]
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            report = self.online.finish()
            self._settle_refusals(None)
            self._final_report = report
            self._fingerprint = report_fingerprint(report)
            self.drained.set()
            return report

    async def aclose(self) -> None:
        """Tear down both listeners (tests; ``drain`` already closed the
        ingest side)."""
        for server in (self._ingest_server, self._status_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        tasks = [
            t
            for t in self._tasks | self._status_tasks
            if t is not asyncio.current_task()
        ]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- shared state ------------------------------------------------------

    @property
    def final_report(self) -> Optional[VerificationReport]:
        return self._final_report

    @property
    def fingerprint(self) -> Optional[str]:
        return self._fingerprint

    @property
    def draining(self) -> bool:
        return self._draining

    def watermark_lag(self) -> Optional[float]:
        """Seconds between the newest trace accepted and the watermark --
        how far the slowest client holds dispatch back."""
        watermark = self.online.watermark
        if self.max_ts_seen is None or watermark == float("-inf"):
            return None
        if watermark == float("inf"):
            return 0.0
        return max(0.0, self.max_ts_seen - watermark)

    def _note_pending(self) -> None:
        pending = self.online.pending
        if pending > self.pending_peak:
            self.pending_peak = pending

    async def _notify_dispatch(self) -> None:
        async with self._dispatch_cond:
            self._dispatch_cond.notify_all()

    # -- ingest connections ------------------------------------------------

    async def _handle_ingest(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        session = self.registry.open()
        try:
            if self._draining:
                raise ServiceProtocolError(
                    "service is draining", session_id=session.session_id
                )
            await self._session_loop(session, reader, writer)
        except (ServiceProtocolError, CodecError, ValueError) as exc:
            await self._poison(session, writer, exc)
        except asyncio.CancelledError:
            # Deliberate teardown (aclose, or an eviction decided in
            # another session's task); end the task cleanly so the streams
            # machinery does not log the cancellation.
            pass
        except (asyncio.IncompleteReadError, ConnectionError):
            # Abrupt transport loss mid-frame: same contract as a
            # disconnect without BYE -- the client may reconnect and
            # resume from its cursor.
            pass
        finally:
            self._live.pop(session.client_id, None)
            self.registry.close(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._tasks.discard(task)

    async def _session_loop(self, session: Session, reader, writer) -> None:
        cfg = self.config
        await protocol.read_magic(reader)
        offset = len(protocol.SERVICE_MAGIC)

        # Handshake: the first frame must be HELLO.
        session.frame_offset = offset
        payload = await protocol.read_frame(reader)
        if payload is None:
            return
        offset += protocol.PREFIX_SIZE + len(payload)
        tag, body = protocol.split_frame(payload)
        if tag != protocol.F_HELLO:
            raise ServiceProtocolError(
                f"first frame must be HELLO, got "
                f"{protocol.TAG_NAMES.get(tag, hex(tag))}",
                session_id=session.session_id,
                byte_offset=session.frame_offset,
            )
        client_id = protocol.parse_control(tag, body)["client_id"]
        self.registry.bind(session, client_id)
        self._live[client_id] = (session, writer, asyncio.current_task())
        self.online.register_client(client_id)
        writer.write(protocol.welcome_frame(session.session_id, cfg.session_credit))
        await writer.drain()

        while True:
            session.frame_offset = offset
            payload = await protocol.read_frame(reader)
            if payload is None:
                # Disconnect without BYE: the client keeps its watermark
                # floor and may reconnect on a fresh session.
                return
            size = protocol.PREFIX_SIZE + len(payload)
            offset += size
            session.frames += 1
            session.bytes += size
            self.frames_total += 1
            self.bytes_total += size
            tag, body = protocol.split_frame(payload)

            if tag == protocol.F_TRACES:
                traces = decode_batch(
                    body, first_trace_id=session.client.next_trace_id
                )
                dispatched = self._ingest_traces(session, client_id, traces)
                self._settle_refusals(session)
                if dispatched:
                    await self._notify_dispatch()
                self._note_pending()
                await self._budget_gate(client_id)
                writer.write(protocol.credit_frame(1))
                self.credits_total += 1
                await writer.drain()
            elif tag == protocol.F_HEARTBEAT:
                now = protocol.parse_control(tag, body)["now"]
                self.heartbeats_total += 1
                dispatched = self.online.heartbeat(client_id, now)
                self._settle_refusals(session)
                if dispatched:
                    await self._notify_dispatch()
                self._note_pending()
            elif tag == protocol.F_BYE:
                # The stream is complete: an infinite floor takes the
                # client out of watermark accounting for good.
                dispatched = self.online.heartbeat(client_id, float("inf"))
                self._settle_refusals(session)
                if dispatched:
                    await self._notify_dispatch()
                self._note_pending()
                writer.write(protocol.bye_ack_frame(session.traces))
                await writer.drain()
                return
            else:
                raise ServiceProtocolError(
                    f"unexpected frame "
                    f"{protocol.TAG_NAMES.get(tag, hex(tag))} on the "
                    f"ingest stream",
                    session_id=session.session_id,
                    byte_offset=session.frame_offset,
                )

    def _ingest_traces(
        self, session: Session, client_id: int, traces: List[Trace]
    ) -> int:
        """Stage one accepted frame (stamped at decode) and advance the
        client's cursor; returns dispatched count."""
        count = len(traces)
        self.registry.stamp(session, count)
        dispatched = self.online.feed_batch(client_id, traces)
        if count > self.frame_traces_max:
            self.frame_traces_max = count
        session.traces += count
        self.traces_total += count
        if count:
            newest = traces[-1].ts_bef
            if self.max_ts_seen is None or newest > self.max_ts_seen:
                self.max_ts_seen = newest
        return dispatched

    def inflight_capacity(self) -> int:
        """Worst-case traces the fleet's outstanding credit can still
        land: every active session holds ~``session_credit`` tokens (one
        returns per drained frame), each worth up to the largest frame
        observed.  The budget gate trips this far *below* the budget --
        credit already granted cannot be recalled, so a purely reactive
        gate overshoots by exactly this amount."""
        return (
            self.registry.active
            * self.config.session_credit
            * self.frame_traces_max
        )

    def over_budget(self) -> bool:
        return (
            self.online.pending + self.inflight_capacity()
            > self.config.pending_budget
        )

    async def _budget_gate(self, client_id: int) -> None:
        """Hold this session's credit while the service is over budget --
        unless the session is a laggard (at the watermark), whose next
        frame is the only thing that can shrink the backlog."""
        if not self.over_budget():
            return
        if self.online.client_mark(client_id) <= self.online.watermark:
            return
        self.stalls_total += 1
        while not self._draining:
            if not self.over_budget():
                break
            if self.online.client_mark(client_id) <= self.online.watermark:
                break
            async with self._dispatch_cond:
                try:
                    await asyncio.wait_for(self._dispatch_cond.wait(), timeout=0.25)
                except asyncio.TimeoutError:
                    pass

    def _evict(
        self,
        session: Optional[Session],
        client_id: Optional[int],
        writer,
        exc: Exception,
    ) -> None:
        """Record an offence against ``client_id``, evict it from
        watermark accounting (nobody else stalls on its floor), refuse its
        stream forever, and queue the ``ERROR`` frame -- session id and
        byte offset in the offender's *own* stream -- on its connection
        (``session`` and ``writer`` are None when it has none)."""
        if isinstance(exc, ServiceProtocolError) and exc.session_id is not None:
            err = exc
        else:
            err = ServiceProtocolError(
                exc.reason if isinstance(exc, ServiceProtocolError) else str(exc),
                session_id=session.session_id if session is not None else None,
                byte_offset=session.frame_offset if session is not None else None,
            )
        self.errors_total += 1
        self.errors.append(
            {
                "session": err.session_id,
                "client": client_id,
                "byte_offset": err.byte_offset,
                "error": err.reason,
            }
        )
        del self.errors[:-100]
        if client_id is not None:
            self.registry.evict(client_id)
            self.online.evict_client(client_id)
            self.evictions_total += 1
            self._note_pending()
        if writer is not None:
            try:
                writer.write(
                    protocol.error_frame(
                        err.session_id or 0, err.byte_offset or 0, err.reason
                    )
                )
            except (ConnectionError, OSError):
                pass

    def _settle_refusals(self, feeding: Optional[Session]) -> None:
        """Evict every client the online layer dropped since the last call
        because the verifier refused one of its traces.  The dispatch that
        found the offence ran inside whichever session moved the
        watermark; each offender is answered on its own connection, which
        is then closed.  Raises the refusal when the offender is
        ``feeding`` itself, for its own poison handling."""
        refused = self.online.refused
        while self._refusals_settled < len(refused):
            client_id = list(refused)[self._refusals_settled]
            self._refusals_settled += 1
            session, writer, task = self._live.get(client_id, (None, None, None))
            if feeding is not None and session is feeding:
                # Its own poison handling settles whatever is left.
                raise ValueError(refused[client_id])
            self._evict(session, client_id, writer, ValueError(refused[client_id]))
            if task is not None:
                task.cancel()

    async def _poison(self, session: Session, writer, exc: Exception) -> None:
        """One bad frame kills one session: its own."""
        self._evict(session, session.client_id, writer, exc)
        self._settle_refusals(None)
        if session.client_id is not None:
            # The eviction may have advanced the watermark for everyone
            # else -- wake any budget-gated session.
            await self._notify_dispatch()
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    # -- status connections ------------------------------------------------

    async def _handle_status(self, reader, writer) -> None:
        """Line-JSON query loop: one request line in, one response line
        out (schema in ``docs/service.md``)."""
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
