"""Session registry: connection bookkeeping and deterministic trace ids.

A *session* is one ingest connection; a *client* is one logical trace
stream (the ``client_id`` every trace carries).  The two are decoupled so
a client may disconnect mid-stream and reconnect on a fresh session --
its per-client cursor (how many traces it has pushed so far) survives in
the registry and keeps trace-id assignment contiguous.

Trace ids never travel on the wire.  Every ingest path stamps them at
decode (``decode_batch(first_trace_id=...)``) with::

    trace_id = (client_id << SEQ_BITS) | per_client_sequence

which sorts lexicographically by ``(client_id, arrival index)`` -- the
same ids :func:`repro.core.io.load_client_streams` stamps when an offline
``verify`` reads the same streams from per-client files.  Timestamp ties
between clients therefore break identically online and offline, which is
what makes the drained service report byte-identical to the offline run
(see ``docs/service.md``).  The registry owns the per-client cursor the
stamps continue from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.trace import SEQ_BITS


@dataclass
class ClientRecord:
    """Per-client state that outlives any one session."""

    client_id: int
    next_seq: int = 0
    traces: int = 0
    sessions: int = 0
    #: session id currently attached to this client (None between
    #: connections); a client may only be driven by one session at a time.
    active_session: Optional[int] = None
    evicted: bool = False

    @property
    def next_trace_id(self) -> int:
        """The id the client's next trace is stamped with."""
        return (self.client_id << SEQ_BITS) + self.next_seq


@dataclass
class Session:
    """One ingest connection."""

    session_id: int
    client: Optional[ClientRecord] = None
    frames: int = 0
    traces: int = 0
    bytes: int = 0
    #: ingest-stream offset of the first byte of the frame currently being
    #: processed (error reports point here).
    frame_offset: int = 0
    closed: bool = False
    error: Optional[str] = None

    @property
    def client_id(self) -> Optional[int]:
        return self.client.client_id if self.client is not None else None


class SessionRegistry:
    """Allocates sessions, binds them to clients, stamps trace ids."""

    def __init__(self) -> None:
        self._sessions: Dict[int, Session] = {}
        self._clients: Dict[int, ClientRecord] = {}
        self._next_session = 1
        self.opened = 0
        self.closed = 0

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> Session:
        session = Session(session_id=self._next_session)
        self._next_session += 1
        self._sessions[session.session_id] = session
        self.opened += 1
        return session

    def bind(self, session: Session, client_id: int) -> ClientRecord:
        """Attach a session to its client (the HELLO handshake)."""
        record = self._clients.get(client_id)
        if record is None:
            record = ClientRecord(client_id=client_id)
            self._clients[client_id] = record
        if record.evicted:
            raise ValueError(
                f"client {client_id} was evicted for a poison frame; "
                f"its stream cannot resume"
            )
        if record.active_session is not None:
            raise ValueError(
                f"client {client_id} is already driven by "
                f"session {record.active_session}"
            )
        record.active_session = session.session_id
        record.sessions += 1
        session.client = record
        return record

    def close(self, session: Session) -> None:
        if session.closed:
            return
        session.closed = True
        self.closed += 1
        if session.client is not None:
            if session.client.active_session == session.session_id:
                session.client.active_session = None
        self._sessions.pop(session.session_id, None)

    def evict(self, client_id: int) -> None:
        """Mark a client poisoned: its stream may never resume (a fresh
        HELLO for the same id is refused)."""
        record = self._clients.get(client_id)
        if record is not None:
            record.evicted = True

    # -- trace-id stamping -------------------------------------------------

    def stamp(self, session: Session, count: int) -> None:
        """Advance the client's cursor past one accepted frame of
        ``count`` traces (decoded with ``first_trace_id=
        session.client.next_trace_id``, so they already carry their
        ids)."""
        record = session.client
        if record is None:
            raise ValueError("session has no bound client")
        record.next_seq += count
        record.traces += count

    # -- introspection -----------------------------------------------------

    @property
    def active(self) -> int:
        return len(self._sessions)

    @property
    def clients(self) -> int:
        return len(self._clients)

    def sessions_snapshot(self) -> List[Dict[str, object]]:
        """Status-endpoint view of the live sessions."""
        return [
            {
                "session": s.session_id,
                "client": s.client_id,
                "frames": s.frames,
                "traces": s.traces,
                "bytes": s.bytes,
            }
            for s in sorted(self._sessions.values(), key=lambda s: s.session_id)
        ]

    def client_record(self, client_id: int) -> Optional[ClientRecord]:
        return self._clients.get(client_id)


# -- multi-worker client directory --------------------------------------------


@dataclass
class DirectoryEntry:
    """Coordinator-side cursor for one client under the multi-loop
    gateway: the authoritative ``next_seq``/``floor`` that survive
    reconnects across acceptor workers."""

    client_id: int
    next_seq: int = 0
    traces: int = 0
    sessions: int = 0
    #: last stamped timestamp applied (or heartbeat mark) -- the value a
    #: resuming session's worker validates its first frame against.
    floor: float = float("-inf")
    active_session: Optional[int] = None
    active_worker: Optional[int] = None
    #: every worker that has ever driven this client (tests assert a
    #: reconnect really landed elsewhere).
    workers: Set[int] = field(default_factory=set)
    evicted: bool = False
    evict_reason: Optional[str] = None
    #: FIFO of ``(worker, session)`` binds waiting for the active
    #: session to detach.
    pending: List[Tuple[int, int]] = field(default_factory=list)


class ClientDirectory:
    """Cross-worker client bookkeeping for the multi-loop gateway.

    A client may only be driven by one session at a time, but that
    session can live on any acceptor worker.  A ``bind`` for a client
    that is still active is *queued* rather than refused: the reconnect
    race (new connection lands on worker B before worker A's DETACH
    crosses its pipe) would otherwise refuse a perfectly sequential
    resume.  Because each worker's pipe is FIFO, the DETACH arrives
    after every batch its session forwarded -- so when the queued bind
    is granted, the cursor handed out is exact.
    """

    def __init__(self) -> None:
        self._clients: Dict[int, DirectoryEntry] = {}

    def bind(
        self, client_id: int, worker: int, session: int
    ) -> Tuple[str, object]:
        """Returns ``("bound", entry)``, ``("queued", entry)`` or
        ``("refused", reason)``."""
        entry = self._clients.get(client_id)
        if entry is None:
            entry = DirectoryEntry(client_id=client_id)
            self._clients[client_id] = entry
        if entry.evicted:
            return (
                "refused",
                f"client {client_id} was evicted for a poison frame; "
                f"its stream cannot resume",
            )
        if entry.active_session is not None:
            entry.pending.append((worker, session))
            return ("queued", entry)
        self._grant(entry, worker, session)
        return ("bound", entry)

    def _grant(self, entry: DirectoryEntry, worker: int, session: int) -> None:
        entry.active_session = session
        entry.active_worker = worker
        entry.workers.add(worker)
        entry.sessions += 1

    def detach(
        self, client_id: int, session: int
    ) -> Optional[Tuple[int, int, DirectoryEntry]]:
        """Clear the active session; if a bind is queued, grant it and
        return ``(worker, session, entry)`` so the gateway can reply."""
        entry = self._clients.get(client_id)
        if entry is None:
            return None
        if entry.active_session == session:
            entry.active_session = None
            entry.active_worker = None
        if entry.active_session is None and entry.pending and not entry.evicted:
            worker, queued = entry.pending.pop(0)
            self._grant(entry, worker, queued)
            return (worker, queued, entry)
        return None

    def note_traces(self, client_id: int, next_seq: int, floor: float) -> None:
        entry = self._clients.get(client_id)
        if entry is None:
            return
        entry.traces += max(0, next_seq - entry.next_seq)
        entry.next_seq = max(entry.next_seq, next_seq)
        entry.floor = max(entry.floor, floor)

    def note_mark(self, client_id: int, ts: float) -> None:
        entry = self._clients.get(client_id)
        if entry is not None and ts > entry.floor:
            entry.floor = ts

    def evict(self, client_id: int, reason: str) -> List[Tuple[int, int]]:
        """Mark a client poisoned and drain its queued binds; returns
        the ``(worker, session)`` pairs that must be refused."""
        entry = self._clients.get(client_id)
        if entry is None:
            entry = DirectoryEntry(client_id=client_id)
            self._clients[client_id] = entry
        entry.evicted = True
        entry.evict_reason = reason
        refused = entry.pending
        entry.pending = []
        return refused

    def fail_all_pending(self) -> List[Tuple[int, int, int]]:
        """Drain every queued bind (drain-time refusal); returns
        ``(worker, session, client_id)`` triples."""
        failed: List[Tuple[int, int, int]] = []
        for entry in self._clients.values():
            for worker, session in entry.pending:
                failed.append((worker, session, entry.client_id))
            entry.pending = []
        return failed

    @property
    def clients(self) -> int:
        return len(self._clients)

    def client_record(self, client_id: int) -> Optional[DirectoryEntry]:
        return self._clients.get(client_id)

    def records(self) -> List[DirectoryEntry]:
        return sorted(self._clients.values(), key=lambda e: e.client_id)


__all__ = [
    "SEQ_BITS",
    "ClientDirectory",
    "ClientRecord",
    "DirectoryEntry",
    "Session",
    "SessionRegistry",
]
