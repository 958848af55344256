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

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.trace import SEQ_BITS


@dataclass
class ClientRecord:
    """Per-client state that outlives any one session."""

    client_id: int
    next_seq: int = 0
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
        session.client = record
        return record

    def close(self, session: Session) -> None:
        if session.closed:
            return
        session.closed = True
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


__all__ = [
    "SEQ_BITS",
    "ClientRecord",
    "Session",
    "SessionRegistry",
]
