"""Service wire protocol: ``repro.service/v1`` control and data frames.

The ingest socket speaks the same length-prefixed framing as the
``repro.traces/v1b`` file format -- a magic header, then ``u32``
length-prefixed payloads -- so a capture file and an ingest stream differ
only in the header line and the one-byte frame tag that precedes each
payload::

    stream  := MAGIC frame*
    frame   := u32(len(payload)) payload
    payload := u8(tag) body

Data frames (``TRACES``) carry a ``repro.traces/v1b`` batch payload
verbatim (:func:`repro.core.codec.encode_batch`); control frames carry
small varint/double bodies encoded with the codec's own primitive
writers.  The grammar of every frame, the credit/backpressure rules and
the versioning policy are documented in ``docs/service.md`` -- that page
is the normative spec and the doc tests pin it against this module.

Frame tags are part of the wire format: append new tags, never renumber.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

from ..core.codec import read_varint, write_varint

#: Versioned ingest-stream header; bump for incompatible frame changes.
SERVICE_MAGIC = b"repro.service/v1\n"

#: Refuse absurd frame lengths before allocating (a corrupt length prefix
#: must not look like a 4 GiB read).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_U32 = struct.Struct("<I")
_D = struct.Struct("<d")

#: Bytes of the per-frame length prefix (offset accounting).
PREFIX_SIZE = _U32.size

# -- frame tags ---------------------------------------------------------------
# Client -> server.
F_HELLO = 0x01      # body: varint(client_id)
F_TRACES = 0x02     # body: repro.traces/v1b batch payload
F_HEARTBEAT = 0x03  # body: f64(progress mark)
F_BYE = 0x04        # body: empty

# Server -> client.
S_WELCOME = 0x11    # body: varint(session_id) varint(credit)
S_CREDIT = 0x12     # body: varint(frames)
S_PAUSE = 0x13      # body: empty (advisory; credit is the hard gate)
S_RESUME = 0x14     # body: empty
S_ERROR = 0x15      # body: varint(session_id) varint(byte_offset)
                    #       varint(len) utf8(message)
S_BYE = 0x16        # body: varint(traces accepted on this session)

#: Human-readable tag names (status endpoint, errors, docs tests).
TAG_NAMES: Dict[int, str] = {
    F_HELLO: "HELLO",
    F_TRACES: "TRACES",
    F_HEARTBEAT: "HEARTBEAT",
    F_BYE: "BYE",
    S_WELCOME: "WELCOME",
    S_CREDIT: "CREDIT",
    S_PAUSE: "PAUSE",
    S_RESUME: "RESUME",
    S_ERROR: "ERROR",
    S_BYE: "BYE_ACK",
}


class ServiceProtocolError(ValueError):
    """A malformed or out-of-contract frame.

    Carries the session id and the ingest-stream byte offset of the
    offending frame so the operator can locate the poison bytes in a
    capture of the stream; both also travel back to the client inside the
    ``ERROR`` frame.
    """

    def __init__(
        self,
        message: str,
        session_id: Optional[int] = None,
        byte_offset: Optional[int] = None,
    ):
        self.reason = message
        self.session_id = session_id
        self.byte_offset = byte_offset
        where = []
        if session_id is not None:
            where.append(f"session {session_id}")
        if byte_offset is not None:
            where.append(f"byte offset {byte_offset}")
        prefix = f"[{', '.join(where)}] " if where else ""
        super().__init__(f"{prefix}{message}")


# -- varint helpers -----------------------------------------------------------
# The codec's varints, shaped for control bodies: a few of them per frame.


def _varints(*values: int) -> bytes:
    out = bytearray()
    for n in values:
        write_varint(out, n)
    return bytes(out)


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    try:
        return read_varint(data, pos)
    except IndexError:
        raise ServiceProtocolError("truncated varint in control frame") from None


# -- frame assembly -----------------------------------------------------------


def encode_frame(tag: int, body: bytes = b"") -> bytes:
    """One wire frame: length prefix + tag byte + body."""
    return _U32.pack(1 + len(body)) + bytes([tag]) + body


def hello_frame(client_id: int) -> bytes:
    return encode_frame(F_HELLO, _varints(client_id))


def traces_frame(batch_payload: bytes) -> bytes:
    """Wrap an already-encoded ``repro.traces/v1b`` batch payload."""
    return encode_frame(F_TRACES, batch_payload)


def heartbeat_frame(now: float) -> bytes:
    return encode_frame(F_HEARTBEAT, _D.pack(now))


def bye_frame() -> bytes:
    return encode_frame(F_BYE)


def welcome_frame(session_id: int, credit: int) -> bytes:
    return encode_frame(S_WELCOME, _varints(session_id, credit))


def credit_frame(frames: int) -> bytes:
    return encode_frame(S_CREDIT, _varints(frames))


def pause_frame() -> bytes:
    return encode_frame(S_PAUSE)


def resume_frame() -> bytes:
    return encode_frame(S_RESUME)


def error_frame(session_id: int, byte_offset: int, message: str) -> bytes:
    encoded = message.encode("utf-8")
    body = _varints(session_id, byte_offset, len(encoded)) + encoded
    return encode_frame(S_ERROR, body)


def bye_ack_frame(traces_accepted: int) -> bytes:
    return encode_frame(S_BYE, _varints(traces_accepted))


# -- frame parsing ------------------------------------------------------------


def split_frame(payload: bytes) -> Tuple[int, bytes]:
    """Split one frame payload into ``(tag, body)``."""
    if not payload:
        raise ServiceProtocolError("empty frame")
    return payload[0], payload[1:]


def parse_control(tag: int, body: bytes) -> Dict[str, object]:
    """Decode a control-frame body into a dict (``TRACES`` bodies are the
    codec's business and are not accepted here)."""
    if tag == F_HELLO:
        client_id, pos = _read_varint(body, 0)
        _expect_end(body, pos, "HELLO")
        return {"client_id": client_id}
    if tag == F_HEARTBEAT:
        if len(body) != _D.size:
            raise ServiceProtocolError(
                f"HEARTBEAT body must be 8 bytes, got {len(body)}"
            )
        return {"now": _D.unpack(body)[0]}
    if tag == F_BYE:
        _expect_end(body, 0, "BYE")
        return {}
    if tag == S_WELCOME:
        session_id, pos = _read_varint(body, 0)
        credit, pos = _read_varint(body, pos)
        _expect_end(body, pos, "WELCOME")
        return {"session_id": session_id, "credit": credit}
    if tag == S_CREDIT:
        frames, pos = _read_varint(body, 0)
        _expect_end(body, pos, "CREDIT")
        return {"frames": frames}
    if tag in (S_PAUSE, S_RESUME):
        _expect_end(body, 0, TAG_NAMES[tag])
        return {}
    if tag == S_ERROR:
        session_id, pos = _read_varint(body, 0)
        byte_offset, pos = _read_varint(body, pos)
        length, pos = _read_varint(body, pos)
        end = pos + length
        if end > len(body):
            raise ServiceProtocolError("truncated ERROR message")
        message = body[pos:end].decode("utf-8", errors="replace")
        _expect_end(body, end, "ERROR")
        return {
            "session_id": session_id,
            "byte_offset": byte_offset,
            "message": message,
        }
    if tag == S_BYE:
        accepted, pos = _read_varint(body, 0)
        _expect_end(body, pos, "BYE_ACK")
        return {"traces_accepted": accepted}
    raise ServiceProtocolError(f"unknown frame tag 0x{tag:02x}")


def _expect_end(body: bytes, pos: int, name: str) -> None:
    if pos != len(body):
        raise ServiceProtocolError(
            f"{name} frame has {len(body) - pos} trailing bytes"
        )


# -- asyncio stream surface ---------------------------------------------------


async def read_magic(reader) -> None:
    """Consume and validate the stream header."""
    header = await reader.readexactly(len(SERVICE_MAGIC))
    if header != SERVICE_MAGIC:
        raise ServiceProtocolError(
            f"not a {SERVICE_MAGIC[:-1].decode('ascii')} stream "
            f"(header {header[:24]!r})"
        )


async def read_frame(reader) -> Optional[bytes]:
    """Read one length-prefixed frame payload; ``None`` on clean EOF at a
    frame boundary (mid-frame EOF raises ``IncompleteReadError``)."""
    import asyncio

    try:
        prefix = await reader.readexactly(_U32.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ServiceProtocolError("truncated frame length prefix") from None
    (length,) = _U32.unpack(prefix)
    if length == 0:
        raise ServiceProtocolError("zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise ServiceProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ServiceProtocolError("truncated frame payload") from None
