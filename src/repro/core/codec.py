"""Binary trace codec: struct-packed batch frames with interned strings.

JSONL (:mod:`repro.core.io`) is the friendly interchange format, but its
per-trace cost -- dict building, JSON stringification, float repr parsing
-- dominates ingestion once the verifier itself is fast.  This module
defines the compact sibling format ``repro.traces/v1b`` -- what capture
files and the service's ``TRACES`` frames are made of -- built for the
batch shape the rest of the spine speaks (whole client batches through
the pipeline):

* **length-prefixed batch framing**: a file is the magic header followed
  by frames, each a little-endian ``u32`` payload length plus payload, so
  readers stream batch by batch without scanning for delimiters;
* **interned string table** per frame: transaction ids, record-key parts
  and column names repeat heavily inside a batch; each frame carries every
  distinct string once and the records reference table indices.  Across
  frames the reader hands out one object per text, from a canonical
  table bounded by frame size, not by history length
  (:func:`read_strings`);
* **struct-packed records**: timestamps are raw doubles, small ints are
  LEB128 varints (zigzag for signed), enum fields are single bytes
  (:data:`repro.core.trace.KIND_TO_CODE`).

Layout::

    file    := MAGIC frame*
    frame   := u32(len(payload)) payload
    payload := varint(n_strings) (varint(len) utf8)*   -- string table
               varint(n_records) record*

The varint primitives (:func:`write_varint` / :func:`read_varint`) are
also what the service's control frames are written with
(:mod:`repro.service.protocol`).  The shard pipes of
:mod:`repro.core.parallel` are not a wire format and use none of this:
coordinator and workers are one process image and exchange pickles.

``trace_id`` is deliberately not serialised, exactly as in the JSONL
format: it is assigned at decode, in stream order.  Every ingest path
(capture files, both service tiers) passes ``first_trace_id`` so the ids
are the deterministic ``client_id << SEQ_BITS | seq`` stamps; without it
decoding falls back to the process-local counter.
"""

from __future__ import annotations

import itertools
import struct
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Sequence, Union

from .intervals import Interval
from .trace import (
    CODE_TO_KIND,
    CODE_TO_STATUS,
    KIND_TO_CODE,
    KeyRange,
    OpStatus,
    Trace,
    _trace_counter,
)

#: Versioned header; bump the suffix for incompatible layout changes.
MAGIC = b"repro.traces/v1b\n"

_U32 = struct.Struct("<I")
_DD = struct.Struct("<dd")
_D = struct.Struct("<d")

# Value tags (part of the wire format: append, never renumber).
_V_NONE = 0
_V_TRUE = 1
_V_FALSE = 2
_V_INT = 3
_V_FLOAT = 4
_V_STR = 5
_V_TUPLE = 6

# Record flag bits.
_F_STATUS = 0x04       # OpStatus.FAILED
_F_FOR_UPDATE = 0x08
_F_PREDICATE = 0x10
_F_READS = 0x20
_F_WRITES = 0x40

_STATUS_OK = OpStatus.OK
_STATUS_FAILED = CODE_TO_STATUS[1]
#: op kinds by wire code (the 2-bit code is always mapped), and back by
#: identity: enum ``__hash__`` is a Python call, ``id`` is not.
_KINDS = tuple(CODE_TO_KIND[code] for code in range(4))
_KIND_CODE_BY_ID = {id(kind): code for kind, code in KIND_TO_CODE.items()}


class CodecError(ValueError):
    """Malformed or unsupported binary trace data."""


# -- the one writer -----------------------------------------------------------------
#
# Plain functions over ``(body, index, strings)`` -- the frame's record
# bytes, its interning map and its string table -- mirroring the
# ``read_*`` functions below, single-byte varint fast paths included.
# Every trace frame this package emits (capture files, service ``TRACES``
# frames) is written through them; :func:`encode_batch` owns the three
# buffers and assembles ``string table + body``.


def write_varint(body: bytearray, n: int) -> None:
    while n > 0x7F:
        body.append((n & 0x7F) | 0x80)
        n >>= 7
    body.append(n)


def write_zigzag(body: bytearray, n: int) -> None:
    write_varint(body, n * 2 if n >= 0 else -n * 2 - 1)


def write_string(body: bytearray, index: dict, strings: List[bytes], s: str) -> None:
    """An interned string reference (first sight appends to the table)."""
    ref = index.get(s)
    if ref is None:
        ref = index[s] = len(strings)
        strings.append(s.encode("utf-8"))
    if ref < 0x80:
        body.append(ref)
    else:
        write_varint(body, ref)


def write_value(body: bytearray, index: dict, strings: List[bytes], value) -> None:
    """A tagged dynamic value: None, bool, int, float, str or a tuple of
    values -- everything a record key or column value may be."""
    kind = type(value)
    if kind is str:
        body.append(_V_STR)
        write_string(body, index, strings, value)
    elif kind is int:
        body.append(_V_INT)
        zz = value * 2 if value >= 0 else -value * 2 - 1
        if zz < 0x80:
            body.append(zz)
        else:
            write_varint(body, zz)
    elif value is None:
        body.append(_V_NONE)
    elif value is True:
        body.append(_V_TRUE)
    elif value is False:
        body.append(_V_FALSE)
    elif kind is float:
        body.append(_V_FLOAT)
        body += _D.pack(value)
    elif isinstance(value, tuple):
        body.append(_V_TUPLE)
        write_varint(body, len(value))
        for part in value:
            write_value(body, index, strings, part)
    elif isinstance(value, bool):  # bool subclasses snuck past `is`
        body.append(_V_TRUE if value else _V_FALSE)
    elif isinstance(value, int):
        body.append(_V_INT)
        write_zigzag(body, value)
    elif isinstance(value, float):
        body.append(_V_FLOAT)
        body += _D.pack(value)
    elif isinstance(value, str):
        body.append(_V_STR)
        write_string(body, index, strings, value)
    else:
        raise CodecError(
            f"unsupported value type {type(value).__name__!r}: {value!r}"
        )


def write_sets(body: bytearray, index: dict, strings: List[bytes], sets) -> None:
    write_varint(body, len(sets))
    for key, columns in sets.items():
        write_value(body, index, strings, key)
        write_varint(body, len(columns))
        for column, value in columns.items():
            write_string(body, index, strings, column)
            write_value(body, index, strings, value)


def write_trace(body: bytearray, index: dict, strings: List[bytes], trace: Trace) -> None:
    """One trace record (what :func:`read_trace` reads back)."""
    reads = trace.reads
    writes = trace.writes
    predicate = trace.predicate
    flags = _KIND_CODE_BY_ID[id(trace.kind)]
    if trace.status is not _STATUS_OK:
        flags |= _F_STATUS
    if trace.for_update:
        flags |= _F_FOR_UPDATE
    if predicate is not None:
        flags |= _F_PREDICATE
    if reads:
        flags |= _F_READS
    if writes:
        flags |= _F_WRITES
    body.append(flags)
    write_string(body, index, strings, trace.txn_id)
    interval = trace.interval
    body += _DD.pack(interval.ts_bef, interval.ts_aft)
    client_id = trace.client_id
    zz = client_id * 2 if client_id >= 0 else -client_id * 2 - 1
    if zz < 0x80:
        body.append(zz)
    else:
        write_varint(body, zz)
    op_index = trace.op_index
    if op_index < 0x80:
        body.append(op_index)
    else:
        write_varint(body, op_index)
    if reads:
        write_sets(body, index, strings, reads)
    if writes:
        write_sets(body, index, strings, writes)
    if predicate is not None:
        write_value(body, index, strings, tuple(predicate.prefix))
        write_zigzag(body, predicate.lo)
        write_zigzag(body, predicate.hi)


# -- batch API ------------------------------------------------------------------


def encode_batch(traces: Sequence[Trace]) -> bytes:
    """Encode one batch of traces into a frame payload (no length prefix;
    file framing is :func:`dump_traces_binary`'s job, socket framing the
    protocol's)."""
    body = bytearray()
    strings: List[bytes] = []
    index: dict = {}
    write_varint(body, len(traces))
    for trace in traces:
        write_trace(body, index, strings, trace)
    head = bytearray()
    write_varint(head, len(strings))
    for encoded in strings:
        write_varint(head, len(encoded))
        head += encoded
    head += body
    return bytes(head)


# -- the one reader -----------------------------------------------------------------
#
# Plain functions over ``(data, strings, pos)`` that return ``(value,
# next_pos)``; truncation surfaces as ``IndexError`` / ``struct.error`` for
# the caller to name (:func:`_payload_error`).  Every trace frame this
# package reads -- capture files, service ``TRACES`` frames -- is read
# through them, by :func:`decode_run`.

def read_varint(data: bytes, pos: int):
    byte = data[pos]
    if byte < 0x80:
        return byte, pos + 1
    result = byte & 0x7F
    shift = 7
    while True:
        pos += 1
        byte = data[pos]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos + 1
        shift += 7


def read_zigzag(data: bytes, pos: int):
    zz, pos = read_varint(data, pos)
    return (zz >> 1) ^ -(zz & 1), pos


def read_value(data: bytes, strings: List[str], pos: int):
    tag = data[pos]
    pos += 1
    if tag == _V_STR:
        index = data[pos]
        if index < 0x80:
            return strings[index], pos + 1
        index, pos = read_varint(data, pos)
        return strings[index], pos
    if tag == _V_INT:
        zz = data[pos]
        if zz < 0x80:
            return (zz >> 1) ^ -(zz & 1), pos + 1
        zz, pos = read_varint(data, pos)
        return (zz >> 1) ^ -(zz & 1), pos
    if tag == _V_NONE:
        return None, pos
    if tag == _V_TRUE:
        return True, pos
    if tag == _V_FALSE:
        return False, pos
    if tag == _V_FLOAT:
        return _D.unpack_from(data, pos)[0], pos + 8
    if tag == _V_TUPLE:
        count, pos = read_varint(data, pos)
        parts = []
        for _ in range(count):
            part, pos = read_value(data, strings, pos)
            parts.append(part)
        return tuple(parts), pos
    raise CodecError(f"unknown value tag {tag}")


def read_sets(data: bytes, strings: List[str], pos: int):
    """A read or write set: ``{key: {column: value}}``.

    Two shapes make up nearly all of a capture's values -- a string-table
    ref and a small int, each a one- or two-byte varint -- as keys, as
    the parts of tuple keys and as column values.  They are resolved in
    this loop; every other tag, and every longer varint, goes to
    :func:`read_value` / :func:`read_varint` from the same position."""
    count = data[pos]
    if count < 0x80:
        pos += 1
    else:
        count, pos = read_varint(data, pos)
    out = {}
    for _ in range(count):
        tag = data[pos]
        if tag == _V_TUPLE and data[pos + 1] < 0x80:
            parts = []
            n_parts = data[pos + 1]
            pos += 2
            for _ in range(n_parts):
                tag = data[pos]
                if tag != _V_STR and tag != _V_INT:
                    part, pos = read_value(data, strings, pos)
                else:
                    low = data[pos + 1]
                    if low < 0x80:
                        pos += 2
                    elif data[pos + 2] < 0x80:
                        low = (low & 0x7F) | (data[pos + 2] << 7)
                        pos += 3
                    else:
                        low, pos = read_varint(data, pos + 1)
                    part = (
                        strings[low] if tag == _V_STR
                        else (low >> 1) ^ -(low & 1)
                    )
                parts.append(part)
            key = tuple(parts)
        elif tag != _V_STR and tag != _V_INT:
            key, pos = read_value(data, strings, pos)
        else:
            low = data[pos + 1]
            if low < 0x80:
                pos += 2
            elif data[pos + 2] < 0x80:
                low = (low & 0x7F) | (data[pos + 2] << 7)
                pos += 3
            else:
                low, pos = read_varint(data, pos + 1)
            key = strings[low] if tag == _V_STR else (low >> 1) ^ -(low & 1)
        n_cols = data[pos]
        if n_cols < 0x80:
            pos += 1
        else:
            n_cols, pos = read_varint(data, pos)
        columns = {}
        for _ in range(n_cols):
            index = data[pos]
            if index < 0x80:
                pos += 1
            elif data[pos + 1] < 0x80:
                index = (index & 0x7F) | (data[pos + 1] << 7)
                pos += 2
            else:
                index, pos = read_varint(data, pos)
            column = strings[index]
            tag = data[pos]
            if tag != _V_STR and tag != _V_INT:
                columns[column], pos = read_value(data, strings, pos)
                continue
            low = data[pos + 1]
            if low < 0x80:
                pos += 2
            elif data[pos + 2] < 0x80:
                low = (low & 0x7F) | (data[pos + 2] << 7)
                pos += 3
            else:
                low, pos = read_varint(data, pos + 1)
            columns[column] = (
                strings[low] if tag == _V_STR else (low >> 1) ^ -(low & 1)
            )
        out[key] = columns
    return out, pos


#: The canonical string table of :func:`read_strings`: two generations,
#: each mapping a decoded text to the one object every frame hands out for
#: it, and the size at which the current one retires.
_canon_current: dict = {}
_canon_previous: dict = {}
_canon_limit = 0


def read_strings(data: bytes, pos: int):
    """The string table every payload opens with, canonicalised: equal
    text decoded from any frame -- another client's capture file, another
    service session -- is handed out as one object while it is in the
    table, so the verifier's state holds one copy of a key, column or
    value however many streams carry it.

    Each text is looked up in the current generation, then the previous
    one, and filed in the current one.  A generation holds at most twice
    the largest frame table it has taken in: a miss that finds it full
    retires it first (previous <- current, current <- empty), and a
    retired generation frees what nothing else holds.  The two together
    hold at most four times the largest frame table -- the bound follows
    the frames, not the length of the history, and has no setting.  The
    limit is kept only once the whole table decoded, so a damaged frame
    that claims more strings than it carries cannot raise it.  The table
    decides only which object a text is handed out as, never its value:
    two threads decoding at once can at worst miss a share.

    Not :func:`sys.intern`: since Python 3.12 interned strings are
    immortal, so every transaction id and written value ever decoded
    would stay resident for the life of the process."""
    global _canon_current, _canon_previous, _canon_limit
    n_strings, pos = read_varint(data, pos)
    current = _canon_current
    previous = _canon_previous
    limit = max(_canon_limit, 2 * n_strings)
    strings = []
    append = strings.append
    for _ in range(n_strings):
        length = data[pos]
        if length < 0x80:
            pos += 1
        else:
            length, pos = read_varint(data, pos)
        end = pos + length
        text = data[pos:end].decode("utf-8")
        canonical = current.get(text)
        if canonical is None:
            canonical = previous.get(text, text)
            if len(current) >= limit:
                _canon_previous = previous = current
                _canon_current = current = {}
                limit = 2 * n_strings
            current[text] = canonical
        append(canonical)
        pos = end
    _canon_limit = limit
    return strings, pos


def read_trace(data: bytes, strings: List[str], pos: int, trace_id: int):
    """One trace record (what :func:`write_trace` wrote), stamped with
    ``trace_id``."""
    flags = data[pos]
    index = data[pos + 1]
    if index < 0x80:
        pos += 2
    else:
        index, pos = read_varint(data, pos + 1)
    txn_id = strings[index]
    ts_bef, ts_aft = _DD.unpack_from(data, pos)
    pos += 16
    zz = data[pos]
    if zz < 0x80:
        pos += 1
    else:
        zz, pos = read_varint(data, pos)
    client_id = (zz >> 1) ^ -(zz & 1)
    op_index = data[pos]
    if op_index < 0x80:
        pos += 1
    else:
        op_index, pos = read_varint(data, pos)
    if flags & _F_READS:
        reads, pos = read_sets(data, strings, pos)
    else:
        reads = {}
    if flags & _F_WRITES:
        writes, pos = read_sets(data, strings, pos)
    else:
        writes = {}
    predicate = None
    if flags & _F_PREDICATE:
        prefix, pos = read_value(data, strings, pos)
        lo, pos = read_zigzag(data, pos)
        hi, pos = read_zigzag(data, pos)
        predicate = KeyRange(prefix=prefix, lo=lo, hi=hi)
    # Positional, in field order: the one production construction site, so
    # a record costs eleven slot stores and no keyword matching.
    return (
        Trace(
            Interval(ts_bef, ts_aft),
            _KINDS[flags & 0x03],
            txn_id,
            client_id,
            reads,
            writes,
            _STATUS_FAILED if flags & _F_STATUS else _STATUS_OK,
            bool(flags & _F_FOR_UPDATE),
            predicate,
            op_index,
            trace_id,
        ),
        pos,
    )


def _open_payload(payload: Union[bytes, memoryview]):
    """One frame payload opened for :func:`decode_run`: its bytes, its
    string table, its record count and the position of the first record."""
    data = bytes(payload)
    try:
        strings, pos = read_strings(data, 0)
        n_records, pos = read_varint(data, pos)
    except (IndexError, struct.error, ValueError) as exc:
        raise _payload_error(exc) from None
    return data, strings, n_records, pos


def decode_run(data: bytes, strings: List[str], pos: int, trace_ids: Iterable[int]):
    """Decode one record per id in ``trace_ids`` from ``data`` at ``pos``;
    returns ``(traces, next_pos)``.

    This is the ingestion hot loop -- the one record loop of the module:
    :func:`decode_batch` runs it once over a whole frame, the capture
    reader (:func:`load_traces_binary`) once per :data:`RUN` records as
    the pipeline pulls them.  Varints take a single-byte fast path because
    ids, counts and table refs almost always fit seven bits.  The readers
    are functions, not closures over this call's
    locals: a closure that recurses through its own cell is a reference
    cycle, and one per decoded frame would pin the frame's payload and
    string table until a collector pass (:mod:`repro.core.runtime`).
    """
    traces: List[Trace] = []
    append = traces.append
    try:
        for trace_id in trace_ids:
            trace, pos = read_trace(data, strings, pos, trace_id)
            append(trace)
    except (IndexError, struct.error, ValueError) as exc:
        raise _payload_error(exc) from None
    return traces, pos


def _payload_error(exc: Exception) -> "CodecError":
    """What a failure inside a frame payload is reported as."""
    if isinstance(exc, CodecError):
        return exc
    if isinstance(exc, (IndexError, struct.error)):
        return CodecError("truncated batch payload")
    # Invalid UTF-8, or an interval / key range its constructor refuses.
    return CodecError(f"malformed batch payload: {exc}")


def _trace_ids(first_trace_id: Optional[int], count: int) -> Iterable[int]:
    """``count`` ids from ``first_trace_id`` up (``None``: fresh values of
    the process-local counter)."""
    if first_trace_id is None:
        return itertools.islice(_trace_counter, count)
    return range(first_trace_id, first_trace_id + count)


def _check_consumed(data: bytes, pos: int) -> None:
    if pos != len(data):
        raise CodecError(
            f"trailing bytes after batch: {len(data) - pos} of {len(data)}"
        )


def decode_batch(
    payload: Union[bytes, memoryview],
    first_trace_id: Optional[int] = None,
) -> List[Trace]:
    """Decode one frame payload back into traces, eagerly (service
    ``TRACES`` frames; whole-frame consumers of a capture file).

    ``first_trace_id`` stamps deterministic ids during construction:
    record ``i`` gets ``first_trace_id + i`` instead of a fresh
    process-local counter value.  This and the capture reader are the
    stamping sites of the ``client_id << SEQ_BITS | seq`` scheme: both
    pass the client's cursor to :func:`decode_run`.
    """
    data, strings, n_records, pos = _open_payload(payload)
    traces, pos = decode_run(data, strings, pos, _trace_ids(first_trace_id, n_records))
    _check_consumed(data, pos)
    return traces


# -- streaming file surface -----------------------------------------------------


def dump_traces_binary(
    traces: Iterable[Trace],
    sink: Union[str, Path, IO[bytes]],
    batch_size: int = 512,
) -> int:
    """Binary counterpart of :func:`repro.core.io.dump_traces`: the magic
    header, then one frame per ``batch_size`` traces (the last may hold
    fewer); returns the number written.  A path is opened here and closed
    on return or error; a stream is left open."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    own = isinstance(sink, (str, Path))
    stream = open(sink, "wb") if own else sink
    traces = iter(traces)
    count = 0
    try:
        stream.write(MAGIC)
        while True:
            batch = list(itertools.islice(traces, batch_size))
            if not batch:
                return count
            payload = encode_batch(batch)
            stream.write(_U32.pack(len(payload)))
            stream.write(payload)
            count += len(batch)
    finally:
        if own:
            stream.close()


#: Records the capture reader decodes per step: the pipeline's client
#: batch (:class:`repro.core.pipeline.ClientFeed`), so each pull of the
#: pipeline costs one pass of the record loop and a client's look-ahead is
#: at most one run of decoded traces, however large the writer's frames.
RUN = 64


def load_traces_binary(
    source: Union[str, Path, IO[bytes]],
    first_trace_id: Optional[int] = None,
) -> Iterator[Trace]:
    """Binary counterpart of :func:`repro.core.io.load_traces`: the traces
    of a ``repro.traces/v1b`` file, decoded on demand.  A frame is read
    when the one before is used up and held as bytes plus string table;
    its records are decoded :data:`RUN` at a time as the consumer reaches
    them, so the decoded look-ahead is at most one run.  The frame-level
    checks (record count, trailing bytes) run before a frame's last run is
    handed out.  A path is opened by the first ``next()`` and closed on
    exhaustion, error or ``close()``.  ``first_trace_id`` stamps the
    stream's ids contiguously across frames (see :func:`decode_batch`).
    Damaged input raises a :class:`CodecError` naming the file, frame
    index and byte offset, after the runs in front of the damage were
    yielded."""
    own = isinstance(source, (str, Path))
    stream = open(source, "rb") if own else source
    name = source if own else getattr(source, "name", "<stream>")
    try:
        header = stream.read(len(MAGIC))
        if header != MAGIC:
            raise CodecError(
                f"{name}: not a {MAGIC[:-1].decode('ascii')} file "
                f"(header {header[:24]!r})"
            )
        offset = len(MAGIC)
        next_id = first_trace_id
        for index in itertools.count():
            prefix = stream.read(_U32.size)
            if not prefix:
                return
            try:
                if len(prefix) < _U32.size:
                    raise CodecError("truncated frame length")
                (length,) = _U32.unpack(prefix)
                payload = stream.read(length)
                if len(payload) < length:
                    raise CodecError(
                        f"truncated frame payload "
                        f"({len(payload)} of {length} bytes)"
                    )
                data, strings, remaining, pos = _open_payload(payload)
                while True:
                    count = min(RUN, remaining)
                    run, pos = decode_run(
                        data, strings, pos, _trace_ids(next_id, count)
                    )
                    remaining -= count
                    if not remaining:
                        _check_consumed(data, pos)
                    if next_id is not None:
                        next_id += count
                    yield from run
                    if not remaining:
                        break
            except CodecError as exc:
                raise CodecError(
                    f"{name}: frame {index} at byte offset {offset}: {exc}"
                ) from None
            offset += _U32.size + length
    finally:
        if own:
            stream.close()
