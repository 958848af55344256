"""Trace persistence: JSON-lines and binary serialisation of traces.

The tracer side of a real deployment runs inside application clients and
ships traces to the verifier as an append-only stream.  This module defines
the self-describing text format -- one JSON object per line, ordered per
client (each client appends to its own file or stream) -- and routes to the
compact binary sibling (:mod:`repro.core.codec`, ``repro.traces/v1b``)
when a path carries the :data:`BINARY_SUFFIX` extension: the file name
alone picks the format, and file objects are always JSONL.

Format (one line per trace)::

    {"k": "read", "t": "t42", "c": 3, "b": 12.000001, "a": 12.000420,
     "i": 0, "r": {"x": {"v": 1}}, "fu": false}

Keys are shortened because trace volume dominates storage:  ``k`` kind,
``t`` txn id, ``c`` client id, ``b``/``a`` before/after timestamps, ``i``
op index, ``r``/``w`` read/write sets, ``s`` status (omitted when ok),
``fu`` for-update flag (omitted when false).

Record keys may be any hashable; tuples (the relational convention) are
encoded as JSON arrays tagged with ``"\\u0000t"`` to round-trip exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, IO, Iterable, Iterator, List, Mapping, Optional, Union

from .trace import SEQ_BITS, Key, KeyRange, OpKind, OpStatus, Trace, _trace_counter

#: Extension that selects the binary codec (``repro.traces/v1b``).
BINARY_SUFFIX = ".rtb"

#: Recognised trace serialisation formats.
FORMATS = ("jsonl", "binary")

_TUPLE_TAG = "\u0000t"


def _encode_key(key: Key):
    if isinstance(key, tuple):
        return [_TUPLE_TAG, *[_encode_key(part) for part in key]]
    return key


def _decode_key(raw) -> Key:
    if isinstance(raw, list):
        if raw and raw[0] == _TUPLE_TAG:
            return tuple(_decode_key(part) for part in raw[1:])
        return tuple(_decode_key(part) for part in raw)
    return raw


def _encode_sets(sets: Mapping[Key, Mapping[str, object]]) -> List[List]:
    return [[_encode_key(key), dict(columns)] for key, columns in sets.items()]


def _decode_sets(raw) -> Dict[Key, Dict[str, object]]:
    return {_decode_key(key): dict(columns) for key, columns in raw}


def trace_to_dict(trace: Trace) -> dict:
    """Lower a trace to its JSON-serialisable dictionary form."""
    payload: dict = {
        "k": trace.kind.value,
        "t": trace.txn_id,
        "c": trace.client_id,
        "b": trace.ts_bef,
        "a": trace.ts_aft,
        "i": trace.op_index,
    }
    if trace.reads:
        payload["r"] = _encode_sets(trace.reads)
    if trace.writes:
        payload["w"] = _encode_sets(trace.writes)
    if trace.status is not OpStatus.OK:
        payload["s"] = trace.status.value
    if trace.for_update:
        payload["fu"] = True
    if trace.predicate is not None:
        payload["p"] = [
            _encode_key(tuple(trace.predicate.prefix)),
            trace.predicate.lo,
            trace.predicate.hi,
        ]
    return payload


def trace_from_dict(payload: Mapping, trace_id: Optional[int] = None) -> Trace:
    """Rebuild a trace from its dictionary form (``trace_id`` stamps a
    deterministic id instead of the process-local counter's next value)."""
    from .intervals import Interval

    return Trace(
        trace_id=next(_trace_counter) if trace_id is None else trace_id,
        interval=Interval(float(payload["b"]), float(payload["a"])),
        kind=OpKind(payload["k"]),
        txn_id=str(payload["t"]),
        client_id=int(payload.get("c", 0)),
        reads=_decode_sets(payload.get("r", [])),
        writes=_decode_sets(payload.get("w", [])),
        status=OpStatus(payload.get("s", OpStatus.OK.value)),
        for_update=bool(payload.get("fu", False)),
        predicate=(
            KeyRange(
                prefix=_decode_key(payload["p"][0]),
                lo=int(payload["p"][1]),
                hi=int(payload["p"][2]),
            )
            if "p" in payload
            else None
        ),
        op_index=int(payload.get("i", 0)),
    )


def _is_binary(target: Union[str, Path, IO]) -> bool:
    return isinstance(target, (str, Path)) and str(target).endswith(BINARY_SUFFIX)


def dump_traces(traces: Iterable[Trace], sink: Union[str, Path, IO]) -> int:
    """Write traces; returns the number written.

    Paths ending in :data:`BINARY_SUFFIX` use the length-prefixed binary
    codec; everything else, file objects included, writes JSON lines.
    """
    if _is_binary(sink):
        from .codec import dump_traces_binary

        return dump_traces_binary(traces, sink)
    own = isinstance(sink, (str, Path))
    stream = open(sink, "w", encoding="utf-8") if own else sink
    count = 0
    try:
        for trace in traces:
            stream.write(json.dumps(trace_to_dict(trace), separators=(",", ":")))
            stream.write("\n")
            count += 1
    finally:
        if own:
            stream.close()
    return count


def load_traces(
    source: Union[str, Path, IO],
    first_trace_id: Optional[int] = None,
) -> Iterator[Trace]:
    """Stream traces back from a JSONL or binary file (picked by name like
    :func:`dump_traces`), decoding on demand: a path is opened by the
    first ``next()`` and closed on exhaustion or error.  With
    ``first_trace_id`` trace ``i`` of the stream is stamped
    ``first_trace_id + i``.  Damaged input raises a :class:`ValueError`
    naming the file and the line (JSONL) or frame and byte offset
    (binary)."""
    if _is_binary(source):
        from .codec import load_traces_binary

        yield from load_traces_binary(source, first_trace_id=first_trace_id)
        return
    own = isinstance(source, (str, Path))
    stream = open(source, "r", encoding="utf-8") if own else source
    name = source if own else getattr(source, "name", "<stream>")
    next_id = first_trace_id
    try:
        for line_no, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                trace = trace_from_dict(json.loads(line), trace_id=next_id)
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"{name}: malformed trace on line {line_no}: {exc}"
                ) from exc
            yield trace
            if next_id is not None:
                next_id += 1
    finally:
        if own:
            stream.close()


def dump_client_streams(
    streams: Mapping[int, Iterable[Trace]],
    directory: Union[str, Path],
    prefix: str = "client",
    fmt: str = "jsonl",
) -> List[Path]:
    """Write one file per client (the natural tracer layout), JSONL by
    default or binary frames with ``fmt="binary"``."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown trace format {fmt!r}; expected {FORMATS}")
    suffix = BINARY_SUFFIX if fmt == "binary" else ".jsonl"
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for client_id, traces in sorted(streams.items()):
        path = directory / f"{prefix}-{client_id}{suffix}"
        dump_traces(traces, path)
        paths.append(path)
    return paths


class ClientStream:
    """One client's capture file as a re-iterable lazy trace stream.

    Every ``iter()`` is a fresh :func:`load_traces` pass over the file
    that holds one frame as bytes and at most one decoded run of it
    (:data:`repro.core.codec.RUN` traces, the pipeline's client batch;
    JSONL decodes line by line) at a time and stamps trace ``seq`` of the
    client with the id ``(client_id << SEQ_BITS) | seq`` -- so ties on
    ``ts_bef`` between clients break by ``(client_id, arrival index)``
    however the pipeline interleaves the clients' decodes, and two passes
    yield equal traces.
    """

    def __init__(self, path: Path, client_id: int):
        self.path = path
        self.client_id = client_id

    def __iter__(self) -> Iterator[Trace]:
        return load_traces(self.path, first_trace_id=self.client_id << SEQ_BITS)


def load_client_streams(
    directory: Union[str, Path], prefix: str = "client"
) -> Dict[int, ClientStream]:
    """Find the per-client layout written by :func:`dump_client_streams`
    (either format; a client captured in both is an error).  Nothing is
    decoded here: each value is a :class:`ClientStream` the pipeline pulls
    from, so no caller ever holds the capture (``list(stream)`` for the
    tests that want one)."""
    directory = Path(directory)
    streams: Dict[int, ClientStream] = {}
    for pattern in (f"{prefix}-*.jsonl", f"{prefix}-*{BINARY_SUFFIX}"):
        for path in sorted(directory.glob(pattern)):
            client_id = int(path.stem.rsplit("-", 1)[1])
            if client_id in streams:
                raise ValueError(
                    f"client {client_id} captured in both formats under "
                    f"{directory}"
                )
            streams[client_id] = ClientStream(path, client_id)
    if not streams:
        raise FileNotFoundError(
            f"no {prefix}-*.jsonl or {prefix}-*{BINARY_SUFFIX} files "
            f"under {directory}"
        )
    return streams


def dump_initial_db(
    initial_db: Mapping[Key, Mapping[str, object]],
    sink: Union[str, Path],
) -> None:
    """Persist the initial database image alongside a trace capture."""
    payload = [[_encode_key(key), dict(image)] for key, image in initial_db.items()]
    Path(sink).write_text(json.dumps(payload), encoding="utf-8")


def load_initial_db(source: Union[str, Path]) -> Dict[Key, Dict[str, object]]:
    payload = json.loads(Path(source).read_text(encoding="utf-8"))
    return {_decode_key(key): dict(image) for key, image in payload}
