"""Binary trace codec (``repro.traces/v1b``): round-trips, framing, fuzz.

Three equivalences are pinned here: encode/decode round-trips every trace
field exactly (``trace_id`` excepted -- it is process-local by design);
:func:`decode_batch` decodes the grammar ``tests/codec_oracle.py`` spells
out field by field; and the binary file surface agrees with the JSONL one
on whatever it is given.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import (
    MAGIC,
    RUN,
    CodecError,
    decode_batch,
    dump_traces_binary,
    encode_batch,
    load_traces_binary,
    read_strings,
    read_varint,
)
from repro.core.trace import KeyRange, OpStatus, Trace

from tests.codec_oracle import decode_reference


def trace_fields(trace):
    """Everything serialised about a trace (``trace_id`` is process-local
    and deliberately not on the wire)."""
    return (
        trace.ts_bef,
        trace.ts_aft,
        trace.kind,
        trace.txn_id,
        trace.client_id,
        {k: dict(v) for k, v in trace.reads.items()},
        {k: dict(v) for k, v in trace.writes.items()},
        trace.status,
        trace.for_update,
        trace.predicate,
        trace.op_index,
    )


def assert_same_traces(decoded, originals):
    assert len(decoded) == len(originals)
    for got, want in zip(decoded, originals):
        assert trace_fields(got) == trace_fields(want)


def frame_payloads(blob):
    """The payload of every frame of a ``repro.traces/v1b`` blob."""
    payloads, pos = [], len(MAGIC)
    while pos < len(blob):
        size = int.from_bytes(blob[pos : pos + 4], "little")
        payloads.append(blob[pos + 4 : pos + 4 + size])
        pos += 4 + size
    return payloads


def frame_sizes(blob):
    """How many traces each frame of a ``repro.traces/v1b`` blob holds,
    split here and decoded by :func:`decode_batch` -- independent of the
    file reader under test."""
    return [len(decode_batch(payload)) for payload in frame_payloads(blob)]


SAMPLE = [
    Trace.read(1.0, 1.5, "t1", {"x": 1, "y": None}, client_id=0),
    Trace.read(
        2.0,
        2.25,
        "t1",
        {("acct", 7): {"bal": 10.5, "open": True}},
        client_id=0,
        op_index=1,
        for_update=True,
    ),
    Trace.write(2.5, 2.75, "t2", {"x": {"v": -3}}, client_id=-1),
    Trace.write(
        3.0, 3.5, "t2", {("tbl", "pk", 0): {"col": "value"}},
        client_id=-1, op_index=1, status=OpStatus.FAILED,
    ),
    Trace.read(
        4.0,
        4.5,
        "t3",
        {("idx", 3): {"v": 1}, ("idx", 4): {"v": 2}},
        client_id=5,
        predicate=KeyRange(prefix=("idx",), lo=0, hi=10),
    ),
    Trace.commit(5.0, 5.5, "t1", client_id=0, op_index=2),
    Trace.abort(6.0, 6.5, "t2", client_id=-1, op_index=2),
    Trace.commit(7.0, 7.5, "t3", client_id=5, op_index=1),
]


class TestBatchRoundTrip:
    def test_sample_round_trip(self):
        decoded = decode_batch(encode_batch(SAMPLE))
        assert_same_traces(decoded, SAMPLE)

    def test_empty_batch(self):
        assert decode_batch(encode_batch([])) == []

    def test_fresh_trace_ids_monotone(self):
        decoded = decode_batch(encode_batch(SAMPLE))
        ids = [t.trace_id for t in decoded]
        assert ids == sorted(ids)

    def test_memoryview_payload(self):
        decoded = decode_batch(memoryview(encode_batch(SAMPLE)))
        assert_same_traces(decoded, SAMPLE)

    def test_string_interning_dedupes(self):
        repeated = [
            Trace.write(float(i), float(i) + 0.1, "same-txn", {"same-key": i})
            for i in range(50)
        ]
        payload = encode_batch(repeated)
        strings, pos = read_strings(payload, 0)
        assert read_varint(payload, pos)[0] == 50
        # "same-txn", "same-key" and the default column name, each once.
        assert len(strings) == 3

    def test_fast_decoder_matches_reference(self):
        payload = encode_batch(SAMPLE)
        assert_same_traces(decode_batch(payload), decode_reference(payload))


#: every value tag (None/True/False/int/float/str/tuple, nested and empty),
#: every record flag, all four kinds, multi-byte varints (client id, op
#: index, a 2**40 value) and a predicate.
GOLDEN = [
    Trace.read(1.0, 1.5, "t1", {"x": None, "y": True, "z": False}, client_id=0),
    Trace.read(
        2.0, 2.25, "t1",
        {("acct", 7, -3): {"bal": 10.5, "name": "ann", "n": 2**40}},
        client_id=1000, op_index=300, for_update=True,
    ),
    Trace.write(
        2.5, 2.75, "t2", {"x": {"v": -3}, ("a", ("b", 1)): {"w": ()}}, client_id=-1
    ),
    Trace.write(3.0, 3.5, "t2", {}, client_id=-1, op_index=1, status=OpStatus.FAILED),
    Trace.read(
        4.0, 4.5, "t3", {("idx", 3): {"v": 1}, ("idx", 4): {"v": 2}},
        client_id=5, predicate=KeyRange(prefix=("idx",), lo=-2, hi=200),
    ),
    Trace.commit(5.0, 5.5, "t1", client_id=0, op_index=2),
    Trace.abort(6.0, 6.5, "t2", client_id=-1, op_index=2),
]


class TestWireFormatPinned:
    """``repro.traces/v1b`` bytes are what captures, ``capture_sha256`` and
    the service's ``TRACES`` frames are made of: the digests below were
    produced by the writer this format shipped with and must never move."""

    def test_golden_batch_bytes(self):
        payload = encode_batch(GOLDEN)
        assert len(payload) == 287
        assert hashlib.sha256(payload).hexdigest() == (
            "deb03990495d090794abba3f6b96c2f3cde6c7956bc0082d27c89171ae8aec98"
        )
        assert_same_traces(decode_batch(payload), GOLDEN)


class TestMalformedInput:
    def test_truncated_payload(self):
        payload = encode_batch(SAMPLE)
        with pytest.raises(CodecError):
            decode_batch(payload[:-1])

    def test_trailing_garbage(self):
        payload = encode_batch(SAMPLE)
        with pytest.raises(CodecError):
            decode_batch(payload + b"\x00")

    def test_bad_magic(self):
        with pytest.raises(CodecError):
            list(load_traces_binary(io.BytesIO(b"not a trace file")))

    def test_truncated_frame_length(self):
        blob = MAGIC + b"\x01\x02"
        with pytest.raises(CodecError):
            list(load_traces_binary(io.BytesIO(blob)))

    def test_truncated_frame_payload(self):
        sink = io.BytesIO()
        dump_traces_binary(SAMPLE, sink)
        blob = sink.getvalue()
        with pytest.raises(CodecError):
            list(load_traces_binary(io.BytesIO(blob[:-4])))

    def test_damage_is_located_by_file_frame_and_offset(self, tmp_path):
        """Frames before the damage decode; the error names the file,
        the frame's index and the byte offset of its length prefix."""
        path = tmp_path / "client-0.rtb"
        dump_traces_binary(SAMPLE, path, batch_size=3)
        blob = path.read_bytes()
        second = len(MAGIC) + 4 + int.from_bytes(blob[len(MAGIC):][:4], "little")
        path.write_bytes(blob[: second + 4 + 5])
        reader = load_traces_binary(path)
        assert_same_traces([next(reader) for _ in range(3)], SAMPLE[:3])
        with pytest.raises(CodecError) as err:
            next(reader)
        message = str(err.value)
        assert str(path) in message
        assert f"frame 1 at byte offset {second}" in message
        assert "truncated frame payload (5 of" in message

    @pytest.mark.parametrize(
        "how, message",
        [
            ("trailing", "trailing bytes after batch: 1 of"),
            ("count+1", "truncated batch payload"),
            ("count-1", "trailing bytes after batch"),
        ],
    )
    def test_frame_level_checks_survive_decoding_in_runs(self, how, message):
        """The record-count and trailing-byte checks close a frame the
        reader decoded piecemeal: the runs in front of the frame's last
        are yielded, then -- in place of the last -- the located error,
        the one eager ``decode_batch`` raises for the same payload."""
        count = 2 * RUN + 5
        traces = [Trace.commit(float(i), i + 0.5, f"t{i}") for i in range(count)]
        payload = bytearray(encode_batch(traces))
        if how == "trailing":
            payload.append(0)
        else:
            _, pos = read_strings(bytes(payload), 0)
            assert payload[pos : pos + 2] == bytes([count & 0x7F | 0x80, count >> 7])
            payload[pos] += 1 if how == "count+1" else -1
        with pytest.raises(CodecError, match=message):
            decode_batch(bytes(payload))
        blob = MAGIC + len(payload).to_bytes(4, "little") + bytes(payload)
        reader = load_traces_binary(io.BytesIO(blob))
        assert_same_traces([next(reader) for _ in range(2 * RUN)], traces[: 2 * RUN])
        with pytest.raises(CodecError, match=message) as err:
            next(reader)
        assert "frame 0 at byte offset 17" in str(err.value)

    def test_undecodable_strings_are_codec_errors(self):
        """Bytes that fail outside the record grammar (here: invalid
        UTF-8 in the string table) still surface as a located CodecError,
        not a bare UnicodeDecodeError."""
        payload = bytearray(encode_batch(SAMPLE))
        payload[2] = 0xFF  # first byte of the first interned string
        blob = MAGIC + len(payload).to_bytes(4, "little") + bytes(payload)
        with pytest.raises(CodecError, match="frame 0 at byte offset 17"):
            list(load_traces_binary(io.BytesIO(blob)))

    def test_a_key_outside_the_value_grammar_is_refused_by_the_writer(self):
        """A capture or a ``TRACES`` frame cannot carry a record key the
        value grammar does not cover: the writer refuses it.  (The shard
        pipes, which are no wire format, carry any key that pickles.)"""
        trace = Trace.write(1.0, 2.0, "t1", {frozenset("k"): 1})
        with pytest.raises(CodecError, match="unsupported value type"):
            encode_batch([trace])


class TestFileFraming:
    def test_dump_load_round_trip(self):
        sink = io.BytesIO()
        count = dump_traces_binary(SAMPLE, sink)
        assert count == len(SAMPLE)
        assert sink.getvalue().startswith(MAGIC)
        decoded = list(load_traces_binary(io.BytesIO(sink.getvalue())))
        assert_same_traces(decoded, SAMPLE)

    def test_frame_granularity_preserved(self):
        sink = io.BytesIO()
        dump_traces_binary(SAMPLE, sink, batch_size=3)
        assert frame_sizes(sink.getvalue()) == [3, 3, 2]

    def test_writer_flushes_on_batch_size(self):
        """One frame per ``batch_size`` traces, a short last frame for the
        rest, and no empty frame when the count divides evenly."""
        for batch_size, sizes in ((2, [2, 2, 2, 2]), (8, [8]), (512, [8])):
            sink = io.BytesIO()
            assert dump_traces_binary(SAMPLE, sink, batch_size=batch_size) == 8
            assert frame_sizes(sink.getvalue()) == sizes
            decoded = list(load_traces_binary(io.BytesIO(sink.getvalue())))
            assert_same_traces(decoded, SAMPLE)

    def test_first_trace_id_stamps_contiguously_across_frames(self):
        sink = io.BytesIO()
        dump_traces_binary(SAMPLE, sink, batch_size=3)
        base = 7 << 40
        decoded = list(
            load_traces_binary(io.BytesIO(sink.getvalue()), first_trace_id=base)
        )
        assert [t.trace_id for t in decoded] == [
            base + i for i in range(len(SAMPLE))
        ]

    def test_empty_file_is_just_magic(self):
        sink = io.BytesIO()
        assert dump_traces_binary([], sink) == 0
        assert sink.getvalue() == MAGIC
        assert list(load_traces_binary(io.BytesIO(sink.getvalue()))) == []

    def test_rejects_bad_batch_size(self):
        sink = io.BytesIO()
        with pytest.raises(ValueError):
            dump_traces_binary(SAMPLE, sink, batch_size=0)
        assert sink.getvalue() == b""


def shared_text_traces(client_id, n):
    """A writer and a reader of the same keys, columns and values: the
    texts are built at run time, so no two are one object before decode."""
    txn = f"c{client_id}-t"
    key, column, value = f"acct-{n}", f"bal-{n}", f"value-{n}"
    return [
        Trace.read(1.0 + client_id, 1.5 + client_id, txn,
                   {(key, n): {column: value}}, client_id=client_id),
        Trace.write(2.0 + client_id, 2.5 + client_id, txn,
                    {key: {column: value}}, client_id=client_id),
    ]


def texts_of(traces):
    """Every key part, column and value string the traces hold, in order."""
    out = []
    for trace in traces:
        for sets in (trace.reads, trace.writes):
            for key, columns in sets.items():
                out += key if isinstance(key, tuple) else (key,)
                for column, value in columns.items():
                    out += (column, value)
    return [text for text in out if isinstance(text, str)]


class TestCanonicalStrings:
    """Equal text decoded from different frames is one object, and what
    the table keeps is bounded by frame size (``read_strings``)."""

    def test_two_clients_readers_share_one_object_per_text(self, tmp_path):
        from repro.core.io import dump_client_streams, load_client_streams

        dump_client_streams(
            {c: shared_text_traces(c, 7) for c in (0, 1)}, tmp_path, fmt="binary"
        )
        streams = load_client_streams(tmp_path)
        first, second = (texts_of(list(streams[c])) for c in (0, 1))
        assert first == second and len(first) == 6
        assert all(a is b for a, b in zip(first, second))

    def test_service_frames_share_one_object_per_text(self):
        frames = [encode_batch(shared_text_traces(c, 11)) for c in (0, 1)]
        first, second = (texts_of(decode_batch(frame)) for frame in frames)
        assert first == second and len(first) == 6
        assert all(a is b for a, b in zip(first, second))
        # Distinct text stays distinct: each client's own transaction id.
        assert decode_batch(frames[0])[0].txn_id == "c0-t"

    def test_a_damaged_table_cannot_raise_the_limit(self):
        from repro.core import codec

        decode_batch(encode_batch(SAMPLE))
        limit = codec._canon_limit
        claim = bytearray()
        codec.write_varint(claim, 10**9)  # a billion strings, no bytes
        with pytest.raises(CodecError, match="truncated"):
            decode_batch(bytes(claim))
        assert codec._canon_limit == limit

    def test_table_is_bounded_by_frame_size(self):
        """200 000 distinct strings in 512-trace frames: the generations
        never hold more than four frame tables, and the decode leaves
        under 1 MB behind -- in a fresh interpreter, as ``tests/canon_bound.py``
        runs anywhere."""
        root = Path(__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-m", "tests.canon_bound"],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        result = json.loads(run.stdout)
        assert result["table_over_largest_max"] <= 4
        assert result["retained_bytes"] < 1 << 20


# -- fuzz ---------------------------------------------------------------------

_scalar_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False),
    st.text(max_size=12),
)
_keys = st.recursive(
    _scalar_values,
    lambda children: st.lists(children, min_size=0, max_size=3).map(tuple),
    max_leaves=6,
)
_columns = st.dictionaries(st.text(max_size=8), _scalar_values, max_size=4)
_sets = st.dictionaries(_keys, _columns, max_size=4)


@st.composite
def _traces(draw):
    ts_bef = draw(st.floats(0.0, 1e9, allow_nan=False))
    ts_aft = ts_bef + draw(st.floats(0.0, 1e3, allow_nan=False))
    choice = draw(st.integers(0, 3))
    txn_id = draw(st.text(max_size=10))
    client_id = draw(st.integers(-(2**31), 2**31))
    op_index = draw(st.integers(0, 2**20))
    if choice == 0:
        predicate = None
        if draw(st.booleans()):
            lo = draw(st.integers(-100, 100))
            predicate = KeyRange(
                prefix=draw(st.lists(_scalar_values, max_size=2).map(tuple)),
                lo=lo,
                hi=lo + draw(st.integers(0, 50)),
            )
        return Trace.read(
            ts_bef,
            ts_aft,
            txn_id,
            draw(_sets),
            client_id=client_id,
            op_index=op_index,
            status=draw(st.sampled_from(list(OpStatus))),
            for_update=draw(st.booleans()),
            predicate=predicate,
        )
    if choice == 1:
        return Trace.write(
            ts_bef,
            ts_aft,
            txn_id,
            draw(_sets),
            client_id=client_id,
            op_index=op_index,
            status=draw(st.sampled_from(list(OpStatus))),
        )
    maker = Trace.commit if choice == 2 else Trace.abort
    return maker(ts_bef, ts_aft, txn_id, client_id=client_id, op_index=op_index)


@settings(max_examples=120, deadline=None)
@given(st.lists(_traces(), max_size=20))
def test_fuzz_round_trip(batch):
    """Any batch of wire-representable traces round-trips field-exactly,
    and the fast decoder agrees with the reference decoder on it."""
    payload = encode_batch(batch)
    decoded = decode_batch(payload)
    assert_same_traces(decoded, batch)
    assert_same_traces(decoded, decode_reference(payload))
    # Re-encoding what was decoded reproduces the payload byte for byte.
    assert encode_batch(decoded) == payload


@settings(max_examples=60, deadline=None)
@given(st.lists(_traces(), max_size=12), st.integers(1, 8))
def test_fuzz_file_round_trip(batch, batch_size):
    sink = io.BytesIO()
    assert dump_traces_binary(batch, sink, batch_size=batch_size) == len(batch)
    decoded = list(load_traces_binary(io.BytesIO(sink.getvalue())))
    assert_same_traces(decoded, batch)


#: frame sizes below, equal to, between multiples of and far above the run.
_FRAME_SIZES = (1, RUN - 1, RUN, RUN + 1, 2 * RUN + RUN // 2, 512)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_traces(), min_size=1, max_size=6),
    st.integers(0, 3 * RUN + 5),
    st.sampled_from(_FRAME_SIZES),
    st.one_of(st.none(), st.integers(0, 2**50)),
)
def test_run_granular_reader_equals_frame_by_frame_decode(
    seed_traces, count, frame_size, first_trace_id
):
    """``load_traces_binary`` -- records decoded RUN at a time as they are
    pulled -- yields what eager per-frame ``decode_batch`` yields: same
    order, same fields, same ids, wherever the frame boundaries fall
    relative to the run; ids from the process-local counter (``None``) are
    handed out in the same stream order."""
    batch = (seed_traces * (count // len(seed_traces) + 1))[:count]
    sink = io.BytesIO()
    dump_traces_binary(batch, sink, batch_size=frame_size)
    blob = sink.getvalue()
    lazy = list(load_traces_binary(io.BytesIO(blob), first_trace_id=first_trace_id))
    eager = []
    for payload in frame_payloads(blob):
        eager += decode_batch(
            payload,
            first_trace_id=(
                None if first_trace_id is None else first_trace_id + len(eager)
            ),
        )
    assert_same_traces(lazy, eager)
    assert_same_traces(lazy, batch)
    if first_trace_id is None:
        for decoded in (lazy, eager):
            first = decoded[0].trace_id if decoded else 0
            assert [t.trace_id for t in decoded] == list(
                range(first, first + count)
            )
    else:
        assert lazy == eager  # Trace equality includes trace_id
        assert [t.trace_id for t in lazy] == list(
            range(first_trace_id, first_trace_id + count)
        )
    assert frame_sizes(blob) == [
        min(frame_size, count - start) for start in range(0, count, frame_size)
    ]
