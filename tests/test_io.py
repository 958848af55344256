"""Trace persistence: JSONL round trips and the lazy capture loader."""

import builtins
import io

import pytest
from hypothesis import given, settings, strategies as st

from repro import PG_SERIALIZABLE, Trace
from repro.core.io import (
    dump_client_streams,
    dump_initial_db,
    dump_traces,
    load_client_streams,
    load_initial_db,
    load_traces,
    trace_from_dict,
    trace_to_dict,
)
from repro.core.trace import SEQ_BITS, OpStatus


def sample_traces():
    return [
        Trace.read(0.0, 0.1, "t1", {"x": 1, ("tab", 3): {"a": 1}}, client_id=2),
        Trace.read(0.2, 0.3, "t1", {"y": None}, for_update=True, client_id=2),
        Trace.write(0.4, 0.5, "t1", {("tab", 3): {"a": 2, "b": None}}, client_id=2),
        Trace.write(0.6, 0.7, "t1", {}, status=OpStatus.FAILED, client_id=2),
        Trace.commit(0.8, 0.9, "t1", client_id=2, op_index=4),
        Trace.abort(1.0, 1.1, "t2", client_id=2),
    ]


def equivalent(a: Trace, b: Trace) -> bool:
    return (
        a.interval == b.interval
        and a.kind == b.kind
        and a.txn_id == b.txn_id
        and a.client_id == b.client_id
        and dict(a.reads) == dict(b.reads)
        and dict(a.writes) == dict(b.writes)
        and a.status == b.status
        and a.for_update == b.for_update
        and a.op_index == b.op_index
    )


class TestDictRoundTrip:
    def test_all_kinds(self):
        for trace in sample_traces():
            back = trace_from_dict(trace_to_dict(trace))
            assert equivalent(trace, back), trace

    def test_tuple_keys_roundtrip(self):
        trace = Trace.write(0.0, 0.1, "t", {("order", 1, 2): {"c": 3}})
        back = trace_from_dict(trace_to_dict(trace))
        assert ("order", 1, 2) in back.writes

    def test_compact_defaults_omitted(self):
        payload = trace_to_dict(Trace.commit(0.0, 0.1, "t"))
        assert "r" not in payload and "w" not in payload
        assert "s" not in payload and "fu" not in payload


class TestStreamRoundTrip:
    def test_dump_and_load(self):
        buffer = io.StringIO()
        count = dump_traces(sample_traces(), buffer)
        assert count == 6
        buffer.seek(0)
        loaded = list(load_traces(buffer))
        assert len(loaded) == 6
        for original, back in zip(sample_traces(), loaded):
            assert equivalent(original, back)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        dump_traces(sample_traces(), path)
        loaded = list(load_traces(path))
        assert len(loaded) == 6

    def test_comments_and_blank_lines_skipped(self):
        buffer = io.StringIO('# header\n\n{"k":"commit","t":"t1","b":0,"a":1}\n')
        loaded = list(load_traces(buffer))
        assert len(loaded) == 1

    def test_malformed_line_reported_with_number(self):
        buffer = io.StringIO('{"k":"commit","t":"t1","b":0,"a":1}\n{broken\n')
        with pytest.raises(ValueError, match="line 2"):
            list(load_traces(buffer))

    def test_the_file_name_alone_picks_the_format(self, tmp_path):
        """A path ending in ``.rtb`` is ``repro.traces/v1b`` frames;
        any other path, and every file object, is JSON lines."""
        from repro.core.codec import MAGIC

        binary, text = tmp_path / "client-0.rtb", tmp_path / "client-0.log"
        assert dump_traces(sample_traces(), binary) == 6
        assert dump_traces(sample_traces(), text) == 6
        assert binary.read_bytes().startswith(MAGIC)
        assert text.read_text().splitlines()[0].startswith("{")
        buffer = io.StringIO()
        dump_traces(sample_traces(), buffer)
        assert buffer.getvalue() == text.read_text()
        for path in (binary, text):
            loaded = list(load_traces(path))
            assert len(loaded) == 6
            assert all(map(equivalent, sample_traces(), loaded))

    def test_malformed_line_names_the_file(self, tmp_path):
        path = tmp_path / "client-4.jsonl"
        path.write_text('{"k":"commit","t":"t1","b":0,"a":1}\n{"k":"comm')
        stream = load_traces(path)
        assert next(stream).txn_id == "t1"
        with pytest.raises(ValueError) as err:
            next(stream)
        assert str(path) in str(err.value) and "line 2" in str(err.value)


class TestCaptureLayout:
    @pytest.fixture
    def track_opens(self, tmp_path, monkeypatch):
        """Call it to start recording every file opened under ``tmp_path``;
        returns the list the handles are appended to."""
        real_open = builtins.open

        def start():
            opened = []

            def tracking_open(file, *args, **kwargs):
                handle = real_open(file, *args, **kwargs)
                if str(file).startswith(str(tmp_path)):
                    opened.append(handle)
                return handle

            monkeypatch.setattr(builtins, "open", tracking_open)
            return opened

        return start

    def test_client_streams_round_trip(self, tmp_path):
        streams = {
            0: [Trace.commit(0.0, 0.1, "t0", client_id=0)],
            3: [Trace.commit(0.2, 0.3, "t1", client_id=3)],
        }
        paths = dump_client_streams(streams, tmp_path)
        assert len(paths) == 2
        back = load_client_streams(tmp_path)
        assert sorted(back) == [0, 3]
        assert list(back[3])[0].txn_id == "t1"

    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    def test_streams_are_reiterable_with_the_same_ids(self, tmp_path, fmt):
        """Two passes over a returned stream yield equal traces (``Trace``
        equality includes ``trace_id``), stamped ``client << SEQ_BITS |
        seq`` whatever order the clients are read in."""
        streams = {
            c: [Trace.commit(float(i), i + 0.5, f"c{c}-{i}", client_id=c) for i in range(5)]
            for c in (2, 10, 0)
        }
        dump_client_streams(streams, tmp_path, fmt=fmt)
        back = load_client_streams(tmp_path)
        assert sorted(back) == [0, 2, 10]
        late_first = {c: list(back[c]) for c in (10, 2, 0)}
        for client_id, stream in back.items():
            again = list(stream)
            assert again == late_first[client_id]
            assert [t.trace_id for t in again] == [
                (client_id << SEQ_BITS) + seq for seq in range(5)
            ]
            assert [t.txn_id for t in again] == [t.txn_id for t in streams[client_id]]

    def test_loading_decodes_nothing_and_looks_one_run_ahead(
        self, tmp_path, monkeypatch
    ):
        """Nothing is decoded before the first ``next()``, and pulling
        ``k`` traces out of a 512-record frame decodes ``k`` rounded up to
        the run -- the frame stays bytes until the pipeline reaches it."""
        from repro.core import codec

        decoded = []
        plain = codec.decode_run

        def counting(*args):
            run, pos = plain(*args)
            decoded.append(len(run))
            return run, pos

        monkeypatch.setattr(codec, "decode_run", counting)
        run, frame = codec.RUN, 512
        total = frame + run + 3
        path = tmp_path / "client-1.rtb"
        codec.dump_traces_binary(
            [Trace.commit(float(i), i + 0.5, f"t{i}", client_id=1) for i in range(total)],
            path,
            batch_size=frame,
        )
        stream = load_client_streams(tmp_path)[1]
        assert decoded == []
        traces = iter(stream)
        assert decoded == []  # the file is not even opened before next()
        pulled = 0
        for k in (1, run, run + 1, 3 * run, frame - 1, frame, frame + 1):
            for _ in range(k - pulled):
                next(traces)
            pulled = k
            assert sum(decoded) == -(-k // run) * run
        assert len(list(traces)) == total - pulled
        # Runs never span a frame: 8 full runs, then the 67-record tail.
        assert decoded == [run] * (frame // run) + [run, 3]

    def test_feed_closed_mid_frame_closes_the_file(self, tmp_path, track_opens):
        """A reader parked between two runs of a frame holds the file
        open; ``ClientFeed.close()`` is what lets go of it."""
        from repro.core import codec
        from repro.core.pipeline import ClientFeed

        codec.dump_traces_binary(
            [Trace.commit(float(i), i + 0.5, f"t{i}", client_id=0) for i in range(600)],
            tmp_path / "client-0.rtb",
        )
        stream = load_client_streams(tmp_path)[0]
        opened = track_opens()
        feed = ClientFeed(stream, client_id=0)
        assert len(feed.next_batch()) == codec.RUN
        assert [handle.closed for handle in opened] == [False]
        feed.close()
        assert opened[0].closed
        assert feed.next_batch() == []

    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    def test_file_closes_on_exhaustion_error_and_abandonment(
        self, tmp_path, track_opens, fmt
    ):
        dump_client_streams(
            {0: [Trace.commit(float(i), i + 0.5, f"t{i}", client_id=0) for i in range(6)]},
            tmp_path,
            fmt=fmt,
        )
        stream = load_client_streams(tmp_path)[0]
        opened = track_opens()
        assert len(list(stream)) == 6
        abandoned = iter(stream)
        next(abandoned)
        assert [h.closed for h in opened] == [True, False]
        abandoned.close()
        assert opened[1].closed
        stream.path.write_bytes(stream.path.read_bytes()[:-3])
        with pytest.raises(ValueError):
            list(stream)
        assert len(opened) == 3 and opened[2].closed

    def test_missing_capture_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_client_streams(tmp_path)

    def test_initial_db_round_trip(self, tmp_path):
        initial = {"x": {"v": 0}, ("tab", 1): {"a": 2}}
        path = tmp_path / "init.json"
        dump_initial_db(initial, path)
        assert load_initial_db(path) == initial

    def test_end_to_end_verification_from_disk(self, tmp_path, blindw_rw_run):
        """A captured run verifies identically after a disk round trip."""
        from tests.conftest import verify_run

        dump_client_streams(blindw_rw_run.client_streams, tmp_path)
        dump_initial_db(blindw_rw_run.initial_db, tmp_path / "initial_db.json")
        streams = load_client_streams(tmp_path)

        class FakeRun:
            client_streams = streams
            initial_db = load_initial_db(tmp_path / "initial_db.json")

        report = verify_run(FakeRun, PG_SERIALIZABLE)
        assert report.ok
        direct = verify_run(blindw_rw_run, PG_SERIALIZABLE)
        assert report.stats.deps_total == direct.stats.deps_total


_scalar = st.one_of(
    st.integers(-10**6, 10**6),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)
_key = st.one_of(
    st.text(min_size=1, max_size=8),
    st.tuples(st.text(min_size=1, max_size=4), st.integers(0, 99)),
)


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(_key, _scalar, max_size=4),
    st.floats(0, 1e6, allow_nan=False),
    st.floats(0, 10, allow_nan=False),
)
def test_property_round_trip(writes, start, width):
    trace = Trace.write(start, start + width, "t", writes, client_id=1)
    back = trace_from_dict(trace_to_dict(trace))
    assert dict(back.writes) == dict(trace.writes)
    assert back.interval == trace.interval


class TestWorkloadRoundTrip:
    """Full-run persistence: a captured workload survives a JSONL round
    trip with nothing the verifier can distinguish."""

    def test_streams_and_report_identical(self, tmp_path, blindw_rw_run):
        from repro import Verifier, pipeline_from_client_streams

        run = blindw_rw_run
        dump_client_streams(run.client_streams, tmp_path)
        dump_initial_db(run.initial_db, tmp_path / "initial_db.json")
        streams = load_client_streams(tmp_path)
        initial_db = load_initial_db(tmp_path / "initial_db.json")

        assert set(streams) == set(run.client_streams)
        for client_id, original in run.client_streams.items():
            reloaded = streams[client_id]
            # trace_id is a process-local counter and is not serialised;
            # compare the canonical dict forms instead of Trace equality.
            assert [trace_to_dict(t) for t in reloaded] == [
                trace_to_dict(t) for t in original
            ]
        assert initial_db == dict(run.initial_db)

        def fingerprint(client_streams, db):
            verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=db)
            for trace in pipeline_from_client_streams(client_streams):
                verifier.process(trace)
            report = verifier.finish()
            stats = report.stats
            return (
                tuple(
                    (v.mechanism, v.kind, v.txns, v.key, v.details)
                    for v in report.violations
                ),
                stats.traces_processed,
                stats.txns_committed,
                stats.txns_aborted,
                stats.reads_checked,
                stats.deps_wr,
                stats.deps_ww,
                stats.deps_rw,
                stats.deps_so,
            )

        assert fingerprint(streams, initial_db) == fingerprint(
            run.client_streams, run.initial_db
        )
