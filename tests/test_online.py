"""Push-based online verification."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import PG_SERIALIZABLE, Trace, Verifier
from repro.core.metrics import NULL_REGISTRY
from repro.core.online import OnlineVerifier
from repro.core.pipeline import sorted_traces
from repro.core.report import report_fingerprint
from repro.core.trace import SEQ_BITS
from repro.core.verifier import RefusedTrace
from repro.workloads import BlindW, run_workload
from tests import gc_oracle
from tests.conftest import verify_run

INIT = {"x": {"v": 0}}


class TestFeeding:
    def test_single_client_passthrough(self):
        online = OnlineVerifier(spec=PG_SERIALIZABLE, initial_db=INIT)
        online.feed(Trace.write(0.0, 0.1, "t1", {"x": 1}, client_id=0))
        online.feed(Trace.commit(0.2, 0.3, "t1", client_id=0))
        report = online.finish()
        assert report.ok
        assert report.stats.traces_processed == 2

    def test_watermark_holds_back_dispatch(self):
        online = OnlineVerifier(spec=PG_SERIALIZABLE, initial_db=INIT)
        online.register_client(0)
        online.register_client(1)
        # Client 0 pushes; client 1 is silent at -inf: nothing dispatches.
        dispatched = online.feed(
            Trace.write(1.0, 1.1, "t1", {"x": 1}, client_id=0)
        )
        assert dispatched == 0
        assert online.pending == 1
        # Client 1's heartbeat releases the watermark.
        dispatched = online.heartbeat(1, now=5.0)
        assert dispatched == 1
        assert online.pending == 0

    def test_dispatch_order_across_clients(self):
        processed = []
        online = OnlineVerifier(spec=PG_SERIALIZABLE, initial_db=INIT)
        original = online._verifier.process_batch

        def spy(batch):
            processed.extend(trace.ts_bef for trace in batch)
            original(batch)

        online._verifier.process_batch = spy
        online.register_client(0)
        online.register_client(1)
        online.feed(Trace.commit(2.0, 2.1, "t1", client_id=0))
        online.feed(Trace.commit(1.0, 1.1, "t2", client_id=1))
        online.heartbeat(0, 10.0)
        online.heartbeat(1, 10.0)
        assert processed == [1.0, 2.0]

    def test_non_monotone_client_rejected(self):
        online = OnlineVerifier(spec=PG_SERIALIZABLE, initial_db=INIT)
        online.feed(Trace.commit(5.0, 5.1, "t1", client_id=0))
        with pytest.raises(ValueError):
            online.feed(Trace.commit(1.0, 1.1, "t2", client_id=0))

    def test_feed_after_finish_rejected(self):
        online = OnlineVerifier(spec=PG_SERIALIZABLE, initial_db=INIT)
        online.finish()
        with pytest.raises(RuntimeError):
            online.feed(Trace.commit(0.0, 0.1, "t1"))


class TestAlerting:
    def test_violation_callback_fires_during_stream(self):
        alerts = []
        online = OnlineVerifier(
            spec=PG_SERIALIZABLE,
            initial_db=INIT,
            on_violation=alerts.append,
        )
        # Stale read: t2 reads the overwritten initial value.
        for trace in [
            Trace.write(0.0, 0.1, "t1", {"x": 1}, client_id=0),
            Trace.commit(0.2, 0.3, "t1", client_id=0),
            Trace.read(1.0, 1.1, "t2", {"x": 0}, client_id=0),
            Trace.commit(1.2, 1.3, "t2", client_id=0),
        ]:
            online.feed(trace)
        online.heartbeat(0, 100.0)
        assert alerts, "violation should be alerted before finish()"
        report = online.finish()
        assert not report.ok
        assert len(alerts) == len(report.violations)

    def test_no_duplicate_alerts(self):
        alerts = []
        online = OnlineVerifier(
            spec=PG_SERIALIZABLE, initial_db=INIT, on_violation=alerts.append
        )
        online.feed(Trace.read(0.0, 0.1, "t1", {"x": 999}, client_id=0))
        online.feed(Trace.commit(0.2, 0.3, "t1", client_id=0))
        online.heartbeat(0, 10.0)
        online.finish()
        assert len(alerts) == len(set(id(a) for a in alerts))


class TestAgainstBatchPath:
    def test_same_result_as_batch(self, blindw_rw_run):
        """Feeding a real workload run trace-by-trace (round robin across
        clients) matches the batch pipeline's verdict and statistics."""
        online = OnlineVerifier(
            spec=PG_SERIALIZABLE, initial_db=blindw_rw_run.initial_db
        )
        streams = {
            cid: list(traces)
            for cid, traces in blindw_rw_run.client_streams.items()
        }
        for client_id in streams:
            online.register_client(client_id)
        positions = {cid: 0 for cid in streams}
        remaining = sum(len(s) for s in streams.values())
        while remaining:
            for cid, stream in streams.items():
                if positions[cid] < len(stream):
                    online.feed(stream[positions[cid]])
                    positions[cid] += 1
                    remaining -= 1
        report = online.finish()
        batch = verify_run(blindw_rw_run, PG_SERIALIZABLE)
        assert report.ok == batch.ok
        assert report.stats.traces_processed == batch.stats.traces_processed
        assert report.stats.deps_total == batch.stats.deps_total

    def test_memory_stays_bounded_online(self):
        run = run_workload(
            BlindW.rw(keys=256), PG_SERIALIZABLE, clients=8, txns=600, seed=4
        )
        online = OnlineVerifier(
            spec=PG_SERIALIZABLE, initial_db=run.initial_db, gc_every=64
        )
        merged = run.all_traces_sorted()
        peak = 0
        for i, trace in enumerate(merged):
            online.feed(trace)
            if i % 200 == 0:
                peak = max(peak, online.live_structure_count())
        report = online.finish()
        assert report.ok
        assert peak < len(merged)


class TestOnlineWithRicherTraces:
    def test_insert_scan_with_deletes_online(self):
        """Predicate scans and tombstones flow through the online path."""
        from repro.workloads import InsertScanWorkload

        run = run_workload(
            InsertScanWorkload(
                initial_rows=10, insert_ratio=0.35, delete_ratio=0.2
            ),
            PG_SERIALIZABLE,
            clients=6,
            txns=200,
            seed=3,
        )
        online = OnlineVerifier(
            spec=PG_SERIALIZABLE, initial_db=run.initial_db
        )
        for client_id in run.client_streams:
            online.register_client(client_id)
        for trace in run.all_traces_sorted():
            online.feed(trace)
        report = online.finish()
        assert report.ok, [str(v) for v in report.violations[:4]]


# -- dispatch order == the offline pipeline's, ties included ---------------------


class _Recorder:
    """A verifier-shaped backend that only records the dispatch order
    (and answers the three names the operator surfaces read)."""

    metrics = NULL_REGISTRY

    def __init__(self):
        self.ids = []
        self.violations = []

    def process_batch(self, batch):
        self.ids.extend(trace.trace_id for trace in batch)

    def violations_so_far(self):
        return self.violations

    def live_structure_count(self):
        return 0

    def finish(self):
        from repro.core.report import BugDescriptor, VerificationReport, VerificationStats

        return VerificationReport(
            descriptor=BugDescriptor(), stats=VerificationStats(),
            isolation_level="none",
        )


def make_stream(client_id, timestamps):
    return [
        Trace.commit(ts, ts + 0.5, f"t{client_id}-{i}", client_id=client_id)
        for i, ts in enumerate(timestamps)
    ]


def sorted_ids(streams):
    return [trace.trace_id for trace in sorted_traces(streams)]


def fed_round_robin(streams, frame, first=None):
    """Feed every stream in ``frame``-sized runs, round robin (``first``
    client leading), heartbeating nobody; returns the dispatch order."""
    recorder = _Recorder()
    online = OnlineVerifier(verifier=recorder)
    order = sorted(streams, key=lambda c: (c != first, c))
    for client_id in order:
        online.register_client(client_id)
    cursors = {client_id: 0 for client_id in order}
    while cursors:
        for client_id in list(cursors):
            lo = cursors[client_id]
            run = streams[client_id][lo : lo + frame]
            if not run:
                del cursors[client_id]
                # Nothing more from this client: leave watermark accounting.
                online.heartbeat(client_id, float("inf"))
                continue
            online.feed_batch(client_id, run)
            cursors[client_id] = lo + frame
    online.finish()
    return recorder.ids


class TestDispatchOrderIsThePipelines:
    @pytest.mark.parametrize("first", [1, 2])
    @pytest.mark.parametrize("frame", [1, 2, 3, 64])
    @pytest.mark.parametrize(
        "stamps",
        [{1: [5, 6, 7], 2: [3, 4, 5]}, {1: [3, 4, 5], 2: [5, 6, 7]}],
        ids=["low-id-tie-buffered", "mirror"],
    )
    def test_cross_client_tie_with_a_floor(self, stamps, frame, first):
        """The pipeline's 16-case table, fed online: a staged trace that
        ties another client's floor waits while that client could still
        send a lower id at the same timestamp."""
        streams = {c: make_stream(c, ts) for c, ts in stamps.items()}
        assert fed_round_robin(streams, frame, first) == sorted_ids(streams)

    def test_idle_client_at_the_tied_timestamp(self):
        """ROADMAP's counter-example: client 1 idle at 5 (a heartbeat, no
        data yet), client 2 pushes [3, 4, 5].  (5, c2) must wait: client 1
        may still send its own trace at 5, which sorts first."""
        streams = {1: make_stream(1, [5, 6, 7]), 2: make_stream(2, [3, 4, 5])}
        recorder = _Recorder()
        online = OnlineVerifier(verifier=recorder)
        online.heartbeat(1, 5.0)
        assert online.feed_batch(2, streams[2]) == 2
        assert online.pending == 1
        online.feed_batch(1, streams[1])
        online.heartbeat(2, float("inf"))
        online.heartbeat(1, float("inf"))
        assert online.pending == 0
        assert recorder.ids == sorted_ids(streams)

    def test_late_joiner_tied_with_the_dispatched_trace_is_refused(self):
        """The point of no return is a ``(ts_bef, trace_id)`` pair, not a
        timestamp: once client 2 has dispatched ``(5.0, 2 << 40)``, client
        1's ``(5.0, 1 << 40)`` sorts in front of it and can only be
        refused.  A late trace that sorts behind it is still welcome."""
        streams = {
            c: make_stream(c, ts)
            for c, ts in {1: [5.0], 2: [5.0, 6.0], 3: [4.9], 4: [5.0]}.items()
        }
        for client_id, stream in streams.items():
            for seq, trace in enumerate(stream):
                trace.trace_id = (client_id << SEQ_BITS) | seq
        recorder = _Recorder()
        online = OnlineVerifier(verifier=recorder)
        assert online.feed_batch(2, streams[2][:1]) == 1
        for late in (1, 3):
            with pytest.raises(ValueError, match="behind the last dispatched"):
                online.feed_batch(late, streams[late])
            online.evict_client(late)  # what the gateway does with poison
        assert online.feed_batch(4, streams[4]) == 0
        online.feed_batch(2, streams[2][1:])
        online.finish()
        survivors = {2: streams[2], 4: streams[4]}
        assert recorder.ids == sorted_ids(survivors)

    def test_one_timestamp_everywhere(self):
        streams = {c: make_stream(c, [7.0] * 9) for c in range(4)}
        assert fed_round_robin(streams, 4) == sorted_ids(streams)

    def test_batch_validation_messages(self):
        online = OnlineVerifier(verifier=_Recorder())
        online.register_client(9)  # silent: nothing dispatches
        online.feed_batch(0, make_stream(0, [1.0, 2.0]))
        with pytest.raises(ValueError, match="pushed on client 0's stream"):
            online.feed_batch(0, make_stream(1, [3.0]))
        with pytest.raises(ValueError, match="behind its progress mark 2.0"):
            online.feed_batch(0, make_stream(0, [1.5]))
        with pytest.raises(ValueError, match="stream is not monotone"):
            online.feed_batch(0, make_stream(0, [3.0, 2.5]))
        assert online.pending == 2


@settings(max_examples=80, deadline=None)
@given(
    st.lists(  # per-client lists of inter-arrival gaps (zero gaps = ties)
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 5.0, allow_nan=False)),
            min_size=0,
            max_size=25,
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([1, 2, 3, 64]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_property_online_order_equals_reference(
    gaps_per_client, frame, reverse_ids, rng
):
    """Fed online in any interleaving of frames and heartbeats, the
    dispatch order is trace-for-trace ``sorted_traces`` -- the pipeline's
    property (``tests/test_pipeline.py``), whichever client holds the
    lower ids."""
    streams = {}
    clients = list(enumerate(gaps_per_client))
    for client, gaps in reversed(clients) if reverse_ids else clients:
        t = 0.0
        stamps = []
        for gap in gaps:
            t += gap
            stamps.append(t)
        streams[client] = make_stream(client, stamps)
    recorder = _Recorder()
    online = OnlineVerifier(verifier=recorder)
    for client_id in streams:
        online.register_client(client_id)
    cursors = {client_id: 0 for client_id in streams}
    while cursors:
        client_id = rng.choice(sorted(cursors))
        lo = cursors[client_id]
        run = streams[client_id][lo : lo + frame]
        if not run:
            del cursors[client_id]
            online.heartbeat(client_id, float("inf"))
        elif rng.random() < 0.2:
            # A truthful heartbeat: nothing older than the next trace.
            online.heartbeat(client_id, run[0].ts_bef)
        else:
            online.feed_batch(client_id, run)
            cursors[client_id] = lo + frame
    assert recorder.ids == sorted_ids(streams)
    online.finish()
    assert recorder.ids == sorted_ids(streams)


# -- a refused trace costs its own client its stream, and nothing else ---------------


def refusal_streams():
    """Two clients; client 1 reads in transaction ``a`` after committing
    it.  Ids are the ``client_id << SEQ_BITS | seq`` stamps every ingest
    path hands out."""
    streams = {
        1: [
            Trace.write(1.0, 1.1, "a", {"x": 1}, client_id=1),
            Trace.commit(2.0, 2.1, "a", client_id=1, op_index=1),
            Trace.read(3.0, 3.1, "a", {"x": 1}, client_id=1, op_index=2),
            Trace.commit(9.0, 9.1, "a2", client_id=1),
        ],
        2: [
            Trace.write(1.5, 1.6, "b", {"y": 1}, client_id=2),
            Trace.read(3.5, 3.6, "b", {"y": 1}, client_id=2, op_index=1),
            Trace.commit(4.0, 4.1, "b", client_id=2, op_index=2),
            Trace.write(10.0, 10.1, "b2", {"y": 2}, client_id=2),
        ],
    }
    for client_id, stream in streams.items():
        for seq, trace in enumerate(stream):
            trace.trace_id = (client_id << SEQ_BITS) | seq
    return streams


REFUSAL_DB = {"x": {"v": 0}, "y": {"v": 0}}
REFUSAL = "trace for already-terminated transaction a"


def refusal_verifier():
    return Verifier(spec=PG_SERIALIZABLE, initial_db=REFUSAL_DB, gc_every=2)


class TestRefusedTrace:
    @pytest.mark.parametrize(
        "order", [(2, 1), (1, 2)], ids=["serial-c2-c1", "serial-c1-c2"]
    )
    def test_offender_evicted_batch_mates_unaffected(self, order):
        streams = refusal_streams()
        backend = refusal_verifier()
        online = OnlineVerifier(verifier=backend)
        for client_id in streams:
            online.register_client(client_id)
        with gc_oracle.checked():
            # Neither call raises: the second one's advance meets the
            # refusal and deals with it whoever is feeding.
            assert online.feed_batch(order[0], streams[order[0]]) == 0
            assert online.feed_batch(order[1], streams[order[1]]) == 6
            assert online.refused == {1: REFUSAL}
            assert online.dispatched == 6 and online.pending == 0
            assert online.watermark == 10.0  # client 2's floor alone
            stats = backend.state.stats
            assert stats.traces_processed == 6
            # ``b`` committed with its read checked; ``a``'s is not.
            assert (stats.txns_committed, stats.reads_checked) == (2, 1)
            assert backend.state.watermark == 10.0
            # The stream is gone for good; everyone else carries on.
            with pytest.raises(ValueError, match="client 1 was evicted"):
                online.feed_batch(1, streams[1][3:])
            with pytest.raises(ValueError, match="client 1 was evicted"):
                online.heartbeat(1, 20.0)
            online.feed(Trace.commit(11.0, 11.1, "b2", client_id=2, op_index=1))
            report = online.finish()
        assert report.stats.traces_processed == online.dispatched == 7
        assert report.stats.txns_committed == 3  # a, b, b2 -- not a2
        reference = refusal_verifier()
        survivors = refusal_streams()
        reference.process_batch(
            sorted_traces({1: survivors[1][:2], 2: survivors[2]})
        )
        reference.process(Trace.commit(11.0, 11.1, "b2", client_id=2, op_index=1))
        assert report_fingerprint(report) == report_fingerprint(reference.finish())

    def test_the_rest_of_the_batch_runs_in_order(self):
        """Against a backend that only records: everything but the
        offender's suffix is executed, in ``(ts_bef, trace_id)`` order --
        traces behind the refusal in the same dispatch batch included --
        and a second offender in the same batch is handled the same way."""

        class Refuser(_Recorder):
            def __init__(self, bad):
                super().__init__()
                self.bad = bad

            def process_batch(self, batch):
                for trace in batch:
                    if trace.trace_id in self.bad:
                        raise RefusedTrace(trace)
                    self.ids.append(trace.trace_id)

        streams = {c: make_stream(c, [1.0 + c / 10, 2.0, 3.0, 4.0]) for c in range(4)}
        bad = {streams[1][1].trace_id, streams[3][2].trace_id}
        recorder = Refuser(bad)
        online = OnlineVerifier(verifier=recorder)
        for client_id in streams:
            online.register_client(client_id)
        for client_id in (0, 1, 2):
            assert online.feed_batch(client_id, streams[client_id]) == 0
        # 16 staged; the floors at 4.0 hold back the last trace of every
        # client but 0 (lowest ids).  Of the 13 that go, client 1 loses 2
        # and client 3 loses 1.
        assert online.feed_batch(3, streams[3]) == 13 - 3
        assert online.pending == 1  # client 2's last; 1's and 3's dropped
        assert list(online.refused) == [1, 3]
        expected = {0: streams[0], 1: streams[1][:1], 2: streams[2], 3: streams[3][:2]}
        online.heartbeat(0, float("inf"))
        online.heartbeat(2, float("inf"))
        assert recorder.ids == sorted_ids(expected)
        assert online.dispatched == len(recorder.ids) == 11

    def test_refusal_at_finish(self):
        streams = refusal_streams()
        online = OnlineVerifier(spec=PG_SERIALIZABLE, initial_db=REFUSAL_DB)
        online.register_client(1)
        online.register_client(2)
        online.feed_batch(1, streams[1])
        online.feed_batch(2, streams[2][:1])
        report = online.finish()
        assert online.refused == {1: REFUSAL}
        assert report.stats.traces_processed == online.dispatched == 3
