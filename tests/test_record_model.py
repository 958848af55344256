"""The record model: ``Trace`` and ``Interval`` are immutable by convention.

They were ``frozen`` dataclasses until construction cost made that the
single largest per-trace tax (docs/architecture.md, "Record model").  This
module guards what ``frozen`` used to: nothing on any verification path
assigns to a record it was handed, the value semantics of ``Interval``
(hash / eq / order / validation) are unchanged, records still pickle on
every supported interpreter, and building one stays within a small factor
of a hand-written ``__slots__`` class.
"""

import copy
import pickle
import timeit

import pytest

from repro import PG_SERIALIZABLE, Verifier, pipeline_from_client_streams
from repro.core import OnlineVerifier, ParallelVerifier
from repro.core.codec import decode_batch, encode_batch
from repro.core.intervals import INITIAL_INTERVAL, UNFINISHED_INTERVAL, Interval
from repro.core.report import Mechanism, Violation, ViolationKind
from repro.core.trace import KeyRange, OpKind, OpStatus, Trace
from repro.workloads import BlindW, run_workload


# -- (a) no verification path mutates its input ----------------------------------


@pytest.fixture(scope="module")
def run():
    """Range reads, point reads, writes, commits and aborts: every trace
    shape the shard router splits and every mechanism hook reads."""
    return run_workload(
        BlindW.rw_plus(keys=128), PG_SERIALIZABLE, clients=6, txns=250, seed=7
    )


def _serial(run, streams):
    verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=run.initial_db)
    for batch in pipeline_from_client_streams(streams).iter_batches():
        verifier.process_batch(batch)
    return verifier.finish()


def _sharded(run, streams):
    verifier = ParallelVerifier(
        spec=PG_SERIALIZABLE, initial_db=run.initial_db, shards=2, backend="inline"
    )
    for batch in pipeline_from_client_streams(streams).iter_batches():
        verifier.process_batch(batch)
    return verifier.finish()


def _online(run, streams):
    online = OnlineVerifier(spec=PG_SERIALIZABLE, initial_db=run.initial_db)
    for client_id in streams:
        online.register_client(client_id)
    cursors = {client_id: 0 for client_id in streams}
    while any(cursors[c] < len(streams[c]) for c in streams):
        for client_id, stream in streams.items():
            chunk = stream[cursors[client_id] : cursors[client_id] + 40]
            cursors[client_id] += len(chunk)
            online.feed_batch(client_id, chunk)
    for client_id in streams:
        online.heartbeat(client_id, float("inf"))
    return online.finish()


@pytest.mark.parametrize("path", [_serial, _sharded, _online])
def test_verification_never_mutates_its_input(run, path):
    streams = {c: list(stream) for c, stream in run.client_streams.items()}
    pristine = copy.deepcopy(streams)
    sentinels = copy.deepcopy((INITIAL_INTERVAL, UNFINISHED_INTERVAL))
    report = path(run, streams)
    assert report.stats.traces_processed == run.trace_count
    for client_id, stream in streams.items():
        assert stream == pristine[client_id]
    assert (INITIAL_INTERVAL, UNFINISHED_INTERVAL) == sentinels


# -- (b) Interval keeps its value semantics ----------------------------------------


class TestIntervalValueSemantics:
    def test_eq_and_hash_by_value(self):
        a, b = Interval(1.0, 2.0), Interval(1.0, 2.0)
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash((1.0, 2.0))
        assert a != Interval(1.0, 2.5)
        assert {a: "x"}[b] == "x"
        assert len({a, b, Interval(0.0, 2.0)}) == 2

    def test_orders_by_ts_bef_then_ts_aft(self):
        intervals = [Interval(2.0, 3.0), Interval(1.0, 5.0), Interval(1.0, 2.0)]
        assert sorted(intervals) == [
            Interval(1.0, 2.0), Interval(1.0, 5.0), Interval(2.0, 3.0)
        ]
        assert Interval(1.0, 2.0) < Interval(1.0, 5.0) <= Interval(1.0, 5.0)

    def test_rejects_an_end_before_its_start(self):
        with pytest.raises(ValueError, match="precedes start"):
            Interval(2, 1)
        with pytest.raises(ValueError):
            Trace.commit(2.0, 1.0, "t")

    def test_only_key_range_stays_frozen(self):
        with pytest.raises(AttributeError):
            KeyRange(prefix=("idx",), lo=0, hi=3).lo = 1
        # Slots still refuse attributes that are not fields.
        with pytest.raises(AttributeError):
            Interval(1.0, 2.0).extra = 1
        with pytest.raises(AttributeError):
            Trace.commit(1.0, 2.0, "t").extra = 1

    def test_trace_equality_is_field_equality(self):
        a = Trace.read(1.0, 2.0, "t", {"k": 1}, client_id=3)
        b = copy.deepcopy(a)
        assert a == b and a.interval is not b.interval
        assert a != Trace.read(1.0, 2.0, "t", {"k": 2}, client_id=3)


# -- (c) records pickle (slots, no ``frozen``: 3.10 has no __getstate__ for them) ----


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_records_pickle_round_trip(protocol):
    trace = Trace.read(
        1.0, 2.0, "t1", {("idx", 3): {"v": 1}}, client_id=4, op_index=2,
        status=OpStatus.FAILED, for_update=True,
        predicate=KeyRange(prefix=("idx",), lo=0, hi=9),
    )
    violation = Violation(
        mechanism=Mechanism.FIRST_UPDATER_WINS,
        kind=ViolationKind.LOST_UPDATE,
        txns=("t1", "t2"),
        key=("idx", 3),
        details="concurrent updates",
        evidence={"snapshot": Interval(1.0, 2.0), "commit": INITIAL_INTERVAL},
    )
    for record in (Interval(1.0, 2.0), UNFINISHED_INTERVAL, trace, violation):
        clone = pickle.loads(pickle.dumps(record, protocol=protocol))
        assert clone == record and clone is not record
    clone = pickle.loads(pickle.dumps(trace, protocol=protocol))
    assert clone.trace_id == trace.trace_id
    assert clone.kind is OpKind.READ and clone.status is OpStatus.FAILED


# -- (d) construction budget ----------------------------------------------------------


class _HandInterval:
    __slots__ = ("ts_bef", "ts_aft")

    def __init__(self, ts_bef, ts_aft):
        self.ts_bef = ts_bef
        self.ts_aft = ts_aft
        if ts_aft < ts_bef:
            raise ValueError("interval end precedes start")


class _HandTrace:
    __slots__ = (
        "interval", "kind", "txn_id", "client_id", "reads", "writes", "status",
        "for_update", "predicate", "op_index", "trace_id",
    )

    def __init__(self, interval, kind, txn_id, client_id, reads, writes, status,
                 for_update, predicate, op_index, trace_id):
        self.interval = interval
        self.kind = kind
        self.txn_id = txn_id
        self.client_id = client_id
        self.reads = reads
        self.writes = writes
        self.status = status
        self.for_update = for_update
        self.predicate = predicate
        self.op_index = op_index
        self.trace_id = trace_id


def _construction_seconds(trace_cls, interval_cls):
    def build():
        trace_cls(
            interval_cls(1.0, 2.0), OpKind.WRITE, "txn-17", 3, {}, {"k": {"v": 1}},
            OpStatus.OK, False, None, 4, 99,
        )

    return min(timeit.repeat(build, number=20_000, repeat=7))


def test_construction_stays_within_a_hand_written_slots_class():
    """The way ``codec.read_trace`` builds a record (positionally, with its
    interval) costs less than twice a hand-written ``__slots__`` pair doing
    the same stores and the same validation.  Measured in one process, so
    the speed of the box cancels; it reads ~1.1x, the frozen records ~3x."""
    # The decoder really does build this way: same type, positional fields.
    (decoded,) = decode_batch(
        encode_batch([Trace.write(1.0, 2.0, "txn-17", {"k": 1}, client_id=3)]),
        first_trace_id=99,
    )
    assert type(decoded) is Trace and type(decoded.interval) is Interval
    ratios = []
    for _ in range(3):
        hand = _construction_seconds(_HandTrace, _HandInterval)
        ours = _construction_seconds(Trace, Interval)
        ratios.append(ours / hand)
        if ratios[-1] < 2.0:
            return
    pytest.fail(f"Trace+Interval construction is {min(ratios):.2f}x hand-written slots")
