"""Cut invariance: what a layer computes does not depend on how its input
stream was cut into batches.

Every layer of the spine has one loop, and its scalar entry point is that
loop over a batch of one -- so "batched == per-trace" is no longer a
comparison of two bodies.  The property that remains, and that a loop
keeping state in locals can break, is that the *cuts* are invisible: the
report, every ``VerificationStats`` field (the ``gc_*`` schedule
included) and the final watermark are the same for batches of 1, 7, 64,
the whole stream, and any cut points hypothesis picks.

The error path is part of the property: a batch refused at position *k*
leaves the verifier exactly as the first *k* traces alone leave it, and a
shard journals every event under the index of the trace that produced it
however its run was cut.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import PG_SERIALIZABLE, Trace, Verifier
from repro.core.bus import DependencyBus
from repro.core.dependencies import Dependency, DepType
from repro.core.intervals import Interval
from repro.core.mechanism import MechanismVerifier
from repro.core.metrics import MetricsRegistry
from repro.core.online import OnlineVerifier
from repro.core.parallel import ParallelVerifier, ShardVerifier
from repro.core.pipeline import pipeline_from_client_streams, sorted_traces
from repro.core.report import report_fingerprint
from repro.core.state import VerifierState
from repro.core.trace import KeyRange
from repro.core.verifier import RefusedTrace
from repro.dbsim.faults import FaultPlan
from repro.workloads import BlindW, run_workload
from tests import gc_oracle

#: a collection every 37 traces: no batch size below divides it, so fires
#: land inside batches, on their last trace and right after a cut.
GC_EVERY = 37
SIZES = (1, 7, 64, None)


@pytest.fixture(scope="module")
def run():
    """A faulty BlindW-RW run: violations, aborts and every dependency
    type, small enough to verify a few dozen times."""
    return run_workload(
        BlindW.rw(keys=24),
        PG_SERIALIZABLE,
        clients=4,
        txns=120,
        seed=3,
        faults=FaultPlan(stale_read_prob=0.05),
    )


@pytest.fixture(scope="module")
def stream(run):
    return sorted_traces(run.client_streams)


def cut(items, size):
    """``items`` in consecutive lists of ``size`` (``None``: one list)."""
    size = size or max(1, len(items))
    return [items[lo : lo + size] for lo in range(0, len(items), size)]


def cut_at(items, points):
    """``items`` cut at the given positions (empty batches included)."""
    bounds = [0, *sorted(points), len(items)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def stats_of(report):
    return dataclasses.asdict(report.stats)


cut_points = st.lists(st.integers(0, 10_000), max_size=12)


# -- Verifier ----------------------------------------------------------------------


def serial(run, batches):
    verifier = Verifier(
        spec=PG_SERIALIZABLE, initial_db=run.initial_db, gc_every=GC_EVERY
    )
    for batch in batches:
        verifier.process_batch(batch)
    report = verifier.finish()
    return report_fingerprint(report), stats_of(report), verifier.state.watermark


class TestVerifier:
    @pytest.mark.parametrize("size", SIZES)
    def test_fixed_sizes(self, run, stream, size):
        assert serial(run, cut(stream, size)) == serial(run, [stream])

    def test_the_run_is_not_trivial(self, run, stream):
        _, stats, watermark = serial(run, [stream])
        assert stats["gc_txns_pruned"] and stats["gc_versions_pruned"]
        assert stats["deps_wr"] and stats["deps_ww"] and stats["deps_rw"]
        assert stats["txns_aborted"] and watermark == stream[-1].ts_bef

    def test_pipeline_batches_and_process_are_cuts_too(self, run, stream):
        whole = serial(run, [stream])
        pipeline = pipeline_from_client_streams(run.client_streams)
        assert serial(run, pipeline.iter_batches()) == whole
        verifier = Verifier(
            spec=PG_SERIALIZABLE, initial_db=run.initial_db, gc_every=GC_EVERY
        )
        for trace in stream:
            verifier.process(trace)
        report = verifier.finish()
        assert (
            report_fingerprint(report), stats_of(report), verifier.state.watermark
        ) == whole

    @settings(max_examples=25, deadline=None)
    @given(cut_points)
    def test_any_cut(self, run, stream, points):
        points = [p % (len(stream) + 1) for p in points]
        assert serial(run, cut_at(stream, points)) == serial(run, [stream])

    def test_pending_entries_are_per_read_trace(self):
        """CR defers one entry per read trace -- a multi-key read, a read
        of the transaction's own write, a scan -- and the pass over them
        concludes the same whether the transaction's reads arrived in one
        batch or one per batch."""
        rows = {("row", i): {"v": i} for i in range(4)}
        reads = [
            Trace.read(1, 2, "t1", {("row", 0): 0, ("row", 1): 1, ("row", 2): 7}),
            Trace.write(3, 4, "t1", {("row", 1): 5}, op_index=1),
            Trace.read(5, 6, "t1", {("row", 1): 5, ("row", 3): 3}, op_index=2),
            Trace.read(
                7, 8, "t1", {("row", 0): 0}, op_index=3,
                predicate=KeyRange(("row",), 0, 3),
            ),
        ]
        terminal = Trace.commit(9, 10, "t1", op_index=4)

        def feed(batches):
            verifier = Verifier(
                spec=PG_SERIALIZABLE, initial_db=rows, gc_every=GC_EVERY
            )
            for batch in batches:
                verifier.process_batch(batch)
            pending = verifier.state.txns["t1"].pending_reads
            assert [entry[0] for entry in pending] == [reads[0], reads[2], reads[3]]
            assert [entry[1] for entry in pending] == [
                None, {("row", 1): {"v": 5}}, None,
            ]
            verifier.process(terminal)
            assert not verifier.state.txns["t1"].pending_reads
            report = verifier.finish()
            return report_fingerprint(report), stats_of(report)

        whole = feed([reads])
        assert feed(cut(reads, 1)) == whole
        _, stats = whole
        assert stats["reads_checked"] == 6 and stats["deps_wr"] == 0
        assert stats["conflict_pairs"] == 4  # one own-write read, one miss

    def test_smallbank_run(self, smallbank_run):
        """Duplicate values and multi-key transactions: CR's deferred
        matches and FUW carry more of the run than on BlindW."""
        stream = sorted_traces(smallbank_run.client_streams)
        whole = serial(smallbank_run, [stream])
        for size in (1, 64):
            assert serial(smallbank_run, cut(stream, size)) == whole


# -- ParallelVerifier (inline shards) ------------------------------------------------


def parallel(run, batches, shards, segment_events):
    verifier = ParallelVerifier(
        spec=PG_SERIALIZABLE,
        initial_db=run.initial_db,
        shards=shards,
        backend="inline",
        gc_every=GC_EVERY,
        segment_events=segment_events,
    )
    for batch in batches:
        verifier.process_batch(batch)
    report = verifier.finish()
    return (
        report_fingerprint(report),
        stats_of(report),
        verifier._ts_watermark,
        [shard.state.watermark for shard in verifier._inline],
    )


@pytest.mark.parametrize("segment_events", [8, 10**9])
@pytest.mark.parametrize("shards", [1, 2])
class TestParallelVerifier:
    @pytest.mark.parametrize("size", SIZES)
    def test_fixed_sizes(self, run, stream, shards, segment_events, size):
        whole = parallel(run, [stream], shards, segment_events)
        assert parallel(run, cut(stream, size), shards, segment_events) == whole

    @settings(max_examples=8, deadline=None)
    @given(cut_points)
    def test_any_cut(self, run, stream, shards, segment_events, points):
        points = [p % (len(stream) + 1) for p in points]
        whole = parallel(run, [stream], shards, segment_events)
        assert parallel(run, cut_at(stream, points), shards, segment_events) == whole


def test_one_inline_shard_is_the_serial_verifier(run, stream):
    fingerprint, stats, watermark = serial(run, [stream])
    assert parallel(run, [stream], 1, 8) == (
        fingerprint, stats, watermark, [watermark]
    )


# -- OnlineVerifier.feed_batch frames ------------------------------------------------


def online(run, frames_of, rng=None):
    """Every client's stream fed as the frames ``frames_of(stream)`` cuts,
    clients taking turns (in ``rng``'s order when given)."""
    backend = Verifier(
        spec=PG_SERIALIZABLE, initial_db=run.initial_db, gc_every=GC_EVERY
    )
    verifier = OnlineVerifier(verifier=backend)
    queues = {}
    for client_id, traces in sorted(run.client_streams.items()):
        verifier.register_client(client_id)
        queues[client_id] = [f for f in frames_of(list(traces)) if f]
    while queues:
        for client_id in rng.sample(sorted(queues), len(queues)) if rng else list(queues):
            verifier.feed_batch(client_id, queues[client_id].pop(0))
            if not queues[client_id]:
                del queues[client_id]
                verifier.heartbeat(client_id, float("inf"))
    report = verifier.finish()
    assert verifier.dispatched == report.stats.traces_processed
    return report_fingerprint(report), stats_of(report), backend.state.watermark


class TestOnlineFrames:
    @pytest.mark.parametrize("size", SIZES)
    def test_fixed_sizes(self, run, stream, size):
        assert online(run, lambda s: cut(s, size)) == serial(run, [stream])

    @settings(max_examples=15, deadline=None)
    @given(cut_points, st.randoms(use_true_random=False))
    def test_any_frames_in_any_turn_order(self, run, stream, points, rng):
        def frames(traces):
            return cut_at(traces, [p % (len(traces) + 1) for p in points])

        assert online(run, frames, rng) == serial(run, [stream])


# -- DependencyBus.publish_many ------------------------------------------------------


class _OnTheLine(MechanismVerifier):
    def __init__(self, on_dependency):
        self.on_dependency = on_dependency


def bus_run(batches):
    """Publish ww edges over t0..t9 (t7 pruned: the guard drops its edges)
    with a certifier that re-publishes, depth first, an rw edge for every
    ww edge it sees; returns everything observable."""
    state = VerifierState()
    for i in range(10):
        if i != 7:
            state.ensure_txn(f"t{i}", 0, Interval(float(i), i + 0.5))
    metrics = MetricsRegistry()
    bus = DependencyBus(state, metrics=metrics)
    delivered, journaled = [], []

    def reentrant(dep):
        delivered.append(("first", dep.src, dep.dst, dep.dep_type))
        if dep.dep_type is DepType.WW:
            bus.publish(
                Dependency(src=dep.dst, dst=dep.src, dep_type=DepType.RW, key="k")
            )

    bus.connect(
        _OnTheLine(reentrant),
        _OnTheLine(
            lambda dep: delivered.append(("second", dep.src, dep.dst, dep.dep_type))
        ),
        journal=lambda dep: journaled.append((dep.src, dep.dst, dep.dep_type)),
    )
    survived = [bus.publish_many(batch) for batch in batches]
    dropped = sum(metrics.counters_with_name("bus.deps.dropped").values())
    stats = dataclasses.asdict(state.stats)
    return sum(survived), delivered, journaled, bus.counts, dropped, stats


BUS_DEPS = [
    Dependency(src=f"t{i}", dst=f"t{(i * 3 + 1) % 10}", dep_type=DepType.WW, key="k")
    for i in range(10)
]


class TestBusPublishMany:
    def test_equals_a_publish_loop(self):
        whole = bus_run([BUS_DEPS])
        survived, delivered, *_ = whole
        assert survived == 8 and whole[4] == 2  # t7's two edges dropped
        # depth first: each ww edge's rw echo reaches both deliveries
        # before the ww edge itself reaches the second one.
        assert [d[0] for d in delivered[:4]] == ["first", "first", "second", "second"]
        assert delivered[1][3] is DepType.RW and delivered[3][3] is DepType.WW
        for size in (1, 3):
            assert bus_run(cut(BUS_DEPS, size)) == whole

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, len(BUS_DEPS)), max_size=5))
    def test_any_cut(self, points):
        assert bus_run(cut_at(BUS_DEPS, points)) == bus_run([BUS_DEPS])


# -- the error path -----------------------------------------------------------------


def refused_at(stream, k):
    """A trace the verifier must refuse, placed to arrive at position
    ``k``: one more read by a transaction that terminated before it."""
    done = next(t for t in reversed(stream[:k]) if t.is_terminal)
    at = stream[k - 1].ts_bef
    return Trace.read(at, at + 0.1, done.txn_id, {"k0": 0}, client_id=done.client_id)


def serial_state(verifier):
    state = verifier.state
    return (
        dataclasses.asdict(state.stats),
        state.watermark,
        verifier._gc._since_last,
        state.live_structure_count(),
        len(state.descriptor.violations),
    )


class TestRefusalLeavesTheAcceptedPrefix:
    @pytest.mark.parametrize("k", [GC_EVERY - 1, GC_EVERY, GC_EVERY + 1, 150, 301])
    def test_verifier(self, run, stream, k):
        bad = refused_at(stream, k)
        with gc_oracle.checked():
            fed, prefix = (
                Verifier(spec=PG_SERIALIZABLE, initial_db=run.initial_db,
                         gc_every=GC_EVERY)
                for _ in range(2)
            )
            with pytest.raises(RefusedTrace, match="already-terminated") as err:
                fed.process_batch([*stream[:k], bad, *stream[k:]])
            assert err.value.trace is bad
            prefix.process_batch(stream[:k])
            assert serial_state(fed) == serial_state(prefix)
            assert fed.state.stats.traces_processed == k
            # ... and both go on to the same report.
            fed.process_batch(stream[k:])
            prefix.process_batch(stream[k:])
            assert report_fingerprint(fed.finish()) == report_fingerprint(
                prefix.finish()
            )

    def test_a_batch_of_one_refused_changes_nothing(self, run, stream):
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=run.initial_db,
                            gc_every=GC_EVERY)
        verifier.process_batch(stream[:100])
        before = serial_state(verifier)
        with pytest.raises(ValueError, match="already-terminated transaction"):
            verifier.process(refused_at(stream, 100))
        assert serial_state(verifier) == before

    def test_finished_verifier_refuses_without_a_trace_counted(self, run, stream):
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=run.initial_db,
                            gc_every=GC_EVERY)
        verifier.process_batch(stream[:100])
        verifier.finish()
        before = serial_state(verifier)
        for feed in (verifier.process_batch, verifier.process_all):
            with pytest.raises(RuntimeError, match="verifier already finished"):
                feed(stream[100:])
        assert serial_state(verifier) == before

    @pytest.mark.parametrize("shards", [1, 2])
    def test_parallel_verifier(self, run, stream, shards):
        k = 150
        bad = refused_at(stream, k)

        def build():
            return ParallelVerifier(
                spec=PG_SERIALIZABLE, initial_db=run.initial_db, shards=shards,
                backend="inline", gc_every=GC_EVERY, segment_events=8,
            )

        with gc_oracle.checked():
            fed, prefix = build(), build()
            with pytest.raises(RefusedTrace) as err:
                fed.process_batch([*stream[:k], bad, *stream[k:]])
            assert err.value.trace is bad
            prefix.process_batch(stream[:k])
            for a, b in zip(fed._inline, prefix._inline):
                assert serial_state(a) == serial_state(b)
                assert [e[:3] for e in a.events] == [e[:3] for e in b.events]
            assert fed._trace_index == prefix._trace_index == k
            assert fed.live_structure_count() == prefix.live_structure_count()
            fed.process_batch(stream[k:])
            prefix.process_batch(stream[k:])
            report = fed.finish()
            assert report.stats.traces_processed == len(stream)
            assert report_fingerprint(report) == report_fingerprint(prefix.finish())


# -- the shard journal ----------------------------------------------------------------


def shard(run):
    return ShardVerifier(
        spec=PG_SERIALIZABLE, initial_db=run.initial_db, gc_every=GC_EVERY
    )


def journal(events):
    return [(index, seq, kind, str(payload)) for index, seq, kind, payload in events]


@pytest.mark.parametrize("size", [1, 3, 64])
def test_shard_journals_each_event_under_its_own_trace(run, stream, size):
    """The expectation is built without the shard's index bookkeeping:
    one trace per call of the bare loop, everything the call appended
    re-labelled with that trace's position (times 5: indices are global,
    not dense)."""
    pairs = [(5 * i, trace) for i, trace in enumerate(stream)]
    reference = shard(run)
    expected = []
    for index, trace in pairs:
        seen = len(reference.events)
        reference._execute([trace])
        expected += [
            (index, *event[1:]) for event in reference.events[seen:]
        ]
    assert len({event[0] for event in expected}) > 20

    fed = shard(run)
    for batch in cut(pairs, size):
        fed.ingest_batch(batch)
    assert journal(fed.events) == journal(expected)
    assert stats_of(fed.finish_shard()) == stats_of(reference.finish_shard())

    by_trace = shard(run)
    for index, trace in pairs:
        by_trace.ingest(index, trace)
    assert journal(by_trace.events) == journal(expected)
