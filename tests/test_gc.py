"""Garbage collection: Definition 4, Theorem 5, and memory boundedness."""

import sys

import pytest

from repro import PG_SERIALIZABLE, Trace, Verifier, pipeline_from_client_streams
from repro.core.gc import GarbageCollector
from repro.core.online import OnlineVerifier
from repro.core.parallel import ParallelVerifier
from repro.core.state import VerifierState
from repro.workloads import BlindW, run_workload
from tests import gc_oracle
from tests.conftest import verify_run


def serial_history(n, key_count=4):
    """n serial single-key update transactions."""
    traces = []
    t = 0.0
    for i in range(n):
        key = f"k{i % key_count}"
        traces.append(Trace.write(t, t + 0.1, f"t{i}", {key: i}))
        traces.append(Trace.commit(t + 0.2, t + 0.3, f"t{i}"))
        t += 1.0
    return traces


INIT = {f"k{i}": {"v": -1} for i in range(4)}


class TestDefinition4:
    def test_old_txns_pruned_when_stream_advances(self):
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=INIT, gc_every=10)
        for trace in serial_history(100):
            verifier.process(trace)
        # Do not finish(): mid-stream the graph must already be bounded.
        assert len(verifier.state.graph) < 100
        assert verifier.state.stats.gc_txns_pruned > 0

    def test_versions_pruned(self):
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=INIT, gc_every=10)
        for trace in serial_history(100):
            verifier.process(trace)
        for chain in verifier.state.chains.values():
            assert len(chain) < 10

    def test_locks_pruned(self):
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=INIT, gc_every=10)
        for trace in serial_history(100):
            verifier.process(trace)
        assert verifier.state.locks.live_entry_count() < 100

    def test_active_txn_pins_horizon(self):
        """A long-running active transaction keeps its snapshot horizon
        pinned: nothing after its first op may be pruned."""
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=INIT, gc_every=10)
        # The pinning transaction starts first and never terminates.
        verifier.process(Trace.read(0.0, 0.05, "pin", {"k0": -1}, client_id=9))
        for trace in serial_history(60):
            verifier.process(trace)
        # Every committed txn stays: the active snapshot could still read
        # any of their versions.
        assert verifier.state.stats.gc_txns_pruned == 0

    def test_gc_disabled(self):
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=INIT, gc_every=0)
        for trace in serial_history(100):
            verifier.process(trace)
        assert verifier.state.stats.gc_txns_pruned == 0
        assert len(verifier.state.graph) >= 100

    def test_gc_period_validation(self):
        with pytest.raises(ValueError):
            GarbageCollector(VerifierState(), every=0)


class TestDetectionUnaffected:
    def test_same_verdict_with_and_without_gc(self):
        """GC must not change the verdict on a real workload history."""
        from repro.dbsim import FaultPlan
        from repro.workloads import LostUpdateWorkload
        from repro.core.spec import PG_REPEATABLE_READ

        run = run_workload(
            LostUpdateWorkload(counters=4),
            PG_REPEATABLE_READ,
            clients=8,
            txns=300,
            seed=5,
            faults=FaultPlan(disable_fuw=True),
        )
        with_gc = verify_run(run, PG_REPEATABLE_READ, gc_every=64)
        without_gc = verify_run(run, PG_REPEATABLE_READ, gc_every=0)
        assert (not with_gc.ok) and (not without_gc.ok)
        assert {v.kind for v in with_gc.violations} == {
            v.kind for v in without_gc.violations
        }

    @staticmethod
    def _named(backend, traces, gc_every):
        """``(mechanism, kind, txns, key)`` of each violation one backend
        reports over ``traces`` (initial row ``k = {a: 1, b: 1}``)."""
        options = dict(
            spec=PG_SERIALIZABLE,
            initial_db={"k": {"a": 1, "b": 1}},
            gc_every=gc_every,
        )
        if backend == "online":
            verifier = OnlineVerifier(**options)
            for client_id in sorted({t.client_id for t in traces}):
                verifier.register_client(client_id)
            for trace in traces:
                verifier.feed_batch(trace.client_id, [trace])
        else:
            if backend == "serial":
                verifier = Verifier(**options)
            else:
                verifier = ParallelVerifier(
                    **options, shards=2, backend="inline", segment_events=4
                )
            verifier.process_batch(traces)
        return sorted(
            (v.mechanism.name, v.kind.name, tuple(v.txns), v.key)
            for v in verifier.finish().violations
        )

    @pytest.mark.parametrize("overwritten", [False, True], ids=["latest", "older"])
    @pytest.mark.parametrize("abort_at", [0.35, 0.6], ids=["aborted", "pending"])
    def test_partial_row_dirty_read_is_named_alike_at_every_period(
        self, abort_at, overwritten
    ):
        """t1 sets column b of k and aborts; t2 reads b = 2 next to the
        committed a = 1.  Under every GC period and backend that read is
        named as the same read of a full-row write (t1 setting a = 1 and
        b = 2): a column the write left alone adds no dependence on what
        the collector kept.  With "older", a committed a = 7 lies between,
        so a = 1 is only in an overwritten image; the pending writer pins
        the horizon below it.  Only the aborted residue depends on the
        period: a collection between the abort and t2's commit drops it,
        for either write (ROADMAP item 3)."""

        def history(delta):
            traces = [Trace.write(0.0, 0.1, "t1", {"k": delta}, client_id=0)]
            if overwritten:
                traces += [
                    Trace.write(0.12, 0.13, "t3", {"k": {"a": 7}}, client_id=2),
                    Trace.commit(0.14, 0.15, "t3", client_id=2, op_index=1),
                ]
            traces += [
                Trace.read(0.2, 0.3, "t2", {"k": {"a": 1, "b": 2}}, client_id=1),
                Trace.commit(0.4, 0.5, "t2", client_id=1, op_index=1),
                Trace.abort(abort_at, abort_at + 0.01, "t1", client_id=0, op_index=1),
            ]
            # Later, unrelated traffic: collections after the abort.
            for i in range(6):
                t = 1.0 + i
                traces += [
                    Trace.write(t, t + 0.1, f"f{i}", {f"z{i % 3}": i}, client_id=5),
                    Trace.commit(t + 0.2, t + 0.3, f"f{i}", client_id=5, op_index=1),
                ]
            return sorted(traces, key=Trace.sort_key)

        partial, full = history({"b": 2}), history({"a": 1, "b": 2})
        named = {}
        for backend in ("serial", "inline-2", "online"):
            for gc_every in (0, 1, 2, 64, 512):
                named[backend, gc_every] = self._named(backend, partial, gc_every)
                assert named[backend, gc_every] == self._named(
                    backend, full, gc_every
                ), (backend, gc_every)
        dirty = ("CONSISTENT_READ", "DIRTY_READ", ("t1", "t2"), "k")
        assert dirty in named["serial", 0]
        if abort_at > 0.5:
            assert all(names == named["serial", 0] for names in named.values())

    def test_clean_run_stays_clean_with_aggressive_gc(self):
        run = run_workload(
            BlindW.rw(keys=64), PG_SERIALIZABLE, clients=8, txns=300, seed=5
        )
        report = verify_run(run, PG_SERIALIZABLE, gc_every=16)
        assert report.ok


class TestMemoryBoundedness:
    def test_flat_memory_on_long_stream(self):
        """Live structures after 4x the history should not be ~4x larger --
        the Fig. 14 flat-memory property."""
        sizes = {}
        for n in (400, 1600):
            verifier = Verifier(
                spec=PG_SERIALIZABLE, initial_db=INIT, gc_every=32
            )
            for trace in serial_history(n):
                verifier.process(trace)
            sizes[n] = verifier.state.live_structure_count()
        assert sizes[1600] < sizes[400] * 2

    @staticmethod
    def _reader_ids(state):
        return [
            reader
            for chain in state.chains.values()
            for version in chain.committed_versions()
            for reader in version.readers or ()
        ]

    def test_reader_sets_do_not_grow_on_keys_never_overwritten(self):
        """A read-only history (YCSB-C, a long-lived service) matches
        every read to the one version its key will ever have: what that
        version's reader set holds is the transactions still alive, not
        everyone who ever read it."""
        retained = {}
        with gc_oracle.checked() as totals:
            for n in (400, 1200):
                verifier = Verifier(
                    spec=PG_SERIALIZABLE, initial_db=INIT, gc_every=32
                )
                for i in range(n):
                    key, txn, t = f"k{i % 4}", f"r{i}", float(i)
                    verifier.process(Trace.read(t, t + 0.1, txn, {key: -1}))
                    verifier.process(Trace.commit(t + 0.2, t + 0.3, txn))
                state = verifier.state
                readers = self._reader_ids(state)
                assert readers and len(readers) <= len(state.txns) < 100
                assert all(reader in state.txns for reader in readers)
                retained[n] = len(readers)
        assert totals[0].metadata > 1400
        assert retained[1200] <= retained[400] + 32

    def test_no_retired_reader_after_the_final_collection(self):
        run = run_workload(
            BlindW.rw_plus(keys=128), PG_SERIALIZABLE, clients=8, txns=300, seed=7
        )
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=run.initial_db)
        for batch in pipeline_from_client_streams(run.client_streams).iter_batches():
            verifier.process_batch(batch)
        report = verifier.finish()
        assert report.ok and report.stats.deps_wr > 100  # reads were matched
        state = verifier.state
        assert all(
            reader in state.txns or reader in state.graph
            for reader in self._reader_ids(state)
        )
        # A reader set the collection emptied is gone, not kept empty.
        assert all(
            version.readers is None or version.readers
            for chain in state.chains.values()
            for version in chain.committed_versions()
        )


class TestFrontierEquivalence:
    """The indexed pruners must reach exactly the scan-to-fixpoint
    reference's fixpoint -- same pruned set, same survivor set."""

    def _populated_state(self, txns=140):
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=INIT, gc_every=0)
        for trace in serial_history(txns):
            verifier.process(trace)
        return verifier.state

    def _workload_state(self):
        run = run_workload(
            BlindW.rw(keys=16), PG_SERIALIZABLE, clients=6, txns=200, seed=11
        )
        from repro.core.pipeline import pipeline_from_client_streams

        verifier = Verifier(
            spec=PG_SERIALIZABLE, initial_db=run.initial_db, gc_every=0
        )
        for trace in pipeline_from_client_streams(run.client_streams):
            verifier.process(trace)
        return verifier.state

    @pytest.mark.parametrize("builder", ["_populated_state", "_workload_state"])
    def test_frontier_prune_matches_scan_to_fixpoint(self, builder):
        """One state, collected at a ladder of horizons: each collection
        retires exactly what the sweeps of ``tests/gc_oracle.py`` say."""
        state = getattr(self, builder)()
        collector = GarbageCollector(state, every=1)
        horizons = sorted(
            {txn.first_interval.ts_bef for txn in state.txns.values()}
        )
        # A few interior horizons plus one past everything.
        picks = horizons[:: max(1, len(horizons) // 5)] + [
            horizons[-1] + 100.0
        ]
        retired = [
            gc_oracle.check_collection(
                collector, GarbageCollector.collect, horizon_ts=horizon
            )
            for horizon in picks
        ]
        assert sum(r.txns for r in retired) == state.stats.gc_txns_pruned > 0
        assert not state.graph.nodes()

    def test_terminal_heap_prunes_exactly_the_unreferenced(self):
        """Heap-driven metadata pruning must drop precisely the finished
        transactions behind the horizon whose graph node is gone -- the
        brute-force predicate over the whole table."""
        state = self._populated_state()
        gc = GarbageCollector(state, every=1)
        horizon = 70.0
        gc._prune_graph(horizon)
        expected_gone = {
            txn_id
            for txn_id, txn in state.txns.items()
            if txn.finished
            and txn.terminal_interval is not None
            and txn.terminal_interval.ts_aft < horizon
            and txn_id not in state.graph
        }
        before = set(state.txns)
        gc._prune_txn_states(horizon)
        assert before - set(state.txns) == expected_gone
        # Entries still referenced by the graph were re-pushed, not lost:
        # a later, larger horizon still collects them.
        gc._prune_graph(float("inf"))
        gc._prune_txn_states(float("inf"))
        assert all(not state.txns[t].finished for t in state.txns)


class TestCostPins:
    """A collection costs what it retires, not what is alive: Python-level
    calls made inside ``collect()`` (``sys.setprofile`` call events), in
    the style of ``tests/test_metrics.py::TestOffMeansOff``."""

    @staticmethod
    def _calls_inside_collect(run):
        """Run ``run()`` and count the call events raised while a
        ``GarbageCollector.collect`` frame is on the stack."""
        counted = [0]
        plain = GarbageCollector.collect

        def on_event(frame, event, arg):
            if event == "call":
                counted[0] += 1

        def collect(self, horizon_ts=None):
            sys.setprofile(on_event)
            try:
                return plain(self, horizon_ts)
            finally:
                sys.setprofile(None)

        GarbageCollector.collect = collect
        try:
            run()
        finally:
            GarbageCollector.collect = plain
        return counted[0]

    def test_calls_per_retired_structure(self):
        """<= 4 calls per retired transaction / lock / version on a
        2 000-transaction BlindW-RW run (the sweeps this replaced made
        ~9.7: a closure call per lock, five calls and two list rebuilds
        per version)."""
        run = run_workload(
            BlindW.rw(keys=2048), PG_SERIALIZABLE, clients=24, txns=2000, seed=11
        )
        reports = []
        calls = self._calls_inside_collect(
            lambda: reports.append(verify_run(run, PG_SERIALIZABLE))
        )
        stats = reports[0].stats
        retired = (
            stats.gc_txns_pruned + stats.gc_locks_pruned + stats.gc_versions_pruned
        )
        assert retired > 10_000
        assert calls <= 4 * retired, (calls, retired)

    @staticmethod
    def _state_with_finished_locks(count):
        """``count`` finished single-lock transactions whose terminal
        timestamps are all *ahead* of horizon 50, plus three behind it."""
        from repro.core.intervals import Interval
        from repro.core.locktable import LockMode
        from repro.core.state import TxnStatus

        state = VerifierState()
        for index in range(-3, count):
            txn_id = f"t{index}"
            start = 100.0 + index if index >= 0 else 10.0 + index
            terminal = Interval(start + 0.2, start + 0.3)
            state.locks.acquire(
                txn_id, f"k{index % 7}", LockMode.EXCLUSIVE,
                Interval(start, start + 0.1),
            )
            state.locks.release_all(txn_id, terminal, committed=True)
            txn = state.ensure_txn(txn_id, 0, Interval(start, start + 0.1))
            txn.status = TxnStatus.COMMITTED
            txn.terminal_interval = terminal
            state.note_terminal(txn_id, terminal.ts_aft)
        return state

    def test_live_locks_ahead_of_the_horizon_cost_nothing(self):
        """5 000 finished-but-not-yet-garbage lock entries make a
        collection no more expensive than 50 do."""
        calls = {}
        for count in (50, 5000):
            state = self._state_with_finished_locks(count)
            collector = GarbageCollector(state)
            calls[count] = self._calls_inside_collect(
                lambda: collector.collect(horizon_ts=50.0)
            )
            assert state.stats.gc_locks_pruned == 3
            assert state.locks.live_entry_count() == count
        assert calls[5000] == calls[50]
