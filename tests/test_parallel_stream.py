"""Streaming certifier merge: equivalence, mid-run surfacing, edge cases.

The contract pinned here:

* how the shard journals are cut into segments is *observationally
  invisible* -- report fingerprints and mechanism/bus counters are
  identical for every ``segment_events`` budget, from a flush after every
  frame down to a budget that never flushes mid-run (the whole journal
  arrives in the result frames and is replayed at ``finish()``: the
  deferred schedule), on clean and fault-injected histories, for both
  backends and at 1 and 4 shards; one shard is identical to the serial
  verifier;
* the segment protocol's edge cases hold: an empty segment still
  advances a shard's watermark, same-trace-index events from different
  shards replay in shard order (the global sort's tie-break), and a
  worker dying mid-stream surfaces its traceback at ``finish()``;
* the coordinator's buffered journal stays within its budget;
* the shard pipes carry whatever the inline shards accept (a record key
  outside the capture codec's grammar included) to the same report, and
  their failures -- a killed worker, a reply that does not unpickle, a
  message that does not pickle -- end in an error naming the shard, in
  bounded time, with every worker reaped.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PG_SERIALIZABLE, Trace, Verifier, pipeline_from_client_streams
from repro.core import parallel
from repro.core import report as core_report
from repro.core.metrics import NULL_REGISTRY, MetricsRegistry
from repro.core.parallel import (
    ParallelVerifier,
    StreamSegment,
    _DEP,
    _StreamMerger,
    _frame,
)
from repro.core.trace import KeyRange
from repro.dbsim.faults import FaultPlan
from repro.workloads import BlindW, run_workload
from tests.test_parallel import (
    FAULT_CASES,
    fault_run,
    report_fingerprint,
)


#: a budget no test journal reaches: nothing is flushed mid-run and the
#: whole merge happens at ``finish()``.
DEFERRED = 10**9


def stream_report(
    run,
    shards,
    backend,
    *,
    segment_events=16,
    gc_every=64,
    metrics=None,
):
    verifier = ParallelVerifier(
        spec=PG_SERIALIZABLE,
        initial_db=run.initial_db,
        shards=shards,
        backend=backend,
        segment_events=segment_events,
        gc_every=gc_every,
        metrics=metrics,
    )
    for trace in pipeline_from_client_streams(run.client_streams):
        verifier.process(trace)
    return verifier.finish()


def mechanism_counters(registry):
    """Counter values for every mechanism/bus/gc instrument (the subset
    whose totals must not depend on how the merge is scheduled)."""
    return {
        key: value
        for key, value in registry.snapshot()["counters"].items()
        if key.startswith(("cr.", "me.", "fuw.", "sc.", "bus.", "gc."))
    }


class TestStreamedEqualsDeferred:
    @pytest.mark.parametrize("backend", ["inline", "process"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_clean_run_identical(self, blindw_rw_run, backend, shards):
        reports = [
            stream_report(
                blindw_rw_run, shards, backend, segment_events=segment_events
            )
            for segment_events in (1, 7, 1024, DEFERRED)
        ]
        assert reports[0].ok
        fingerprints = {report_fingerprint(report) for report in reports}
        assert len(fingerprints) == 1
        if shards == 1:
            serial = Verifier(
                spec=PG_SERIALIZABLE,
                initial_db=blindw_rw_run.initial_db,
                gc_every=64,
            )
            for trace in pipeline_from_client_streams(
                blindw_rw_run.client_streams
            ):
                serial.process(trace)
            report = serial.finish()
            assert report_fingerprint(report) in fingerprints
            assert {r.summary() for r in reports} == {report.summary()}

    @pytest.mark.parametrize("backend", ["inline", "process"])
    @pytest.mark.parametrize("fault", sorted(FAULT_CASES))
    def test_fault_cases_identical(self, fault, backend):
        run = fault_run(fault)
        streamed = stream_report(run, 4, backend, segment_events=8)
        deferred = stream_report(run, 4, backend, segment_events=DEFERRED)
        assert report_fingerprint(streamed) == report_fingerprint(deferred)

    def test_mechanism_counters_identical(self):
        """Bus/mechanism counter identity: scheduling the replay early
        must not re-count (or drop) a single dependency or check."""
        run = fault_run("dirty-read")
        streamed_metrics = MetricsRegistry()
        deferred_metrics = MetricsRegistry()
        stream_report(
            run, 2, "inline", segment_events=8, metrics=streamed_metrics
        )
        stream_report(
            run, 2, "inline", segment_events=DEFERRED, metrics=deferred_metrics
        )
        segments = "parallel.stream.segments"
        assert streamed_metrics.snapshot()["counters"][segments] > 0
        assert deferred_metrics.snapshot()["counters"][segments] == 0
        assert mechanism_counters(streamed_metrics) == mechanism_counters(
            deferred_metrics
        )

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        fault=st.sampled_from([None, "stale-read", "lost-update", "dirty-read"]),
        segment_events=st.sampled_from([1, 4, 32]),
    )
    def test_workload_shuffles_identical(self, seed, fault, segment_events):
        """Hypothesis shuffles the interleaving (workload seed) and the
        flush cadence; every combination must stream byte-identically."""
        plan = FAULT_CASES[fault] if fault else None
        run = run_workload(
            BlindW.rw(keys=32),
            PG_SERIALIZABLE,
            clients=4,
            txns=120,
            seed=seed,
            faults=plan,
        )
        streamed = stream_report(
            run, 2, "inline", segment_events=segment_events, gc_every=24
        )
        deferred = stream_report(
            run, 2, "inline", segment_events=DEFERRED, gc_every=24
        )
        assert report_fingerprint(streamed) == report_fingerprint(deferred)


class TestMidRunSurfacing:
    def test_stream_metrics_populated(self):
        run = fault_run("dirty-read")
        metrics = MetricsRegistry()
        stream_report(
            run, 2, "inline", segment_events=8, gc_every=32, metrics=metrics
        )
        counters = metrics.snapshot()["counters"]
        assert counters["parallel.stream.segments"] > 0
        assert counters["parallel.stream.replayed"] > 0
        assert counters["parallel.stream.gc.frontier.scanned"] > 0

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_commit_log_holds_only_unreplayed_commits(
        self, blindw_rw_run, backend, monkeypatch
    ):
        """The coordinator's commit log is what the merger still has to
        install: replay drops the prefix it consumed, so at every batch
        boundary every commit held lies past the last replayed event, and
        after ``finish()`` none is left -- the log does not grow with the
        history."""
        replayed = [-1]
        plain = _StreamMerger._replay

        def replay(self, events):
            plain(self, events)
            if events:
                replayed[0] = max(replayed[0], events[-1][0])

        monkeypatch.setattr(_StreamMerger, "_replay", replay)
        verifier = ParallelVerifier(
            spec=PG_SERIALIZABLE,
            initial_db=blindw_rw_run.initial_db,
            shards=2,
            backend=backend,
            segment_events=64,
        )
        held_peak = 0
        for batch in pipeline_from_client_streams(
            blindw_rw_run.client_streams
        ).iter_batches():
            verifier.process_batch(batch)
            held = verifier._commits
            assert all(index > replayed[0] for index, _ in held)
            held_peak = max(held_peak, len(held))
        assert replayed[0] > 0  # replay ran mid-run
        report = verifier.finish()
        assert verifier._commits == []
        assert held_peak < report.stats.txns_committed

    def test_buffered_journal_stays_within_budget(self):
        """A shard flushes at ``segment_events``, segments from every
        shard can sit buffered between merge advances, and the merged
        watermark can trail a couple of flush cadences behind the fastest
        shard: the coordinator's buffered journal must stay within 4 x
        shards x segment_events on a run that flushes many segments."""
        shards, segment_events = 2, 256
        run = run_workload(
            BlindW.rw(keys=2048), PG_SERIALIZABLE, clients=24, txns=2500, seed=5
        )
        metrics = MetricsRegistry()
        verifier = ParallelVerifier(
            spec=PG_SERIALIZABLE,
            initial_db=run.initial_db,
            shards=shards,
            backend="process",
            segment_events=segment_events,
            metrics=metrics,
        )
        for batch in pipeline_from_client_streams(run.client_streams).iter_batches():
            verifier.process_batch(batch)
        assert verifier.finish().ok
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["parallel.stream.segments"] >= 8
        lag_peak = snapshot["gauges"]["parallel.stream.lag.peak"]
        assert 0 < lag_peak <= 4 * shards * segment_events


def dep(src, dst, key):
    from repro.core.dependencies import Dependency, DepType

    return Dependency(src=src, dst=dst, dep_type=DepType.WW, key=key)


def make_merger(shards, horizon_log=()):
    """A merger wired as the coordinator wires it: with the dispatch-time
    ``(trace index, S_e)`` log its collections are priced off."""
    return _StreamMerger(
        spec=PG_SERIALIZABLE,
        shards=shards,
        txns={},
        commits=[],
        gc_every=10_000,
        metrics=NULL_REGISTRY,
        horizon_log=deque(horizon_log),
    )


def idle_coordinator(shards=2):
    """A process-backend coordinator that has forked nothing yet: replies
    can be handed to it as the drainer would."""
    return ParallelVerifier(spec=PG_SERIALIZABLE, shards=shards, backend="process")


class TestSegmentEdgeCases:
    EVENTS = [
        (0, 0, _DEP, dep("t1", "t2", "k0")),
        (3, 1, _DEP, dep("t2", "t3", ("range", 4))),
    ]

    def test_segment_codec_round_trip(self):
        """A worker's segment reply reaches the merger as the events and
        the watermark that went into it."""
        verifier = idle_coordinator()
        verifier._handle_reply(
            1, _frame(("segment", StreamSegment(7, self.EVENTS)))
        )
        merger = verifier._merger
        assert merger._pending == [[], self.EVENTS]
        assert merger._watermarks == [-1, 7]
        assert not verifier._stream_errors and not verifier._stream_results

    def test_truncated_reply_is_that_shards_error(self):
        """A worker reply cut anywhere is recorded as that shard's
        failure, never raised as whatever the unpickler made of it, and
        nothing of it reaches the merger."""
        payload = _frame(("segment", StreamSegment(7, self.EVENTS)))
        for cut in range(len(payload)):
            verifier = idle_coordinator()
            verifier._handle_reply(1, payload[:cut])
            assert list(verifier._stream_errors) == [1]
            assert "does not unpickle" in verifier._stream_errors[1]
            assert verifier._merger is None

    def test_pre_first_flush_header_round_trips(self):
        # Before the first applied frame a worker echoes the sentinel
        # watermark, -1.
        verifier = idle_coordinator()
        verifier._handle_reply(0, _frame(("segment", StreamSegment(-1, []))))
        assert verifier._merger._watermarks == [-1, -1]
        assert verifier._merger.pending_events() == 0

    def test_empty_segment_advances_watermark(self):
        """A shard with nothing to journal still unblocks the merge: its
        empty segment's watermark lets the other shards' events replay."""
        merger = make_merger(2)
        replayed = []
        merger._replay = lambda events: replayed.extend(events)
        merger.offer(0, 5, [(2, 0, _DEP, "a"), (7, 1, _DEP, "b")])
        # Shard 1 has not acked anything yet: nothing is certain.
        assert merger.advance() == 0
        assert replayed == []
        merger.offer(1, 5, [])
        assert merger.advance() == 1
        assert [event[4] for event in replayed] == ["a"]
        # Index 7 is past the merged watermark and stays buffered.
        assert merger.pending_events() == 1

    def test_watermark_tie_replays_in_shard_order(self):
        """Same trace index on two shards: the merge must use the shard id
        as the tie-break, exactly like one global sort of the journals."""
        merger = make_merger(2)
        replayed = []
        merger._replay = lambda events: replayed.extend(events)
        merger.offer(1, 4, [(4, 0, _DEP, "shard1-first")])
        merger.offer(0, 4, [(4, 0, _DEP, "shard0-first")])
        assert merger.advance() == 2
        assert [event[4] for event in replayed] == [
            "shard0-first",
            "shard1-first",
        ]

    def test_late_watermark_never_regresses(self):
        merger = make_merger(1)
        merger._replay = lambda events: None
        merger.offer(0, 9, [])
        merger.offer(0, 4, [])  # stale ack arrives late
        assert merger._watermarks[0] == 9

    def test_collections_are_priced_off_the_dispatch_log(self):
        """The horizon of a collection fired after replaying trace index
        ``i`` is the coordinator's dispatch-time record for ``i``, and the
        log is consumed up to the replayed watermark."""
        merger = make_merger(1, [(0, 1.0), (1, 1.5), (2, 2.5), (3, 4.0)])
        assert merger._gc_horizon(1) == 1.5
        assert list(merger._horizon_log) == [(2, 2.5), (3, 4.0)]
        merger._replay = lambda events: None
        merger.offer(0, 2, [(2, 0, _DEP, "a")])
        assert merger.advance() == 1
        assert list(merger._horizon_log) == [(3, 4.0)]
        assert merger._gc_horizon(2) == 2.5  # nothing newer was dispatched

    def test_exotic_key_is_refused_at_the_coordinator(self):
        """The one kind of key the process backend cannot take is one
        that does not pickle (here: a lambda).  The coordinator refuses
        the trace loudly when it builds the frame, before any of it
        reaches the worker -- which goes on to a clean, empty result."""
        verifier = ParallelVerifier(
            spec=PG_SERIALIZABLE, shards=1, backend="process", batch_size=1
        )
        try:
            with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
                verifier.process(Trace.write(1.0, 2.0, "t1", {lambda: None: 1}))
        finally:
            # Reap the worker: the refused frame is still buffered.
            verifier._buffers[0].clear()
            report = verifier.finish()
        assert report.stats.writes_checked == 0
        assert not any(proc.is_alive() for proc in verifier._workers)

    def test_worker_error_mid_stream_surfaces_at_finish(self, blindw_rw_run):
        verifier = ParallelVerifier(
            spec=PG_SERIALIZABLE,
            initial_db=blindw_rw_run.initial_db,
            shards=2,
            backend="process",
            segment_events=8,
        )
        traces = list(
            pipeline_from_client_streams(blindw_rw_run.client_streams)
        )
        for trace in traces[: len(traces) // 2]:
            verifier.process(trace)
        # Inject a malformed frame: the worker's ``loads`` raises, and the
        # worker ships its traceback as an error reply before exiting.
        verifier._conns[0].send_bytes(b"\xff\xff\xff")
        for trace in traces[len(traces) // 2 :]:
            verifier.process(trace)
        with pytest.raises(RuntimeError, match="shard worker 0 raised") as err:
            verifier.finish()
        assert "Traceback" in str(err.value) and "apply_message_frame" in str(err.value)
        assert not any(proc.is_alive() for proc in verifier._workers)


def exotic_history():
    """The stale-read fault run (injected violations, aborted readers)
    with a hand-written tail behind it: a write and a read that each span
    several owners, a predicate scan, an aborted reader, and a record key
    no capture could carry -- a ``frozenset`` -- that is written, read
    back (a journaled wr dependency keyed by it) and read stale (a
    journaled violation keyed by it)."""
    run = fault_run("stale-read")
    traces = list(pipeline_from_client_streams(run.client_streams))
    t = max(trace.ts_aft for trace in traces) + 1.0
    odd = frozenset("k")
    rows = {("idx", n): n for n in range(1, 7)}
    tail = [
        Trace.write(t, t + 0.1, "x1", {**rows, odd: 10}, client_id=900),
        Trace.commit(t + 0.2, t + 0.3, "x1", client_id=900, op_index=1),
        Trace.read(
            t + 0.4, t + 0.5, "x2", rows, client_id=901,
            predicate=KeyRange(prefix=("idx",), lo=0, hi=10),
        ),
        Trace.read(
            t + 0.6, t + 0.7, "x2", {**rows, odd: 10}, client_id=901, op_index=1,
        ),
        Trace.abort(t + 0.8, t + 0.9, "x2", client_id=901, op_index=2),
        Trace.read(t + 1.0, t + 1.1, "x3", {odd: 10}, client_id=902),
        Trace.commit(t + 1.2, t + 1.3, "x3", client_id=902, op_index=1),
        Trace.read(t + 1.4, t + 1.5, "x4", {odd: 99}, client_id=903),
        Trace.commit(t + 1.6, t + 1.7, "x4", client_id=903, op_index=1),
    ]
    return run, traces + tail, odd


class TestProcessBackendAcceptsWhatInlineAccepts:
    @pytest.mark.parametrize("shards", [2, 3])
    def test_same_report_over_pipes_and_in_process(self, shards):
        run, traces, odd = exotic_history()
        reports = {}
        for backend in ("inline", "process"):
            verifier = ParallelVerifier(
                spec=PG_SERIALIZABLE,
                initial_db=run.initial_db,
                shards=shards,
                backend=backend,
                segment_events=16,
            )
            # The tail is what it claims to be, at this shard count.
            owners = [len(verifier.router.split(trace)) for trace in traces[-9:]]
            assert owners[0] > 1 and owners[3] > 1
            reports[backend] = verifier.process_all(traces).finish()
        inline, process = reports["inline"], reports["process"]
        assert core_report.report_fingerprint(process) == (
            core_report.report_fingerprint(inline)
        )
        assert report_fingerprint(process) == report_fingerprint(inline)
        assert [v.key for v in process.violations].count(odd) == 1
        assert len(process.violations) > 1
        assert process.stats.txns_aborted > 1


def finish_within(verifier, seconds):
    """``verifier.finish()`` on a thread of its own: what it returned or
    raised, or a test failure if it is still running after ``seconds``."""
    outcome = []

    def run():
        try:
            outcome.append(verifier.finish())
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"finish() still running after {seconds} s"
    return outcome[0]


class TestWorkerFailure:
    """The pipe's failure story: whatever happens to a worker, ``finish()``
    returns in bounded time with a ``RuntimeError`` naming the shard, and
    no worker process is left behind."""

    def fed_half(self, run):
        verifier = ParallelVerifier(
            spec=PG_SERIALIZABLE,
            initial_db=run.initial_db,
            shards=2,
            backend="process",
            batch_size=32,
            segment_events=8,
        )
        traces = list(pipeline_from_client_streams(run.client_streams))
        half = len(traces) // 2
        verifier.process_all(traces[:half])
        return verifier, traces[half:]

    def assert_fails_naming(self, verifier, message):
        outcome = finish_within(verifier, 60)
        assert isinstance(outcome, RuntimeError), outcome
        assert message in str(outcome)
        assert str(outcome).startswith("shard worker failed")
        assert not any(proc.is_alive() for proc in verifier._workers)
        assert not verifier._drainer.is_alive()

    def test_sigkilled_worker(self, blindw_rw_run):
        verifier, rest = self.fed_half(blindw_rw_run)
        victim = verifier._workers[1]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(30)
        verifier.process_all(rest)  # sends into the dead pipe are dropped
        self.assert_fails_naming(verifier, "shard worker 1 exited without a reply")

    def test_reply_that_does_not_unpickle(self, blindw_rw_run, monkeypatch):
        worker_main = parallel._shard_worker_main

        def garbling_main(conn, shard_id, *args):
            if shard_id != 1:
                return worker_main(conn, shard_id, *args)
            conn.send_bytes(b"\x80\x05 not a pickle")
            while conn.recv_bytes():
                pass
            conn.close()

        # Workers are forked from this process, so they run the patch.
        monkeypatch.setattr(parallel, "_shard_worker_main", garbling_main)
        verifier, rest = self.fed_half(blindw_rw_run)
        verifier.process_all(rest)
        self.assert_fails_naming(
            verifier, "shard worker 1 sent a reply that does not unpickle"
        )
