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
* violations certified by the global replay surface *during* the run via
  ``violations_so_far()`` (and through :class:`OnlineVerifier` alerts),
  and the mid-run list is a stable prefix of the final report;
* the segment protocol's edge cases hold: an empty segment still
  advances a shard's watermark, same-trace-index events from different
  shards replay in shard order (the global sort's tie-break), and a
  worker dying mid-stream surfaces its traceback at ``finish()``;
* the coordinator's buffered journal stays within its budget.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PG_SERIALIZABLE, Trace, Verifier, pipeline_from_client_streams
from repro.core.codec import CodecError
from repro.core.metrics import NULL_REGISTRY, MetricsRegistry
from repro.core.parallel import (
    ParallelVerifier,
    StreamSegment,
    _DEP,
    _StreamMerger,
    decode_shard_reply,
    encode_segment_frame,
)
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


def violation_key(violation):
    return (
        violation.mechanism,
        violation.kind,
        violation.txns,
        violation.key,
        violation.details,
    )


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
    def test_violations_surface_before_finish(self):
        run = fault_run("dirty-read")
        verifier = ParallelVerifier(
            spec=PG_SERIALIZABLE,
            initial_db=run.initial_db,
            shards=2,
            backend="inline",
            segment_events=4,
            gc_every=32,
        )
        counts = []
        mid_run = []
        for trace in pipeline_from_client_streams(run.client_streams):
            verifier.process(trace)
            seen = verifier.violations_so_far()
            counts.append(len(seen))
            mid_run = [violation_key(v) for v in seen]
        report = verifier.finish()
        assert not report.ok
        # The streamed replay certified real findings mid-run.
        assert counts[-1] > 0
        # Monotone: the certified list only ever grows.
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        # Stable prefix: finish() extends the same list, never reorders.
        final = [violation_key(v) for v in report.violations]
        assert final[: len(mid_run)] == mid_run
        assert len(final) >= len(mid_run)

    def test_online_alerts_fire_before_finish(self):
        from repro import OnlineVerifier

        run = fault_run("dirty-read")
        backend = ParallelVerifier(
            spec=PG_SERIALIZABLE,
            initial_db=run.initial_db,
            shards=2,
            backend="inline",
            segment_events=4,
        )
        alerts = []
        online = OnlineVerifier(verifier=backend, on_violation=alerts.append)
        alerts_before_finish = 0
        for trace in pipeline_from_client_streams(run.client_streams):
            online.feed(trace)
            alerts_before_finish = len(alerts)
        report = online.finish()
        assert not report.ok
        assert alerts_before_finish > 0
        assert len(alerts) == len(report.violations)

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


class TestSegmentEdgeCases:
    def test_segment_codec_round_trip(self):
        events = [
            (0, 0, _DEP, dep("t1", "t2", "k0")),
            (3, 1, _DEP, dep("t2", "t3", ("range", 4))),
        ]
        payload = encode_segment_frame(1, 7, events)
        kind, segment = decode_shard_reply(payload)
        assert kind == "segment"
        assert isinstance(segment, StreamSegment)
        assert segment.shard_id == 1
        assert segment.watermark == 7
        assert segment.events == events

    def test_truncated_reply_is_a_codec_error(self):
        """A worker reply cut anywhere is refused as malformed wire data,
        never as a bare ``IndexError`` out of the reader."""
        events = [
            (0, 0, _DEP, dep("t1", "t2", "k0")),
            (3, 1, _DEP, dep("t2", "t3", ("range", 4))),
        ]
        payload = encode_segment_frame(1, 7, events)
        for cut in range(len(payload)):
            with pytest.raises(CodecError):
                decode_shard_reply(payload[:cut])

    def test_pre_first_flush_header_round_trips(self):
        # Before the first applied frame a worker echoes the sentinel
        # header: watermark -1.
        payload = encode_segment_frame(0, -1, [])
        kind, segment = decode_shard_reply(payload)
        assert kind == "segment"
        assert segment.watermark == -1
        assert segment.events == []

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
        """Journaled dependency keys travel back as codec values, so a key
        the grammar does not cover must never reach a worker: the
        coordinator refuses the trace loudly when it encodes the frame."""
        verifier = ParallelVerifier(
            spec=PG_SERIALIZABLE, shards=1, backend="process", batch_size=1
        )
        try:
            with pytest.raises(CodecError, match="unsupported value type"):
                verifier.process(Trace.write(1.0, 2.0, "t1", {frozenset("k"): 1}))
        finally:
            # Reap the worker: the refused frame is still buffered.
            verifier._buffers[0].clear()
            verifier.finish()

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
        # Inject a malformed frame: the worker's decoder raises, and the
        # worker ships its traceback as an error frame before exiting.
        verifier._conns[0].send_bytes(b"\xff\xff\xff")
        for trace in traces[len(traces) // 2 :]:
            verifier.process(trace)
        with pytest.raises(RuntimeError, match="shard worker failed"):
            verifier.finish()
