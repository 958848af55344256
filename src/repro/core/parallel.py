"""Parallel verification: per-shard CR/ME/FUW, one global certifier.

Leopard's CR, ME and FUW checks are per-record (Section V): every candidate
set, lock pair and write-conflict pair involves a single key, so hash-
partitioning the key space (:mod:`repro.core.sharding`) makes them
embarrassingly parallel.  Only the serialization certifier is global --
dependency cycles cross keys -- so the parallel path splits the work:

* each **shard worker** runs a full :class:`~repro.core.verifier.Verifier`
  over its key partition, whose certifier (:class:`ShardVerifier`
  overrides the assembly's ``_build_certifier``) is a
  :class:`GraphOnlyCertifier` that maintains the local dependency graph --
  the ww-order oracle CR and the Fig. 9 derivation need -- but reports
  nothing;
* every dependency a worker's bus accepts (the journal is first on the
  shard's delivery line: ``_connect_bus``), and every violation its
  mechanisms record, is **journaled** with the global index of the trace
  being processed and a per-shard sequence number;
* the journals are merge-sorted by ``(trace index, shard, sequence)`` and
  replayed into a single global
  :class:`~repro.core.certifier.SerializationCertifier`, which certifies
  the complete cross-shard graph.

The merge is **streamed**: workers flush journal *segments* back over
their pipes during the run, each tagged with
the coordinator watermark of the last message frame they fully applied.
Trace indices reach a shard in increasing order, so once a shard has
applied the frame tagged ``W`` it can never again journal an event with
index ``<= W``; the coordinator therefore replays the merged stream up to
``min`` over the shards' acked watermarks, incrementally, while workers
are still computing.  Chunk ``n`` contains exactly the pending events
with index ``<= W_n`` and later chunks only indices ``> W_n``, so the
concatenation of chunks equals one global sort of the complete journals
-- the replayed certifier sees the same event sequence however the
journals were cut into segments.  A
:class:`~repro.core.gc.GarbageCollector` runs against the replay state,
keeping coordinator memory flat instead of O(total journal) (Section
V-D's asynchronous pruning, applied to the merged graph); its collections
fire at fixed replayed-event-count thresholds with the ``S_e`` horizon
the coordinator recorded when it dispatched the trace index the replay
reached, so the prune schedule -- and with it the report -- is a pure
function of the trace stream, independent of segment arrival timing.

With one shard the journal replay reproduces the serial verifier's event
order exactly, so the merged report is identical to the serial report --
the property the equivalence tests pin down.  With several shards the
per-key checks and the certifier remain exact; the only relaxation is that
a worker's ww-order *oracle* sees only the ww edges its own shard deduced,
so a cross-key deduced order cannot shrink another shard's CR candidate
sets (a precision loss that can only suppress deductions, never invent
violations).

Transaction lifecycle events are broadcast: terminals go to every shard,
and the first trace of each transaction triggers a "begin" control message
carrying the true first-operation interval, so every shard agrees on each
transaction's snapshot-generation interval (Definition 2) regardless of
which shard owned the keys of its first operation.

The worker pipes are not a wire format: coordinator and workers are one
process image, and what crosses a pipe is one ``pickle`` per flushed
message buffer, journal segment or result ("wire frames" below says what
may be unpickled, and why nothing from a file or a socket ever is).
"""

from __future__ import annotations

import dataclasses
import heapq
import multiprocessing
import pickle
import queue
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .bus import DependencyBus
from .certifier import SerializationCertifier
from .gc import GarbageCollector
from .intervals import Interval
from .mechanism import MechanismVerifier
from .metrics import NULL_REGISTRY, MetricsRegistry
from .report import BugDescriptor, VerificationReport, VerificationStats, Violation
from .runtime import CollectorWatch, relax_collector
from .sharding import ShardRouter
from .spec import IsolationSpec, PG_SERIALIZABLE
from .state import TxnStatus, VerifierState
from .trace import Key, OpKind, Trace
from .verifier import RefusedTrace, Verifier, batches

#: journaled event kinds: a dependency accepted by the shard's bus, or a
#: violation recorded by one of the shard's mechanisms.
_DEP = "d"
_VIOLATION = "v"

#: the :class:`VerificationStats` fields the coordinator counts itself:
#: broadcast traces and terminals are processed by several shards, so a sum
#: over the shards would count them more than once.
_COORDINATOR_OWNED = ("traces_processed", "txns_committed", "txns_aborted")

#: coordinator -> worker message tags (named so dispatch sites do not
#: compare anonymous string literals).
MSG_BEGIN = "b"
MSG_TRACE = "t"

# -- wire frames ------------------------------------------------------------------
#
# One pickled object per frame, both ways, over ``send_bytes`` /
# ``recv_bytes`` (so the byte counters see the payloads): the coordinator
# sends ``(watermark, messages)`` per flushed buffer, a worker replies with
# ``("segment", StreamSegment)`` frames, then one ``("ok", ShardResult)`` or
# ``("error", traceback)``; an empty byte string ends the coordinator's
# stream.  Trust boundary: the only bytes ever unpickled are the ones the
# process at the other end of a pipe this coordinator created wrote to it
# -- a worker it forked, or itself.  Nothing read from a file or a socket
# comes near ``pickle.loads`` (those go through :mod:`repro.core.codec`).

#: sort key of the merged journal replay order.
_EVENT_KEY = itemgetter(0, 1, 2)


def _frame(obj) -> bytes:
    return pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)


def apply_message_frame(shard: "ShardVerifier", payload: bytes) -> int:
    """Feed one coordinator->worker frame to a shard verifier.

    Runs of consecutive trace messages are handed to
    :meth:`ShardVerifier.ingest_batch` so the per-trace bookkeeping is
    amortized across the run; a begin control ends the run in front of it.
    Returns the frame's ``watermark``: every message with a
    smaller-or-equal trace index routed to this shard is in this frame or
    an earlier one, and the worker echoes it on the journal segments it
    flushes after applying the frame.
    """
    watermark, messages = pickle.loads(payload)
    pending: List[Tuple[int, Trace]] = []
    for message in messages:
        if message[0] == MSG_TRACE:
            pending.append(message[1:])
            continue
        if pending:
            shard.ingest_batch(pending)
            pending = []
        shard.begin(*message[1:])
    if pending:
        shard.ingest_batch(pending)
    return watermark


class GraphOnlyCertifier(MechanismVerifier):
    """Shard-local stand-in for the serialization certifier.

    Maintains the dependency graph (the ww-order oracle and the garbage
    guard depend on it) but never reports: cycles and dangerous structures
    can span shards, so certification belongs to the merged global pass.
    """

    name = "SC"

    def __init__(self, state: VerifierState):
        self._state = state

    def on_dependency(self, dep) -> None:
        self._state.graph.add_dependency(dep)


class _JournalingDescriptor(BugDescriptor):
    """Bug descriptor that journals every ``record`` call (witnesses
    included, before deduplication) so the merged descriptor can replay
    them and end up with the exact witness counts of a serial run."""

    def __init__(self, journal) -> None:
        super().__init__()
        self._journal = journal

    def record(self, violation: Violation) -> None:
        self._journal(_VIOLATION, violation)
        super().record(violation)


@dataclass
class ShardResult:
    """Everything a shard worker ships back to the coordinator."""

    shard_id: int
    #: journaled events ``(trace_index, seq, kind, payload)`` in the exact
    #: order the shard produced them: the residue not already flushed as
    #: segments.
    events: List[Tuple[int, int, str, object]]
    stats: VerificationStats
    #: worker-side :meth:`MetricsRegistry.snapshot` (empty dicts when the
    #: run was not instrumented) and the shard's trace-processing wall
    #: time, for the ``parallel.shard.*`` coordinator metrics.
    metrics: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: total events the shard journaled over its lifetime (flushed
    #: segments included).
    journal_total: int = 0


@dataclass
class StreamSegment:
    """A mid-run journal flush from one shard (which one, the pipe it
    arrives on says)."""

    #: trace-index watermark: the shard will never journal another event
    #: with index ``<= watermark`` after this segment.
    watermark: int
    events: List[Tuple[int, int, str, object]]


class ShardVerifier(Verifier):
    """A serial verifier over one key partition, journaling its output.

    The assembly differs from the serial one in its two overridable
    steps: the certifier is a :class:`GraphOnlyCertifier`, and the bus's
    delivery line starts with the journal.  A descriptor subclass journals
    each recorded violation; dependencies and violations are both tagged
    with the global index of the trace currently being ingested and a
    shared per-shard sequence number (so the merged replay preserves their
    relative order).
    """

    def __init__(self, shard_id: int = 0, **kwargs):
        # Registries do not cross the process pipe, so the coordinator
        # ships a bool and each worker builds (and later snapshots) its own.
        if kwargs.pop("metrics_enabled", False) and "metrics" not in kwargs:
            kwargs["metrics"] = MetricsRegistry()
        self.shard_id = shard_id
        self.events: List[Tuple[int, int, str, object]] = []
        self._seq = 0
        self._trace_index = -1
        self._wall_seconds = 0.0
        super().__init__(**kwargs)
        self.state.descriptor = _JournalingDescriptor(self._journal)

    def _build_certifier(self) -> GraphOnlyCertifier:
        return GraphOnlyCertifier(self.state)

    def _connect_bus(self, certifier, deriver) -> None:
        self.bus.connect(
            certifier, deriver, journal=lambda dep: self._journal(_DEP, dep)
        )

    def _journal(self, kind: str, payload) -> None:
        self.events.append((self._trace_index, self._seq, kind, payload))
        self._seq += 1

    def begin(self, txn_id: str, client_id: int, interval: Interval) -> None:
        """Broadcast control: the transaction's true first-operation
        interval, delivered before any of its traces route here."""
        self.state.ensure_txn(txn_id, client_id, interval)

    def ingest(self, trace_index: int, trace: Trace) -> None:
        """One routed trace (the inline backend's feed): a run of one."""
        self.ingest_batch(((trace_index, trace),))

    def ingest_batch(self, pairs: Iterable[Tuple[int, Trace]]) -> None:
        """Run ``(trace_index, trace)`` pairs through the verifier's
        dispatch loop, each trace's events journaled under its index."""
        if self.metrics.enabled:
            start = time.perf_counter()
            self._execute(self._indexed(pairs))
            self._wall_seconds += time.perf_counter() - start
        else:
            self._execute(self._indexed(pairs))

    def _indexed(self, pairs: Iterable[Tuple[int, Trace]]) -> Iterator[Trace]:
        """The traces of ``pairs``; the journal's trace index moves to
        each trace's own as the loop pulls it."""
        for self._trace_index, trace in pairs:
            yield trace

    def finish_shard(self) -> ShardResult:
        start = time.perf_counter()
        self.finish()
        self._wall_seconds += time.perf_counter() - start
        return ShardResult(
            shard_id=self.shard_id,
            events=self.events,
            stats=self.state.stats,
            metrics=self.metrics.snapshot() if self.metrics.enabled else {},
            wall_seconds=self._wall_seconds,
            journal_total=self._seq,
        )


# -- process backend -------------------------------------------------------------


def _shard_worker_main(conn, shard_id: int, spec, initial_part, options) -> None:
    """Worker process entry point: drain message frames, ship the result.

    Each frame interleaves begin controls and routed traces in stream
    order (:func:`apply_message_frame`).  An empty frame ends the stream;
    the reply is the shard's result, or the traceback of whatever stopped
    it.

    The journal is flushed back as a segment whenever it grows past the
    ``stream_segment_events`` budget, echoing the watermark of the frame
    just applied -- after this segment the worker will never journal
    another event with trace index ``<= watermark``; the final result then
    carries only the residue.
    """
    relax_collector()
    options = dict(options)
    segment_events = options.pop("stream_segment_events")
    try:
        shard = ShardVerifier(
            shard_id=shard_id, spec=spec, initial_db=initial_part, **options
        )
        with CollectorWatch(shard.metrics):
            while True:
                frame = conn.recv_bytes()
                if not frame:
                    break
                watermark = apply_message_frame(shard, frame)
                if len(shard.events) >= segment_events:
                    segment = StreamSegment(watermark, shard.events)
                    conn.send_bytes(_frame(("segment", segment)))
                    shard.events.clear()
            result = shard.finish_shard()
        conn.send_bytes(_frame(("ok", result)))
    except BaseException:  # noqa: BLE001 - forwarded to the coordinator
        conn.send_bytes(_frame(("error", traceback.format_exc())))
    finally:
        conn.close()


def _make_context():
    """Fork when available (cheap, inherits imports); spawn elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


@dataclass
class _TxnRecord:
    """Coordinator-side transaction lifecycle registry entry."""

    client_id: int
    first_interval: Interval
    status: TxnStatus = TxnStatus.ACTIVE
    terminal_interval: Optional[Interval] = None


class _StreamMerger:
    """Incremental k-way merge + replay of shard journal segments.

    Buffers each shard's pending events (already ``(index, seq)``-sorted:
    that is journal order), and on :meth:`advance` replays the merged
    prefix with trace index ``<= min`` over the shards' acked watermarks
    into a global :class:`~repro.core.certifier.SerializationCertifier`.
    Each chunk is sorted by ``(index, shard, seq)``; chunk *n* holds all
    pending events with index ``<= W_n`` and later chunks only indices
    ``> W_n``, so the concatenation of chunks is exactly the global sort
    of the complete journals -- replay order, and therefore the report, is
    identical however the journals were segmented.

    Transaction metadata is installed lazily from the coordinator's
    lifecycle registry the first time an event or commit boundary touches
    a transaction; journaled dependency endpoints were terminal when
    deduced, so their registry records are final by replay time.  A
    :class:`~repro.core.gc.GarbageCollector` prunes the replay state,
    keeping the coordinator's graph flat; a pruned transaction touched
    again is simply re-ensured.

    Collections are a pure function of the trace stream, never of segment
    arrival timing: they fire at exact replayed-event-count thresholds
    (``advance`` and ``finalize`` both slice their chunks at the
    boundaries, so how the journal happened to split between mid-run
    segments and the result-frame residue cannot move a fire), and each
    fire prunes at the horizon the coordinator recorded when it
    *dispatched* the trace index the replay just reached (``horizon_log``)
    -- exactly the serial collector's ``S_e`` at that stream position.
    Machine load can therefore delay replay, but never change which
    transactions get pruned, so the report is byte-identical on every
    schedule.
    """

    def __init__(
        self,
        spec: IsolationSpec,
        shards: int,
        txns: Dict[str, _TxnRecord],
        commits: List[Tuple[int, str]],
        gc_every: int,
        metrics: MetricsRegistry,
        horizon_log: "deque",
    ):
        self._txns = txns
        #: the coordinator's commit log, shared: replay consumes it front
        #: to back and drops what it consumed, in place.
        self._commits = commits
        state = VerifierState()
        self.state = state
        self.descriptor = state.descriptor
        # An uncounted bus (the shard journals already counted these
        # dependencies) feeding the one place certification happens.
        self._bus = DependencyBus(state, count_stats=False)
        self._certifier = SerializationCertifier(state, spec, metrics=metrics)
        self._bus.connect(self._certifier)
        self._gc = GarbageCollector(
            state,
            every=max(1, gc_every),
            on_txn_pruned=self._certifier.on_gc,
            metrics=metrics,
            metric_prefix="parallel.stream.gc",
        )
        self._gc_every = max(1, gc_every)
        self._since_gc = 0
        #: per-dispatched-trace ``(index, S_e)`` records from the
        #: coordinator; consulted (and consumed) to price collections at
        #: the horizon current when the replayed index was dispatched.
        self._horizon_log = horizon_log
        self._log_horizon = float("-inf")
        self._pending: List[List[Tuple[int, int, str, object]]] = [
            [] for _ in range(shards)
        ]
        self._watermarks = [-1] * shards
        self._replayed_watermark = -1
        self._m_replayed = metrics.counter("parallel.stream.replayed")
        self._m_lag = metrics.gauge("parallel.stream.lag")
        self._m_lag_peak = metrics.gauge("parallel.stream.lag.peak")

    def pending_events(self) -> int:
        return sum(len(pending) for pending in self._pending)

    def _note_lag(self) -> None:
        lag = self.pending_events()
        self._m_lag.set(lag)
        self._m_lag_peak.high_watermark(lag)

    def offer(
        self,
        shard: int,
        watermark: int,
        events: Sequence[Tuple[int, int, str, object]],
    ) -> None:
        """Buffer one segment and advance the shard's watermark
        (monotone -- a late small ack never regresses it)."""
        self._pending[shard].extend(events)
        if watermark > self._watermarks[shard]:
            self._watermarks[shard] = watermark
        self._note_lag()

    def add_residual(
        self, shard: int, events: Sequence[Tuple[int, int, str, object]]
    ) -> None:
        """Buffer a result frame's residue without touching watermarks
        (finalize replays everything regardless)."""
        self._pending[shard].extend(events)

    def advance(self) -> int:
        """Replay everything certain: events with index ``<=`` the merged
        watermark.  Returns the number of events replayed."""
        low = min(self._watermarks)
        if low <= self._replayed_watermark:
            return 0
        self._replayed_watermark = low
        due: List[Tuple[int, int, int, str, object]] = []
        for shard, pending in enumerate(self._pending):
            cut = 0
            for event in pending:
                if event[0] > low:
                    break
                cut += 1
            if cut:
                due.extend(
                    (event[0], shard, event[1], event[2], event[3])
                    for event in pending[:cut]
                )
                del pending[:cut]
        if not due:
            return 0
        due.sort(key=_EVENT_KEY)
        self._replay_with_gc(due)
        self._m_replayed.inc(len(due))
        self._note_lag()
        # Consume the log up to the watermark, so it tracks only the
        # dispatch-to-replay window.
        self._gc_horizon(low)
        return len(due)

    def _gc_horizon(self, index: int) -> float:
        """Horizon for a collection fired right after replaying ``index``:
        the coordinator's dispatch-time ``S_e`` record for that trace
        index (a pure function of the trace stream).  Consumes the log's
        entries up to ``index``."""
        log = self._horizon_log
        while log and log[0][0] <= index:
            self._log_horizon = log.popleft()[1]
        return self._log_horizon

    def _replay_with_gc(self, due: List[Tuple[int, int, int, str, object]]) -> None:
        """Replay a merged chunk, firing collections at exact
        replayed-event-count thresholds.

        Slicing at the thresholds (instead of one collection per chunk)
        makes the fire positions -- and with the dispatch-time horizon
        records, the entire prune schedule -- independent of how segment
        arrival timing happened to batch the chunks."""
        start = 0
        n = len(due)
        while start < n:
            take = min(n - start, self._gc_every - self._since_gc)
            end = start + take
            # Never fire mid-trace: the serial collector only runs between
            # traces, after every dependency of the current trace has been
            # delivered -- a cycle-closing edge journaled later in the same
            # trace index must land before its endpoints can be pruned.  So
            # extend the chunk to the end of the threshold event's index
            # group.  Index groups are always complete inside ``due``
            # (``advance`` cuts at the merged watermark, ``finalize`` drains
            # everything), so the extension -- and with it every fire
            # position -- remains a pure function of the trace stream,
            # independent of segment arrival timing.
            if end < n:
                boundary = due[end - 1][0]
                while end < n and due[end][0] == boundary:
                    end += 1
            chunk = due[start:end]
            self._replay(chunk)
            self._since_gc += len(chunk)
            start = end
            if self._since_gc >= self._gc_every:
                self._since_gc = 0
                self._gc.collect(horizon_ts=self._gc_horizon(chunk[-1][0]))

    def finalize(self) -> BugDescriptor:
        """Replay the remaining buffered suffix (the residue past the last
        merged watermark, globally sorted) and install trailing commit
        nodes.

        The residue goes through the same threshold-sliced replay as
        :meth:`advance`: a run where little streamed mid-run (slow segment
        arrival) fires its remaining collections here, at the same stream
        positions a fully-streamed run fired them during intake."""
        due: List[Tuple[int, int, int, str, object]] = []
        for shard, pending in enumerate(self._pending):
            due.extend(
                (event[0], shard, event[1], event[2], event[3])
                for event in pending
            )
            pending.clear()
        due.sort(key=_EVENT_KEY)
        self._replay_with_gc(due)
        state = self.state
        for _, txn_id in self._commits:
            self._ensure_txn(txn_id)
            state.graph.add_txn(txn_id)
        self._commits.clear()
        self._m_lag.set(0)
        return self.descriptor

    def _ensure_txn(self, txn_id: str) -> None:
        state = self.state
        if txn_id in state.txns:
            return
        record = self._txns.get(txn_id)
        if record is None:
            return
        txn = state.ensure_txn(txn_id, record.client_id, record.first_interval)
        txn.status = record.status
        txn.terminal_interval = record.terminal_interval
        if (
            record.terminal_interval is not None
            and record.status is not TxnStatus.ACTIVE
        ):
            state.note_terminal(txn_id, record.terminal_interval.ts_aft)

    def _replay(self, events: List[Tuple[int, int, int, str, object]]) -> None:
        """Replay one merged chunk: commit-boundary node insertion (a
        committing transaction's graph node exists before any dependency
        or violation of that trace, mirroring the serial order),
        dependency batching, violation recording -- with transaction
        metadata ensured on first touch."""
        state = self.state
        bus = self._bus
        descriptor = self.descriptor
        ensure = self._ensure_txn
        commits = self._commits
        pos = 0
        n_commits = len(commits)
        batch: List = []
        for index, _shard, _seq, kind, payload in events:
            if pos < n_commits and commits[pos][0] <= index:
                if batch:
                    bus.publish_many(batch)
                    batch.clear()
                while pos < n_commits and commits[pos][0] <= index:
                    _, txn_id = commits[pos]
                    ensure(txn_id)
                    state.graph.add_txn(txn_id)
                    pos += 1
            if kind == _VIOLATION:
                if batch:
                    bus.publish_many(batch)
                    batch.clear()
                descriptor.record(payload)
            else:
                ensure(payload.src)
                ensure(payload.dst)
                batch.append(payload)
        if batch:
            bus.publish_many(batch)
        del commits[:pos]


class ParallelVerifier:
    """Coordinator for sharded parallel verification.

    Public surface mirrors :class:`~repro.core.verifier.Verifier`
    (``process`` / ``process_all`` / ``finish``), so it drops into the
    pipeline and the CLI unchanged.

    Parameters
    ----------
    shards:
        Number of key partitions (1 reproduces the serial report exactly).
    backend:
        ``"process"`` runs one worker process per shard over pipes;
        ``"inline"`` runs the shard verifiers in-process (deterministic
        fallback -- same journals, same merge, byte-identical report).
    batch_size:
        Messages buffered per shard before a pipe send (process backend).
    segment_events:
        Journal-size budget (events) at which a worker flushes a
        watermark-tagged segment for the coordinator to merge, replay and
        garbage-collect while the workers keep computing; also bounds the
        coordinator's buffered journal to O(shards x segment_events)
        between merge advances.
    metrics:
        Coordinator-side :class:`~repro.core.metrics.MetricsRegistry`.
        When enabled, each shard builds its own registry (registries do
        not cross the worker pipe), ships its snapshot back inside
        :class:`ShardResult`, and the coordinator folds the snapshots in
        via :meth:`~repro.core.metrics.MetricsRegistry.merge_snapshot`,
        adding ``parallel.shard.seconds{shard=i}`` /
        ``parallel.shard.journal.events{shard=i}`` gauges and the
        ``parallel.merge.seconds`` histogram.  Default: disabled.
    """

    def __init__(
        self,
        spec: IsolationSpec = PG_SERIALIZABLE,
        initial_db: Optional[Mapping[Key, Mapping[str, object]]] = None,
        shards: int = 4,
        backend: str = "process",
        batch_size: int = 256,
        gc_every: int = 512,
        session_order: bool = True,
        segment_events: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        **verifier_kwargs,
    ):
        if backend not in ("process", "inline"):
            raise ValueError(f"unknown parallel backend {backend!r}")
        self._segment_events = max(1, segment_events)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.spec = spec
        self.router = ShardRouter(shards)
        self._backend = backend
        self._batch_size = max(1, batch_size)
        self._initial_parts = self.router.partition_initial_db(initial_db)
        self._options = dict(verifier_kwargs)
        self._options["gc_every"] = gc_every
        self._session_order = session_order
        self._txns: Dict[str, _TxnRecord] = {}
        #: committed transactions in stream order, (trace_index, txn), that
        #: the merger has not replayed yet
        self._commits: List[Tuple[int, str]] = []
        self._trace_index = 0
        self._txns_committed = 0
        self._txns_aborted = 0
        self._finished = False
        self._report: Optional[VerificationReport] = None
        self._workers: List = []
        self._conns: List = []
        self._buffers: List[List] = [[] for _ in range(shards)]
        self._inline: List[ShardVerifier] = []
        #: dispatch-order before-timestamp watermark and the active
        #: transactions' first-op pins -- together they reproduce the
        #: serial :meth:`VerifierState.earliest_unverified_snapshot` at
        #: every dispatched trace, which is the horizon streamed GC prunes at.
        self._ts_watermark = float("-inf")
        self._active_heap: List[Tuple[float, str]] = []
        #: per-trace ``(index, S_e)`` dispatch records; the merger prices
        #: replay-state collections off these (and consumes them), so the
        #: prune schedule is a pure function of the trace stream rather
        #: than of segment arrival timing.
        self._horizon_log: "deque" = deque()
        self._merger: Optional[_StreamMerger] = None
        self._rx_queue: Optional[queue.SimpleQueue] = None
        self._drainer: Optional[threading.Thread] = None
        #: each shard's terminal reply: its result, or what went wrong.
        self._stream_results: Dict[int, ShardResult] = {}
        self._stream_errors: Dict[int, str] = {}
        self._m_segments = self.metrics.counter("parallel.stream.segments")
        self._m_stream_bytes = self.metrics.counter("parallel.stream.bytes")
        self._m_overlap = self.metrics.histogram("parallel.merge.overlap.seconds")
        self._m_tx_frames = self.metrics.counter("parallel.transport.frames")
        self._m_tx_messages = self.metrics.counter("parallel.transport.messages")
        self._m_tx_bytes = self.metrics.counter("parallel.transport.bytes")
        self._m_tx_result_bytes = self.metrics.counter(
            "parallel.transport.result.bytes"
        )
        if backend == "inline":
            self._inline = [
                self._make_shard(shard) for shard in range(shards)
            ]

    def _shard_options(self, shard: int) -> Dict:
        options = dict(self._options)
        # Session-order edges are global facts; emitting them from every
        # shard would multiply them in the merged graph, so shard 0 owns
        # them (every shard sees every terminal, so its view is complete).
        options["session_order"] = self._session_order and shard == 0
        options["metrics_enabled"] = self.metrics.enabled
        return options

    def _make_shard(self, shard: int) -> ShardVerifier:
        return ShardVerifier(
            shard_id=shard,
            spec=self.spec,
            initial_db=self._initial_parts[shard],
            **self._shard_options(shard),
        )

    # -- worker lifecycle ---------------------------------------------------------

    def _ensure_workers(self) -> None:
        if self._workers or self._backend != "process":
            return
        ctx = _make_context()
        for shard in range(self.router.shards):
            parent_conn, child_conn = ctx.Pipe()
            options = self._shard_options(shard)
            options["stream_segment_events"] = self._segment_events
            proc = ctx.Process(
                target=_shard_worker_main,
                args=(
                    child_conn,
                    shard,
                    self.spec,
                    self._initial_parts[shard],
                    options,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._workers.append(proc)
            self._conns.append(parent_conn)
        # Workers push segments whenever their journal fills; a dedicated
        # drainer keeps every pipe's read side moving so a worker can never
        # block sending a segment while the coordinator blocks sending it a
        # frame (started only after every fork -- threads do not survive
        # os.fork).
        self._rx_queue = queue.SimpleQueue()
        self._drainer = threading.Thread(
            target=self._drain_main,
            args=(list(self._conns), self._rx_queue),
            name="parallel-segment-drainer",
            daemon=True,
        )
        self._drainer.start()

    @staticmethod
    def _drain_main(conns: List, rx: "queue.SimpleQueue") -> None:
        """Forward every worker payload into the coordinator queue as
        ``(shard, payload)``; ``(shard, None)`` marks the end of a pipe.

        The worker protocol is segments, then exactly one result/error
        frame, then EOF -- so the drainer needs no frame inspection: it
        reads until each pipe closes.  Every pipe gets its end mark, even
        if this thread is stopped by something unforeseen, so whoever
        waits on the queue for a shard's last word never waits forever.
        """
        live = {conn: shard for shard, conn in enumerate(conns)}
        try:
            while live:
                for conn in _mp_connection.wait(list(live)):
                    try:
                        rx.put((live[conn], conn.recv_bytes()))
                    except (EOFError, OSError):
                        rx.put((live.pop(conn), None))
        finally:
            for shard in live.values():
                rx.put((shard, None))

    def _send(self, shard: int, message) -> None:
        if self._backend == "inline":
            sv = self._inline[shard]
            if message[0] == MSG_BEGIN:
                sv.begin(message[1], message[2], message[3])
            else:
                sv.ingest(message[1], message[2])
            return
        buffer = self._buffers[shard]
        buffer.append(message)
        if len(buffer) >= self._batch_size:
            self._send_frame(shard, buffer)
            buffer.clear()

    def _horizon(self) -> float:
        """Definition 4's ``S_e`` at the current stream position, computed
        exactly as the serial ``earliest_unverified_snapshot``: the
        dispatch watermark floored by active transactions' first-operation
        pins (a lazy heap -- finished entries pop on first sight)."""
        heap = self._active_heap
        txns = self._txns
        while heap and txns[heap[0][1]].status is not TxnStatus.ACTIVE:
            heapq.heappop(heap)
        if heap and heap[0][0] < self._ts_watermark:
            return heap[0][0]
        return self._ts_watermark

    def _send_frame(self, shard: int, buffer: List) -> None:
        # A message that does not pickle is refused here, before any part
        # of its frame reaches the worker.
        frame = _frame((self._trace_index - 1, buffer))
        try:
            self._conns[shard].send_bytes(frame)
        except (BrokenPipeError, OSError):
            # The worker died; its error frame is already in the pipe (or
            # the drainer queue) and surfaces at collect time.  Dropping
            # the send keeps intake alive long enough to reach it.
            return
        self._m_tx_frames.inc()
        self._m_tx_messages.inc(len(buffer))
        self._m_tx_bytes.inc(len(frame))

    def _flush(self) -> None:
        if self._backend != "process":
            return
        for shard, buffer in enumerate(self._buffers):
            if buffer:
                self._send_frame(shard, buffer)
                buffer.clear()

    # -- streaming merge plumbing ---------------------------------------------------

    def _ensure_merger(self) -> _StreamMerger:
        if self._merger is None:
            self._merger = _StreamMerger(
                spec=self.spec,
                shards=self.router.shards,
                txns=self._txns,
                commits=self._commits,
                gc_every=self._options.get("gc_every", 512),
                metrics=self.metrics,
                horizon_log=self._horizon_log,
            )
        return self._merger

    def _handle_reply(self, shard: int, payload: Optional[bytes]) -> None:
        """One item off the drainer's queue: a reply ``shard``'s worker
        wrote to its pipe, or ``None`` for the end of that pipe."""
        if payload is None:
            if shard not in self._stream_results:
                self._stream_errors.setdefault(shard, "exited without a reply")
            return
        try:
            status, value = pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001 - whatever garbage raises
            self._stream_errors[shard] = (
                f"sent a reply that does not unpickle ({exc!r})"
            )
            return
        if status == "segment":
            self._m_segments.inc()
            self._m_stream_bytes.inc(len(payload))
            merger = self._ensure_merger()
            merger.offer(shard, value.watermark, value.events)
            with self._m_overlap.time():
                merger.advance()
        elif status == "ok":
            self._stream_results[shard] = value
            self._m_tx_result_bytes.inc(len(payload))
        else:
            self._stream_errors[shard] = "raised:\n" + value

    def _pump(self) -> None:
        """Drain whatever the segment drainer has queued (non-blocking);
        called from the intake path so replay overlaps worker compute."""
        rx = self._rx_queue
        if rx is None:
            return
        while True:
            try:
                shard, payload = rx.get_nowait()
            except queue.Empty:
                return
            self._handle_reply(shard, payload)

    def _maybe_flush_inline(self) -> None:
        """Inline backend: shard verifiers run synchronously, so
        whenever any journal passes the budget every shard is flushed at
        the same (fully caught-up) watermark."""
        if not any(
            len(sv.events) >= self._segment_events for sv in self._inline
        ):
            return
        watermark = self._trace_index - 1
        merger = self._ensure_merger()
        for sv in self._inline:
            self._m_segments.inc()
            merger.offer(sv.shard_id, watermark, list(sv.events))
            sv.events.clear()
        with self._m_overlap.time():
            merger.advance()

    # -- trace intake -------------------------------------------------------------

    def process(self, trace: Trace) -> None:
        """Route one dispatched trace: a batch of one."""
        self.process_batch((trace,))

    def process_batch(self, traces: Iterable[Trace]) -> None:
        """The routing loop: register each trace's transaction (its first
        trace broadcasts a begin), stamp the trace with its global index,
        record the dispatch-time GC horizon and send every shard its part.
        A refused trace raises before it changed anything, so the
        coordinator is left as the traces in front of it left it."""
        if self._finished:
            raise RuntimeError("verifier already finished")
        self._ensure_workers()
        txns = self._txns
        shards = range(self.router.shards)
        split = self.router.split
        send = self._send
        active = TxnStatus.ACTIVE
        commit_kind = OpKind.COMMIT
        try:
            for trace in traces:
                txn_id = trace.txn_id
                record = txns.get(txn_id)
                if record is None:
                    record = _TxnRecord(
                        client_id=trace.client_id, first_interval=trace.interval
                    )
                    txns[txn_id] = record
                    heapq.heappush(
                        self._active_heap, (trace.interval.ts_bef, txn_id)
                    )
                    begin = (MSG_BEGIN, txn_id, trace.client_id, trace.interval)
                    for shard in shards:
                        send(shard, begin)
                elif record.status is not active:
                    raise RefusedTrace(trace)
                self._ts_watermark = trace.interval.ts_bef
                index = self._trace_index
                self._trace_index = index + 1
                if trace.is_terminal:
                    record.terminal_interval = trace.interval
                    if trace.kind is commit_kind:
                        record.status = TxnStatus.COMMITTED
                        self._txns_committed += 1
                        self._commits.append((index, txn_id))
                    else:
                        record.status = TxnStatus.ABORTED
                        self._txns_aborted += 1
                self._horizon_log.append((index, self._horizon()))
                for shard, part in split(trace).items():
                    send(shard, (MSG_TRACE, index, part))
        finally:
            if self._inline:
                self._maybe_flush_inline()
            else:
                self._pump()

    def process_all(self, traces: Iterable[Trace]) -> "ParallelVerifier":
        for batch in batches(traces):
            self.process_batch(batch)
        return self

    # -- completion ---------------------------------------------------------------

    def _collect(self) -> List[ShardResult]:
        if self._backend == "inline":
            return [shard.finish_shard() for shard in self._inline]
        self._ensure_workers()
        self._flush()
        for conn in self._conns:
            try:
                conn.send_bytes(b"")
            except (BrokenPipeError, OSError):
                pass  # dead worker; its error frame surfaces below
        # Every shard's last word is a result, a traceback or the end of
        # its pipe (a killed worker closes it), so this wait is bounded by
        # the work the live workers have left; segments still in flight
        # are replayed along the way.
        results, errors = self._stream_results, self._stream_errors
        while len(results.keys() | errors.keys()) < self.router.shards:
            self._handle_reply(*self._rx_queue.get())
        for proc in self._workers:
            proc.join()
        self._drainer.join()
        for conn in self._conns:
            conn.close()
        if errors:
            raise RuntimeError(
                "shard worker failed:\n"
                + "\n".join(
                    f"shard worker {shard} {error}"
                    for shard, error in sorted(errors.items())
                )
            )
        return [results[shard] for shard in sorted(results)]

    def finish(self) -> VerificationReport:
        if self._report is not None:
            return self._report
        self._finished = True
        self._report = self._merge(self._collect())
        return self._report

    # -- merge: global certification over the journaled event stream ---------------

    def _merge(self, results: List[ShardResult]) -> VerificationReport:
        """Only the journal residue past the last merged watermark remains
        to replay; everything else was certified during the run."""
        if self.metrics.enabled:
            self._absorb_shard_metrics(results)
        with self.metrics.timer("parallel.merge.seconds"):
            merger = self._ensure_merger()
            for result in results:
                merger.add_residual(result.shard_id, result.events)
            descriptor = merger.finalize()
        stats = self._merge_stats([result.stats for result in results])
        return VerificationReport(
            descriptor=descriptor, stats=stats, isolation_level=self.spec.name
        )

    def _absorb_shard_metrics(self, results: List[ShardResult]) -> None:
        for result in results:
            self.metrics.merge_snapshot(result.metrics)
            self.metrics.set_gauge(
                "parallel.shard.seconds",
                result.wall_seconds,
                shard=result.shard_id,
            )
            self.metrics.set_gauge(
                "parallel.shard.journal.events",
                result.journal_total,
                shard=result.shard_id,
            )

    def _merge_stats(
        self, shard_stats: List[VerificationStats]
    ) -> VerificationStats:
        """Every field of the dataclass is a per-key tally and sums over
        the shards, except the :data:`_COORDINATOR_OWNED` three."""
        merged = VerificationStats(
            traces_processed=self._trace_index,
            txns_committed=self._txns_committed,
            txns_aborted=self._txns_aborted,
        )
        for stats in shard_stats:
            for stat in dataclasses.fields(stats):
                name = stat.name
                if name in _COORDINATOR_OWNED:
                    continue
                setattr(merged, name, getattr(merged, name) + getattr(stats, name))
        return merged

    # -- memory surface ---------------------------------------------------------------

    def live_structure_count(self) -> int:
        """Total retained structures across shard states (inline backend;
        the process backend's memory lives in the workers, so only the
        coordinator-side registry is counted), plus the replay state and
        the buffered journal (the structures whose flatness the streamed
        GC is responsible for)."""
        if self._inline:
            total = sum(
                shard.state.live_structure_count() for shard in self._inline
            )
        else:
            total = len(self._txns)
        if self._merger is not None:
            total += self._merger.state.live_structure_count()
            total += self._merger.pending_events()
        return total


def verify_traces_parallel(
    traces: Iterable[Trace],
    spec: IsolationSpec = PG_SERIALIZABLE,
    initial_db: Optional[Mapping[Key, Mapping[str, object]]] = None,
    shards: int = 4,
    backend: str = "process",
    **kwargs,
) -> VerificationReport:
    """One-shot parallel counterpart of
    :func:`~repro.core.verifier.verify_traces`."""
    verifier = ParallelVerifier(
        spec=spec, initial_db=initial_db, shards=shards, backend=backend, **kwargs
    )
    verifier.process_all(traces)
    return verifier.finish()
