"""Two-level pipeline for sorting massive trace streams (Section IV-C).

Clients generate traces concurrently; each client's own stream is naturally
sorted by before-timestamp, but the union is not.  The verifier needs the
union in monotonically increasing ``ts_bef`` order (Theorem 1).  The paper's
*two-level pipeline* achieves this with:

* a **local buffer** per client -- the one-batch look-ahead a
  :class:`ClientFeed` keeps -- and
* a **global buffer** (:class:`GlobalBuffer`) that stages fetched batches
  per client and releases every staged trace that sorts below every
  *other* client's **mark**: the ``(ts_bef, trace_id)`` pair -- the
  pipeline's sort key -- below which that client will stage nothing more.

The global buffer is the one place the dispatch order is decided.
:class:`TwoLevelPipeline` drives it by pulling: a client's mark is the
head of its look-ahead, ``(inf, inf)`` once its feed is exhausted.
:class:`~repro.core.online.OnlineVerifier` drives it by pushing: a
client's mark is its last staged trace, or ``(now, -inf)`` after a
heartbeat.  A release is one bisect per client (:func:`prefix_below`) and
one merge over the eligible prefixes (:func:`merge_runs`); a single
eligible prefix is released as it stands.  Because marks are pairs, a
staged trace that ties another client's mark waits while that client could
still stage a lower id at the same timestamp, so the output equals the
global ``(ts_bef, trace_id)`` sort for every batch size.

Two optimisations from the paper are implemented and individually
switchable (they are compared in the Fig. 10 experiment):

1. *laggard-first fetching*: fetch from the local buffer with the smallest
   head timestamp first, so one slow client cannot stall the watermark while
   traces from fast clients pile up in the global buffer;
2. *flow control*: fetch roughly as many traces into the global buffer as
   were dispatched out of it, keeping its size stable.

A :class:`NaiveGlobalSorter` baseline (collect everything, sort once) is
provided for the same comparison.
"""

from __future__ import annotations

import operator
import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .intervals import POS_INF
from .metrics import NULL_REGISTRY, MetricsRegistry
from .trace import Trace


_trace_id = operator.attrgetter("trace_id")

#: a ``(ts_bef, trace_id)`` pair, the pipeline's sort key.
Mark = Tuple[float, float]


class ClientFeed:
    """Adapter exposing one client's trace stream batch by batch.

    The wrapped iterable must yield traces in non-decreasing ``ts_bef``
    order -- which is guaranteed for any single client, since a client
    observes its own operations sequentially.  ``batch_size`` models the
    paper's slicing of each client stream into batches (the experiments use
    0.5 s windows; a count works identically for a simulator).

    The feed is also the client's local buffer: :meth:`refill` pulls the
    next batch ahead into :attr:`pending`, whose head is the client's
    :attr:`mark`, and :meth:`take` hands it to the global buffer.
    """

    def __init__(
        self,
        traces: Iterable[Trace],
        batch_size: int = 64,
        client_id: Optional[int] = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._iter = iter(traces)
        self._batch_size = batch_size
        self._exhausted = False
        self._last_ts = -POS_INF
        self._client_id = client_id
        self._consumed = 0
        self.pending: List[Trace] = []
        self.pending_ts: List[float] = []

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    def next_batch(self) -> List[Trace]:
        """Return up to ``batch_size`` traces; empty means exhausted."""
        return self.next_batch_ts()[0]

    def next_batch_ts(self) -> Tuple[List[Trace], List[float]]:
        """One batch plus its parallel ``ts_bef`` key array.

        The timestamps are needed anyway (monotonicity validation), so
        capturing them lets the pipeline bisect and merge over plain float
        lists instead of re-reading the ``ts_bef`` property per probe.
        The whole batch is sliced and validated with C-level passes; the
        per-trace scan only runs on the failure path to name the offender.
        """
        batch = list(islice(self._iter, self._batch_size))
        if len(batch) < self._batch_size:
            self._exhausted = True
        if not batch:
            return batch, []
        batch_ts = [t.interval.ts_bef for t in batch]
        if batch_ts[0] < self._last_ts or batch_ts != sorted(batch_ts):
            self._raise_unsorted(batch_ts)
        self._last_ts = batch_ts[-1]
        self._consumed += len(batch)
        return batch, batch_ts

    def refill(self) -> None:
        """Pull the next batch into the look-ahead unless it still holds
        one (or the stream is exhausted)."""
        if not self.pending and not self._exhausted:
            self.pending, self.pending_ts = self.next_batch_ts()

    def take(self) -> Tuple[List[Trace], List[float]]:
        """Hand out the look-ahead batch and pull the next one."""
        batch = self.pending, self.pending_ts
        self.pending, self.pending_ts = [], []
        self.refill()
        return batch

    @property
    def mark(self) -> Mark:
        """``(ts_bef, trace_id)`` of the look-ahead's head -- nothing this
        client has yet to hand out sorts below it -- or ``(inf, inf)``
        once the stream is drained."""
        if self.pending:
            return self.pending_ts[0], self.pending[0].trace_id
        return POS_INF, POS_INF

    def close(self) -> None:
        """Release the wrapped stream early (a lazy capture stream holds
        its file open until exhausted); a no-op for plain sequences."""
        close = getattr(self._iter, "close", None)
        if close is not None:
            close()

    def _raise_unsorted(self, batch_ts: List[float]) -> None:
        last_ts = self._last_ts
        for offset, ts in enumerate(batch_ts):
            if ts < last_ts:
                who = (
                    f"client {self._client_id}"
                    if self._client_id is not None
                    else "client"
                )
                raise ValueError(
                    f"{who} stream is not sorted by before-timestamp at "
                    f"trace index {self._consumed + offset}: "
                    f"{ts} after {last_ts}"
                )
            last_ts = ts
        raise AssertionError("unreachable")  # pragma: no cover


@dataclass
class PipelineStats:
    """Fig. 10's memory axis: the peak of traces held at once, staged in
    the global buffer plus looked ahead in the client feeds.  What the
    pipeline dispatched, merged and staged per round is counted by the
    ``pipeline.*`` instruments of an instrumented run."""

    peak_buffered: int = 0

    def observe(self, held: int) -> None:
        if held > self.peak_buffered:
            self.peak_buffered = held


def prefix_below(items: List[Trace], ts: List[float], bound: Mark) -> int:
    """End of the prefix of a sorted run strictly below ``bound``, a
    ``(ts_bef, trace_id)`` pair: one bisect finds the traces below the
    bound's timestamp, and traces tied with it join while their id is
    smaller."""
    bound_ts, bound_id = bound
    end = len(ts)
    hi = bisect_left(ts, bound_ts)
    while hi < end and ts[hi] == bound_ts and items[hi].trace_id < bound_id:
        hi += 1
    return hi


def merge_runs(runs: List[Tuple[List[Trace], List[float]]]) -> List[Trace]:
    """K-way merge of sorted runs -- ``(traces, their ts_bef)`` pairs -- by
    ``(ts_bef, trace_id)``.

    The runs are concatenated and the positions stable-sorted on the
    timestamp array: Timsort finds the pre-sorted runs and gallops through
    them, so the merge is one C-level pass with no per-trace Python step.
    Stability keeps each run's own order; only when a timestamp repeats can
    two runs tie, and then the full ``(ts_bef, trace_id)`` pair is the key.
    """
    items: List[Trace] = []
    stamps: List[float] = []
    for run_items, run_ts in runs:
        items += run_items
        stamps += run_ts
    key = stamps.__getitem__
    if len(set(stamps)) != len(stamps):
        key = list(zip(stamps, map(_trace_id, items))).__getitem__
    return [items[i] for i in sorted(range(len(items)), key=key)]


class _Stage:
    """One client's part of the global buffer: its staged traces in stream
    order, their parallel ``ts_bef`` array, and its mark."""

    __slots__ = ("items", "ts", "mark")

    def __init__(self) -> None:
        self.items: List[Trace] = []
        self.ts: List[float] = []
        self.mark: Mark = (-POS_INF, -POS_INF)


class GlobalBuffer:
    """Algorithm 1's global buffer, one stage per client, and the one
    structure that decides the dispatch order.

    A staged trace may go once it sorts below every *other* client's mark
    (its own client's later traces follow it anyway), so each stage's
    bound is the smallest mark among the others: the smallest mark
    overall, or the second smallest for the stage that holds it.  The
    drivers own everything else: where traces and marks come from, and
    what happens to a released batch.  A client's traces must arrive in
    ``(ts_bef, trace_id)`` order -- a stream is monotone and its ids
    ascend (they are stamped ``client_id << SEQ_BITS | seq`` at decode) --
    which the tie walk and the merge rely on.
    """

    def __init__(self) -> None:
        self.stages: Dict[int, _Stage] = {}
        #: ``(ts_bef, trace_id)`` of the last trace released: the point of
        #: no return -- nothing below it can be merged soundly any more.
        self.emitted: Mark = (-POS_INF, -POS_INF)

    def __len__(self) -> int:
        """Traces staged and not yet released."""
        return sum(len(stage.items) for stage in self.stages.values())

    def join(self, client: int) -> _Stage:
        """Add a client at mark ``(-inf, -inf)``: it holds every other
        client back until it stages a trace or vouches for progress."""
        stage = self.stages[client] = _Stage()
        return stage

    def stage(
        self, client: int, items: Sequence[Trace], ts: List[float], mark: Mark
    ) -> None:
        """Append a run of ``client``'s traces and move its mark."""
        stage = self.stages[client]
        stage.items += items
        stage.ts += ts
        stage.mark = mark

    def watermark(self) -> float:
        """Timestamp of the smallest mark -- the dispatch bound (-inf
        while no client has joined)."""
        return min(
            (stage.mark[0] for stage in self.stages.values()), default=-POS_INF
        )

    def client_mark(self, client: int) -> float:
        """Timestamp of one client's mark (+inf for a client that is not
        staged -- it cannot hold the watermark back)."""
        stage = self.stages.get(client)
        return stage.mark[0] if stage is not None else POS_INF

    def release(self) -> Tuple[List[Trace], int]:
        """Take every staged trace the other clients' marks cover, merged
        in ``(ts_bef, trace_id)`` order, with the number of clients the
        release drew from (``([], 0)`` when nothing is covered).

        One :func:`prefix_below` per stage finds its covered prefix; one
        prefix is released as it stands, several go through
        :func:`merge_runs`.  That is the fixpoint of a k-way merge that
        stops at the first client it must wait for, so releasing again
        without a mark moving releases nothing.
        """
        lowest = second = (POS_INF, POS_INF)
        holder = None
        for client, stage in self.stages.items():
            mark = stage.mark
            if mark < lowest:
                second, lowest, holder = lowest, mark, client
            elif mark < second:
                second = mark
        runs = []
        for client, stage in self.stages.items():
            items, ts = stage.items, stage.ts
            hi = prefix_below(items, ts, second if client == holder else lowest)
            if hi:
                runs.append((items[:hi], ts[:hi]))
                del items[:hi], ts[:hi]
        if not runs:
            return [], 0
        out = runs[0][0] if len(runs) == 1 else merge_runs(runs)
        if (out[0].ts_bef, out[0].trace_id) < self.emitted:
            raise AssertionError(
                "pipeline dispatched out of order"
            )  # pragma: no cover - guarded by Theorem 1
        self.emitted = out[-1].ts_bef, out[-1].trace_id
        return out, len(runs)


class TwoLevelPipeline:
    """Round-by-round trace dispatcher (Algorithm 1): the pull driver of
    a :class:`GlobalBuffer`.

    Iterating over the pipeline yields all client traces in ``(ts_bef,
    trace_id)`` order.  ``optimized=False`` disables the laggard-first
    fetching and flow control (the "w/o Opt" configuration of Fig. 10); the
    marks themselves are always on, since they are what makes the output
    order correct.
    """

    def __init__(
        self,
        feeds: Sequence[ClientFeed],
        optimized: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if not feeds:
            raise ValueError("pipeline needs at least one client feed")
        self._feeds = list(feeds)
        self._buffer = GlobalBuffer()
        for index in range(len(self._feeds)):
            self._buffer.join(index)
        self._optimized = optimized
        self._last_round_dispatched = 0
        self.stats = PipelineStats()
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_fetch = self._metrics.histogram("pipeline.fetch.seconds")
        self._m_heap = self._metrics.histogram("pipeline.heap.size")
        self._m_dispatched = self._metrics.counter("pipeline.traces.dispatched")
        self._m_lag = self._metrics.gauge("pipeline.watermark.lag")
        self._m_runs_merged = self._metrics.counter("pipeline.run.merged")
        self._m_fastpath = self._metrics.counter("pipeline.run.fastpath")
        self._m_splice = self._metrics.histogram("pipeline.run.splice.size")
        self._max_pushed_ts = -POS_INF

    # -- internals ---------------------------------------------------------

    def _buffered(self) -> int:
        return sum(len(feed.pending) for feed in self._feeds)

    def _observe_round(self, staged: int) -> None:
        """Per-round gauges/histograms (instrumented runs only): global
        buffer size (staged traces), per-client look-ahead depth, and the
        watermark lag -- how far ahead of the watermark fetched traces have
        piled up while a laggard client holds dispatch back."""
        self._m_heap.observe(staged)
        for index, feed in enumerate(self._feeds):
            self._metrics.gauge(
                "pipeline.client.depth", client=index
            ).high_watermark(len(feed.pending))
        if staged:
            lag = self._max_pushed_ts - self._buffer.watermark()
            if lag > 0:
                self._m_lag.high_watermark(lag)

    def _fetch_round(self) -> None:
        """One fetch stage: move look-ahead batches into the global buffer,
        each client's mark following its next head.

        The unoptimised variant drains every local buffer each round.  The
        optimised variant fetches laggard-first and stops once it has moved
        roughly as many traces as the previous round dispatched, keeping
        the global buffer bounded by the dispatch rate.
        """
        instrumented = self._metrics.enabled
        if instrumented:
            fetch_start = time.perf_counter()
        order = [index for index, feed in enumerate(self._feeds) if feed.pending]
        if self._optimized:
            order.sort(key=lambda index: self._feeds[index].pending_ts[0])
            budget = max(self._last_round_dispatched, 1)
        else:
            budget = POS_INF
        fetched = 0
        for index in order:
            feed = self._feeds[index]
            take, take_ts = feed.take()
            self._buffer.stage(index, take, take_ts, feed.mark)
            if take_ts[-1] > self._max_pushed_ts:
                self._max_pushed_ts = take_ts[-1]
            fetched += len(take)
            if fetched >= budget:
                break
        staged = len(self._buffer)
        self.stats.observe(staged + self._buffered())
        self._last_round_dispatched = 0
        if instrumented:
            self._m_fetch.observe(time.perf_counter() - fetch_start)
            self._observe_round(staged)

    # -- public API ---------------------------------------------------------

    def close(self) -> None:
        """Close every client feed: an abandoned or failed run must not
        leave capture files open behind it."""
        for feed in self._feeds:
            feed.close()

    def __iter__(self) -> Iterator[Trace]:
        for batch in self.iter_batches():
            yield from batch

    def iter_batches(self) -> Iterator[List[Trace]]:
        """Algorithm 1: each yielded list is one round's release from the
        global buffer, in dispatch order -- the natural unit for
        :meth:`Verifier.process_batch` feeding.  Once every feed is
        drained every mark is ``(inf, inf)``, so that round's release is
        the rest of the buffer."""
        for index, feed in enumerate(self._feeds):
            feed.refill()
            self._buffer.stage(index, (), [], feed.mark)
        self.stats.observe(self._buffered())
        while True:
            batch, slices = self._buffer.release()
            if batch:
                if slices == 1:
                    self._m_fastpath.inc()
                else:
                    self._m_runs_merged.inc(slices)
                dispatched = len(batch)
                self._last_round_dispatched += dispatched
                self._m_dispatched.inc(dispatched)
                self._m_splice.observe(dispatched)
                yield batch
            if not any(feed.pending for feed in self._feeds):
                return
            self._fetch_round()


class NaiveGlobalSorter:
    """Baseline of Section VI-A: buffer every trace, sort once, replay.

    Memory is proportional to the whole history and nothing can be
    dispatched until every client stream has terminated -- the two
    properties Fig. 10 shows the pipeline avoiding.
    """

    def __init__(self, feeds: Sequence[ClientFeed]):
        self._feeds = list(feeds)
        self.stats = PipelineStats()

    def __iter__(self) -> Iterator[Trace]:
        everything: List[Trace] = []
        for feed in self._feeds:
            while not feed.exhausted:
                everything.extend(feed.next_batch())
        self.stats.observe(len(everything))
        everything.sort(key=Trace.sort_key)
        yield from everything


def pipeline_from_client_streams(
    streams: Dict[int, Iterable[Trace]],
    batch_size: int = 64,
    optimized: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> TwoLevelPipeline:
    """Convenience constructor from ``{client_id: traces}`` -- lists, or
    the lazy streams of :func:`repro.core.io.load_client_streams`, which
    each feed pulls ``batch_size`` traces at a time."""
    feeds = [
        ClientFeed(traces, batch_size=batch_size, client_id=client_id)
        for client_id, traces in sorted(streams.items())
    ]
    return TwoLevelPipeline(feeds, optimized=optimized, metrics=metrics)


def sorted_traces(streams: Dict[int, Sequence[Trace]]) -> List[Trace]:
    """Eagerly sort all traces (test helper / tiny histories)."""
    merged: List[Trace] = []
    for traces in streams.values():
        merged.extend(traces)
    merged.sort(key=Trace.sort_key)
    return merged
