"""Two-level pipeline for sorting massive trace streams (Section IV-C).

Clients generate traces concurrently; each client's own stream is naturally
sorted by before-timestamp, but the union is not.  The verifier needs the
union in monotonically increasing ``ts_bef`` order (Theorem 1).  The paper's
*two-level pipeline* achieves this with:

* a **local buffer** per client that batches its stream asynchronously, and
* a **global buffer** that fetches batches from the local buffers round by
  round, dispatching every trace below the **watermark** -- the smallest
  trace still sitting in any local buffer.

Two optimisations from the paper are implemented and individually
switchable (they are compared in the Fig. 10 experiment):

1. *laggard-first fetching*: fetch from the local buffer with the smallest
   head timestamp first, so one slow client cannot stall the watermark while
   traces from fast clients pile up in the global buffer;
2. *flow control*: fetch roughly as many traces into the global buffer as
   were dispatched out of it, keeping its size stable.

The global buffer holds **sorted runs**: each client batch arrives already
sorted (the paper's Tracer slices per-client streams, Section IV-C), so
the fetch stage keeps whole batches as *runs* and every dispatch round
splices the run prefixes below the watermark with one bisect per run and
merges them in a single k-way pass.  When only one run has an eligible
prefix -- the common case under flow control -- the spliced slice is
dispatched wholesale with no comparison work at all.

The watermark is a ``(ts_bef, trace_id)`` pair, the pipeline's sort key:
a staged trace that ties the smallest buffered before-timestamp is held
back while a lower-id trace with that timestamp still sits in a local
buffer, so the output equals the global ``(ts_bef, trace_id)`` sort for
every batch size.

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


class ClientFeed:
    """Adapter exposing one client's trace stream batch by batch.

    The wrapped iterable must yield traces in non-decreasing ``ts_bef``
    order -- which is guaranteed for any single client, since a client
    observes its own operations sequentially.  ``batch_size`` models the
    paper's slicing of each client stream into batches (the experiments use
    0.5 s windows; a count works identically for a simulator).
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
    """Bookkeeping for the Fig. 10 experiment."""

    dispatched: int = 0
    rounds: int = 0
    peak_heap_size: int = 0
    peak_buffered: int = 0
    fetches: int = 0
    #: runs that went through a k-way merge, and single-run fast-path
    #: dispatches.
    runs_merged: int = 0
    fastpath_runs: int = 0

    def observe(self, heap_size: int, buffered: int) -> None:
        self.peak_heap_size = max(self.peak_heap_size, heap_size)
        self.peak_buffered = max(self.peak_buffered, heap_size + buffered)


class _LocalBuffer:
    """Per-client staging area between the client feed and the global
    buffer."""

    __slots__ = ("feed", "pending", "pending_ts")

    def __init__(self, feed: ClientFeed):
        self.feed = feed
        self.pending: List[Trace] = []
        self.pending_ts: List[float] = []

    def refill(self) -> None:
        if not self.pending and not self.feed.exhausted:
            self.pending, self.pending_ts = self.feed.next_batch_ts()

    @property
    def head_ts(self) -> float:
        """Before-timestamp of the oldest staged trace (+inf when drained)."""
        if self.pending_ts:
            return self.pending_ts[0]
        return POS_INF

    @property
    def done(self) -> bool:
        return not self.pending and self.feed.exhausted


class _Run:
    """One fetched client batch staged in the global buffer.  ``ts`` is
    the parallel before-timestamp key array captured at batch time; ``lo``
    is the consumed-prefix cursor: splicing advances it instead of copying
    the tail, so a run is sliced at most once per dispatch round and
    dropped when fully consumed."""

    __slots__ = ("items", "ts", "lo")

    def __init__(self, items: List[Trace], ts: List[float]):
        self.items = items
        self.ts = ts
        self.lo = 0

    def __len__(self) -> int:
        return len(self.items) - self.lo


def prefix_below(
    items: List[Trace], ts: List[float], lo: int, bound: Tuple[float, float]
) -> int:
    """End of the prefix of a sorted run (from ``lo``) strictly below
    ``bound``, a ``(ts_bef, trace_id)`` pair: one bisect finds the traces
    below the bound's timestamp, and traces tied with it join while their
    id is smaller."""
    bound_ts, bound_id = bound
    end = len(ts)
    hi = bisect_left(ts, bound_ts, lo, end)
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


class TwoLevelPipeline:
    """Round-by-round trace dispatcher (Algorithm 1).

    Iterating over the pipeline yields all client traces in ``(ts_bef,
    trace_id)`` order.  ``optimized=False`` disables the laggard-first
    fetching and flow control (the "w/o Opt" configuration of Fig. 10); the
    watermark protocol itself is always on, since it is what makes the
    output order correct.
    """

    def __init__(
        self,
        feeds: Sequence[ClientFeed],
        optimized: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if not feeds:
            raise ValueError("pipeline needs at least one client feed")
        self._locals = [_LocalBuffer(feed) for feed in feeds]
        self._optimized = optimized
        self._last_dispatched_ts = -POS_INF
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

    def _watermark(self) -> Tuple[float, float]:
        """``(ts_bef, trace_id)`` of the smallest trace still in a local
        buffer; ``(+inf, +inf)`` when every buffer is empty."""
        ts = trace_id = POS_INF
        for buf in self._locals:
            if buf.pending_ts:
                head_ts = buf.pending_ts[0]
                if head_ts < ts or (
                    head_ts == ts and buf.pending[0].trace_id < trace_id
                ):
                    ts = head_ts
                    trace_id = buf.pending[0].trace_id
        return ts, trace_id

    def _buffered(self) -> int:
        return sum(len(buf.pending) for buf in self._locals)

    def _observe_round(self, staged: int) -> None:
        """Per-round gauges/histograms (instrumented runs only): global
        buffer size (staged run traces), per-client staged depth, and the
        watermark lag -- how far ahead of the watermark fetched traces have
        piled up while a laggard client holds dispatch back."""
        self._m_heap.observe(staged)
        for index, buf in enumerate(self._locals):
            self._metrics.gauge(
                "pipeline.client.depth", client=index
            ).high_watermark(len(buf.pending))
        if staged:
            lag = self._max_pushed_ts - self._watermark()[0]
            if lag > 0:
                self._m_lag.high_watermark(lag)

    def _all_done(self) -> bool:
        return all(buf.done for buf in self._locals)

    def _fetch_round(self, runs: List[_Run]) -> None:
        """One fetch stage: stage each fetched batch as one sorted run and
        restage its local buffer.

        The unoptimised variant drains every local buffer each round.  The
        optimised variant fetches laggard-first and stops once it has moved
        roughly as many traces as the previous round dispatched, keeping
        the global buffer bounded by the dispatch rate.
        """
        self.stats.rounds += 1
        instrumented = self._metrics.enabled
        if instrumented:
            fetch_start = time.perf_counter()
        buffers = [buf for buf in self._locals if not buf.done]
        for buf in buffers:
            buf.refill()
        buffers = [buf for buf in self._locals if buf.pending]
        if self._optimized:
            buffers.sort(key=lambda buf: buf.head_ts)
            budget = max(self._last_round_dispatched, 1)
        else:
            budget = POS_INF
        fetched = 0
        for buf in buffers:
            take, take_ts = buf.pending, buf.pending_ts
            buf.pending = []
            buf.pending_ts = []
            runs.append(_Run(take, take_ts))
            if take_ts[-1] > self._max_pushed_ts:
                self._max_pushed_ts = take_ts[-1]
            fetched += len(take)
            self.stats.fetches += 1
            buf.refill()
            if fetched >= budget:
                break
        staged = sum(len(run) for run in runs)
        self.stats.observe(staged, self._buffered())
        self._last_round_dispatched = 0
        if instrumented:
            self._m_fetch.observe(time.perf_counter() - fetch_start)
            self._observe_round(staged)

    def _splice_runs(
        self, runs: List[_Run], bound: Tuple[float, float]
    ) -> List[Trace]:
        """Dispatch every staged trace below ``bound``, a ``(ts_bef,
        trace_id)`` pair: :func:`prefix_below` per run, a single-run fast
        path that extends the output wholesale, and :func:`merge_runs` for
        the k-way case.

        Runs are sorted by that key because a client's batch is created in
        stream order (ids are assigned monotonically at construction, and
        stamped ``client_id << SEQ_BITS | seq`` at decode), which the tie
        walk, the k-way merge and the fast path all rely on.
        """
        eligible: List[Tuple[_Run, int]] = []
        for run in runs:
            hi = prefix_below(run.items, run.ts, run.lo, bound)
            if hi > run.lo:
                eligible.append((run, hi))
        if not eligible:
            return []
        if len(eligible) == 1:
            run, hi = eligible[0]
            out = run.items[run.lo : hi]
            run.lo = hi
            self.stats.fastpath_runs += 1
            self._m_fastpath.inc()
        else:
            slices = []
            for run, hi in eligible:
                slices.append((run.items[run.lo : hi], run.ts[run.lo : hi]))
                run.lo = hi
            out = merge_runs(slices)
            self.stats.runs_merged += len(eligible)
            self._m_runs_merged.inc(len(eligible))
        consumed = any(run.lo >= len(run.items) for run, _ in eligible)
        if consumed:
            runs[:] = [run for run in runs if run.lo < len(run.items)]
        if out[0].ts_bef < self._last_dispatched_ts:
            raise AssertionError(
                "pipeline dispatched out of order"
            )  # pragma: no cover - guarded by Theorem 1
        self._last_dispatched_ts = out[-1].ts_bef
        dispatched = len(out)
        self.stats.dispatched += dispatched
        self._last_round_dispatched += dispatched
        self._m_dispatched.inc(dispatched)
        self._m_splice.observe(dispatched)
        return out

    # -- public API ---------------------------------------------------------

    def close(self) -> None:
        """Close every client feed: an abandoned or failed run must not
        leave capture files open behind it."""
        for buf in self._locals:
            buf.feed.close()

    def __iter__(self) -> Iterator[Trace]:
        for batch in self.iter_batches():
            yield from batch

    def iter_batches(self) -> Iterator[List[Trace]]:
        """Algorithm 1 over sorted runs: each yielded list is one dispatch
        round's below-watermark splice, in dispatch order -- the natural
        unit for :meth:`Verifier.process_batch` feeding."""
        for buf in self._locals:
            buf.refill()
        runs: List[_Run] = []
        self.stats.observe(0, self._buffered())
        while True:
            batch = self._splice_runs(runs, self._watermark())
            if batch:
                yield batch
            if self._all_done():
                # Drain: every feed is exhausted, merge whatever is staged.
                batch = self._splice_runs(runs, (POS_INF, POS_INF))
                if batch:
                    yield batch
                return
            self._fetch_round(runs)


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
                self.stats.fetches += 1
        self.stats.peak_heap_size = len(everything)
        self.stats.peak_buffered = len(everything)
        everything.sort(key=Trace.sort_key)
        self.stats.rounds = 1
        for trace in everything:
            self.stats.dispatched += 1
            yield trace


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
