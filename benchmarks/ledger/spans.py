"""Span ledger recorded from outside the program.

A :class:`Tracer` wraps the public hooks at each layer boundary with
class-level timing wrappers -- applied *before* any verifier is built,
because the verifier pre-binds its hook methods at construction.  One span
stack gives every span a name, start, end and parent; a span's *self* time
is its duration minus what its child spans cover, so the self times of
all spans under one root sum to that root's wall time.  No file under
``src/`` knows about any of this; in-program tracing is a later change.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, List, Tuple

#: the hooks the mechanism contract defines.  ``on_gc`` is left unwrapped on
#: purpose: it runs inside ``GarbageCollector.collect`` and has no row of
#: its own, so its time stays in ``gc.collect``.
MECHANISM_HOOKS = ("on_read", "on_write", "on_terminal", "on_dependency")


class Tracer:
    """Span stack plus per-name self-time and call-count aggregates.

    Every span is folded into the aggregates as it ends.  The spans
    themselves are kept (for :meth:`write_jsonl`) only when ``keep_spans``
    is set: holding a few hundred thousand tuples costs about a third of
    the tracing overhead, and nothing reads them otherwise."""

    def __init__(self, keep_spans: bool = False) -> None:
        self.keep_spans = keep_spans
        self.names: List[str] = []
        self.self_s: List[float] = []
        self.calls: List[int] = []
        #: finished spans as (name id, depth, start, end), children before
        #: their parent; depth is enough to rebuild the parent links.
        self.spans: List[Tuple[int, int, float, float]] = []
        #: seconds covered by the finished children of each open span.
        self._covered: List[float] = [0.0]
        self.counts: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self.names.index(name)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_id(name)
        clock = time.perf_counter
        covered = self._covered
        self_s = self.self_s
        calls = self.calls
        record = self.spans.append if self.keep_spans else None

        def traced(*args, **kwargs):
            covered.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                self_s[nid] += elapsed - covered.pop()
                covered[-1] += elapsed
                calls[nid] += 1
                if record is not None:
                    record((nid, len(covered), start, end))

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a class or a module) with its traced
        form.  On a class the attribute must be defined by that class
        itself, so inherited no-op hooks stay recognisable as no-ops."""
        setattr(owner, attr, self.wrap(vars(owner)[attr], name))

    def reset(self) -> None:
        """Forget everything recorded; installed wrappers stay live."""
        if len(self._covered) != 1:
            raise RuntimeError("reset inside an open span")
        self.spans.clear()
        self._covered[0] = 0.0
        self.counts.clear()
        for i in range(len(self.names)):
            self.self_s[i] = 0.0
            self.calls[i] = 0

    def self_seconds(self) -> Dict[str, float]:
        return dict(zip(self.names, self.self_s))

    def call_counts(self) -> Dict[str, int]:
        return dict(zip(self.names, self.calls))

    def bump(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def write_jsonl(self, path) -> None:
        """One span per line: id, name, start, end, parent id, self time.
        Spans were recorded children-first, so walking them backwards
        meets every parent before its children."""
        parent_at_depth: Dict[int, int] = {}
        parents = [0] * len(self.spans)
        child_time = [0.0] * len(self.spans)
        for index in range(len(self.spans) - 1, -1, -1):
            _nid, depth, start, end = self.spans[index]
            parent = parent_at_depth.get(depth - 1, -1)
            parents[index] = parent
            if parent >= 0:
                child_time[parent] += end - start
            parent_at_depth[depth] = index
        with open(path, "w", encoding="utf-8") as sink:
            for index, (nid, _depth, start, end) in enumerate(self.spans):
                sink.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": self.names[nid],
                            "start": start,
                            "end": end,
                            "parent": parents[index] if parents[index] >= 0 else None,
                            "self_s": end - start - child_time[index],
                        }
                    )
                    + "\n"
                )


class _TimedIterator:
    """Iterator whose every ``next`` is one span (the time the pipeline
    spends producing a batch, apart from what the consumer does with it)."""

    def __init__(self, step: Callable):
        self._step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self._step()


# -- layer installers ----------------------------------------------------------


def _counting_decode(tracer: Tracer, plain: Callable, name: str) -> Callable:
    """``decode_batch`` as a span that also counts bytes in, traces out."""
    timed = tracer.wrap(plain, name)

    def decode_batch(payload, *args, **kwargs):
        batch = timed(payload, *args, **kwargs)
        tracer.bump("codec.bytes_in", len(payload))
        tracer.bump("codec.decode_traces", len(batch))
        return batch

    decode_batch.plain = plain
    return decode_batch


def _sampling_live_structures(
    tracer: Tracer, timed_process_batch: Callable, probe: Callable
) -> Callable:
    """``process_batch`` that samples the live-structure count on every 4th
    batch, outside the span: the count walks every version chain, which is
    the verifier's memory axis, not its work."""

    def process_batch(self, traces):
        timed_process_batch(self, traces)
        tracer.bump("verifier.batches")
        if tracer.counts["verifier.batches"] % 4 == 1:
            tracer.peak("gc.live_structures_peak", probe(self))

    return process_batch


def _mechanism_classes() -> Iterable[type]:
    """The class behind every registered mechanism, found by assembling a
    throw-away verifier for the spec all workloads run under."""
    from repro.core.spec import PG_SERIALIZABLE
    from repro.core.verifier import Verifier

    return [type(m) for m in Verifier(spec=PG_SERIALIZABLE).mechanisms]


def install_core(tracer: Tracer, rows: Iterable[str]) -> None:
    """Wrap codec, pipeline, verifier, mechanisms, bus, version chains,
    lock table and collector.  ``rows`` are the declared ``<span>_s``
    metric names: a mechanism hook is wrapped only when its row is
    declared, otherwise its time stays in its caller's self time."""
    import repro.core.codec as codec
    from repro.core.bus import DependencyBus, VersionOrderDeriver
    from repro.core.consistent_read import ConsistentReadVerifier
    from repro.core.gc import GarbageCollector
    from repro.core.locktable import LockTable
    from repro.core.pipeline import TwoLevelPipeline
    from repro.core.verifier import Verifier
    from repro.core.versions import VersionChain

    declared = set(rows)
    for cls in _mechanism_classes():
        for hook in MECHANISM_HOOKS:
            if hook not in vars(cls):
                continue
            name = (
                "rw-derive.self"
                if cls is VersionOrderDeriver
                else f"{cls.name.lower()}.{hook}"
            )
            if f"{name}_s" in declared:
                tracer.patch(cls, hook, name)
    # Fig. 9 derivation reached through CR's deferred unique-match queue.
    tracer.patch(VersionOrderDeriver, "on_read_match", "rw-derive.self")
    tracer.patch(ConsistentReadVerifier, "drain_matches", "rw-derive.self")

    codec.decode_batch = _counting_decode(tracer, codec.decode_batch, "codec.decode")

    plain_iter_batches = TwoLevelPipeline.iter_batches

    def iter_batches(self, *args, **kwargs):
        batches = plain_iter_batches(self, *args, **kwargs)
        return _TimedIterator(tracer.wrap(batches.__next__, "pipeline.sort"))

    TwoLevelPipeline.iter_batches = iter_batches

    Verifier.process_batch = _sampling_live_structures(
        tracer,
        tracer.wrap(Verifier.process_batch, "verifier.dispatch"),
        lambda verifier: verifier.state.live_structure_count(),
    )
    tracer.patch(Verifier, "finish", "verifier.finish")
    for attr in ("publish", "publish_many"):
        tracer.patch(DependencyBus, attr, "bus.publish")
    tracer.patch(VersionChain, "classify", "versions.classify")
    for attr in ("stage_write", "commit_txn", "abort_txn"):
        tracer.patch(VersionChain, attr, "versions.install")
    tracer.patch(LockTable, "acquire", "locktable.acquire")
    tracer.patch(GarbageCollector, "collect", "gc.collect")


def install_parallel_inline(tracer: Tracer) -> None:
    """On top of :func:`install_core`: the routing loop, the shard-side
    dispatch and the coordinator's segment merge, all in one process."""
    from repro.core import parallel
    from repro.core.sharding import ShardRouter

    parallel.ParallelVerifier.process_batch = _sampling_live_structures(
        tracer,
        tracer.wrap(parallel.ParallelVerifier.process_batch, "parallel.route"),
        lambda verifier: verifier.live_structure_count(),
    )
    tracer.patch(parallel.ParallelVerifier, "finish", "parallel.merge_replay")
    tracer.patch(ShardRouter, "split", "parallel.route")
    tracer.patch(parallel.GraphOnlyCertifier, "on_dependency", "sc.on_dependency")
    for attr in ("begin", "finish_shard"):
        tracer.patch(parallel.ShardVerifier, attr, "parallel.shard_verify")
    timed_ingest = tracer.wrap(parallel.ShardVerifier.ingest, "parallel.shard_verify")

    def ingest(self, trace_index, trace):
        tracer.bump(f"parallel.shard_traces.{self.shard_id}")
        timed_ingest(self, trace_index, trace)

    parallel.ShardVerifier.ingest = ingest
    # The streamed merge has no public seam of its own: it is only ever
    # reached from inside process_batch()/finish().
    for attr in ("offer", "advance", "add_residual", "finalize"):
        tracer.patch(parallel._StreamMerger, attr, "parallel.merge_replay")


def install_parallel_coordinator(tracer: Tracer) -> None:
    """Process backend: only the coordinator's two entry points (the shard
    work happens in forked workers this tracer cannot see)."""
    from repro.core.parallel import ParallelVerifier

    tracer.patch(ParallelVerifier, "process_batch", "parallel.intake")
    tracer.patch(ParallelVerifier, "finish", "parallel.tail")


def install_service(tracer: Tracer) -> None:
    """On top of :func:`install_core`: the gateway's non-yielding sections
    between reading a frame and returning its credit."""
    import repro.service.gateway as gateway
    from repro.core.online import OnlineVerifier
    from repro.service.sessions import SessionRegistry

    # The gateway imported decode_batch by name: it gets the same counting
    # wrapper around the plain function, under the service's span name.
    held = gateway.decode_batch
    gateway.decode_batch = _counting_decode(
        tracer, getattr(held, "plain", held), "service.decode"
    )
    tracer.patch(SessionRegistry, "stamp", "service.stamp")
    tracer.patch(OnlineVerifier, "feed_batch", "online.merge")
