"""Observability: a process-local metrics registry.

Leopard's headline claim is *efficiency* (Figs. 10-12 measure pipeline
sorting throughput, verification latency and memory under load), so the
verifier needs a way to see where time and memory go inside the Tracer
pipeline, the :class:`~repro.core.bus.DependencyBus`, the four mechanism
verifiers and the sharded parallel path.  This module is that substrate:

* :class:`MetricsRegistry` -- counters, gauges and histogram timers.
  Instruments are *handles* (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`): hot paths resolve them once and then pay a single
  attribute increment per event.  A registry built with ``enabled=False``
  (or the shared :data:`NULL_REGISTRY`) hands out one immutable no-op
  instrument, so disabled instrumentation has zero side effects and
  near-zero cost;
* :func:`run_stats` -- the one stats schema every surface emits: the CLI's
  ``verify --stats`` / ``--stats-json``, the ``benchmarks/`` stats hook and
  :meth:`OnlineVerifier.snapshot` all produce this dict, so a reading of
  one output transfers to the others (documented in
  ``docs/observability.md``).

Metric naming: ``component.noun.verb`` (e.g. ``bus.deps.accepted``), with
labels rendered into the snapshot key as ``name{k=v,...}`` in sorted label
order.  Durations are seconds (monotonic clock); sizes are counts of
structures, not bytes.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullInstrument",
    "metric_key",
    "parse_metric_key",
    "phase_breakdown",
    "render_stats",
    "run_stats",
]


def metric_key(name: str, labels: Mapping[str, Any]) -> str:
    """Canonical snapshot key: ``name`` or ``name{k=v,...}`` (sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`metric_key` (labels come back as strings)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: Dict[str, str] = {}
    for part in inner[:-1].split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """Monotonically increasing count of events."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value, with a convenience high-watermark setter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def high_watermark(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Streaming summary (count / total / min / max) of observed values.

    A full bucketed histogram is deliberately avoided: the hot paths
    observe per-trace, and four scalar updates are the cheapest summary
    that still answers "how many, how much, how skewed".  ``time()``
    returns a context manager observing elapsed monotonic seconds.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def time(self) -> "_HistogramTimer":
        return _HistogramTimer(self)

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": (self.total / self.count) if self.count else 0.0,
        }


class _HistogramTimer:
    """Context manager feeding wall-clock seconds into a histogram."""

    __slots__ = ("_hist", "_start")

    def __init__(self, hist: Histogram):
        self._hist = hist
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._hist.observe(time.perf_counter() - self._start)


class NullInstrument:
    """The single no-op stand-in for every instrument of a disabled
    registry.  Also usable as a context manager, so ``with
    registry.timer(...)`` costs nothing when metrics are off."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def high_watermark(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self) -> "NullInstrument":
        return self

    def __enter__(self) -> "NullInstrument":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL = NullInstrument()


class MetricsRegistry:
    """Process-local registry of named, labelled instruments.

    ``counter`` / ``gauge`` / ``histogram`` return live handles -- resolve
    them once outside the hot loop.  ``inc`` / ``observe`` / ``set_gauge``
    are one-shot conveniences for cold paths.  With ``enabled=False`` every
    accessor returns the shared :class:`NullInstrument` and the registry
    records nothing at all (its :meth:`snapshot` stays empty).
    """

    __slots__ = ("enabled", "_counters", "_gauges", "_histograms")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument handles -------------------------------------------------

    def counter(self, name: str, **labels):
        if not self.enabled:
            return _NULL
        key = metric_key(name, labels)
        handle = self._counters.get(key)
        if handle is None:
            handle = self._counters[key] = Counter()
        return handle

    def gauge(self, name: str, **labels):
        if not self.enabled:
            return _NULL
        key = metric_key(name, labels)
        handle = self._gauges.get(key)
        if handle is None:
            handle = self._gauges[key] = Gauge()
        return handle

    def histogram(self, name: str, **labels):
        if not self.enabled:
            return _NULL
        key = metric_key(name, labels)
        handle = self._histograms.get(key)
        if handle is None:
            handle = self._histograms[key] = Histogram()
        return handle

    # -- one-shot conveniences ---------------------------------------------

    def inc(self, name: str, amount: int = 1, **labels) -> None:
        self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        self.histogram(name, **labels).observe(value)

    def timer(self, name: str, **labels):
        """Context manager timing a block into ``name``'s histogram."""
        return self.histogram(name, **labels).time()

    # -- reading ------------------------------------------------------------

    def counter_value(self, name: str, **labels) -> int:
        handle = self._counters.get(metric_key(name, labels))
        return handle.value if handle is not None else 0

    def counters_with_name(self, name: str) -> Dict[str, int]:
        """All counter keys for ``name`` (any labels) -> value."""
        out: Dict[str, int] = {}
        for key, handle in self._counters.items():
            base, _ = parse_metric_key(key)
            if base == name:
                out[key] = handle.value
        return out

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of every instrument (JSON-serialisable)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.summary() for k, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one (the
        parallel coordinator absorbs per-shard worker registries this way).
        Counters and histograms add; gauges keep the high watermark."""
        if not self.enabled:
            return
        for key, value in snapshot.get("counters", {}).items():
            name, labels = parse_metric_key(key)
            self.counter(name, **labels).inc(value)
        for key, value in snapshot.get("gauges", {}).items():
            name, labels = parse_metric_key(key)
            self.gauge(name, **labels).high_watermark(value)
        for key, summary in snapshot.get("histograms", {}).items():
            name, labels = parse_metric_key(key)
            hist = self.histogram(name, **labels)
            count = int(summary.get("count", 0))
            if not count:
                continue
            hist.count += count
            hist.total += summary.get("total", 0.0)
            if summary.get("min", 0.0) < hist.min:
                hist.min = summary["min"]
            if summary.get("max", 0.0) > hist.max:
                hist.max = summary["max"]


#: shared disabled registry: the default wiring target of every
#: instrumented component, so un-instrumented runs stay no-ops.
NULL_REGISTRY = MetricsRegistry(enabled=False)


# -- the shared stats schema ------------------------------------------------

#: phase keys of the Fig. 11 wall-time breakdown, in reporting order.
PHASES = ("pipeline-sort", "ME", "FUW", "RW-DERIVE", "CR", "SC", "merge")


def phase_breakdown(
    mechanism_totals: Mapping[str, float],
    pipeline_sort_seconds: float = 0.0,
    merge_seconds: float = 0.0,
) -> Dict[str, float]:
    """Attribute total wall time across pipeline-sort, the mechanism
    verifiers (seconds per mechanism tag) and the parallel merge (absent
    phases report 0.0)."""
    breakdown = {phase: 0.0 for phase in PHASES}
    breakdown["pipeline-sort"] = pipeline_sort_seconds
    breakdown["merge"] = merge_seconds
    breakdown.update(mechanism_totals)
    return breakdown


def run_stats(
    report,
    metrics: Optional[MetricsRegistry] = None,
    pipeline_sort_seconds: float = 0.0,
    merge_seconds: Optional[float] = None,
    wall_seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """The one stats document every operator surface emits.

    ``report`` is a :class:`~repro.core.report.VerificationReport`;
    ``metrics`` the registry the run was instrumented with (omitted or
    disabled -> empty instrument maps).  The mechanism phases are the
    registry's ``mechanism.seconds{mechanism=}`` histogram totals, and
    ``merge_seconds`` defaults to its ``parallel.merge.seconds`` total, so
    parallel runs need not thread the value through by hand.
    """
    histograms = metrics._histograms if metrics is not None else {}
    mechanism_totals: Dict[str, float] = {}
    for key, hist in histograms.items():
        name, labels = parse_metric_key(key)
        if name == "mechanism.seconds":
            mechanism_totals[labels["mechanism"]] = hist.total
    if merge_seconds is None:
        hist = histograms.get("parallel.merge.seconds")
        merge_seconds = hist.total if hist is not None else 0.0
    document: Dict[str, Any] = {
        "schema": "repro.stats/v1",
        "isolation_level": report.isolation_level,
        "ok": report.ok,
        "violations": len(report.descriptor),
        "witnesses": report.descriptor.raw_count,
        # Every field of ``VerificationStats``, in declaration order.
        "stats": dataclasses.asdict(report.stats),
        "phases": phase_breakdown(
            mechanism_totals,
            pipeline_sort_seconds=pipeline_sort_seconds,
            merge_seconds=merge_seconds,
        ),
        "metrics": (
            metrics.snapshot()
            if metrics is not None
            else {"counters": {}, "gauges": {}, "histograms": {}}
        ),
    }
    if wall_seconds is not None:
        document["wall_seconds"] = wall_seconds
    return document


def render_stats(document: Mapping[str, Any]) -> str:
    """Human-readable rendering of a :func:`run_stats` document (what
    ``python -m repro verify --stats`` prints under the report)."""
    lines = ["-- stats --"]
    phases = document.get("phases", {})
    lines.append(
        "phase seconds   : "
        + " ".join(f"{phase}={phases.get(phase, 0.0):.4f}" for phase in PHASES)
    )
    if "wall_seconds" in document:
        lines.append(f"wall seconds    : {document['wall_seconds']:.4f}")
    metrics = document.get("metrics", {})
    counters = metrics.get("counters", {})
    if counters:
        lines.append("counters        :")
        for key, value in counters.items():
            lines.append(f"  {key} = {value}")
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("gauges          :")
        for key, value in gauges.items():
            lines.append(f"  {key} = {value:g}")
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("histograms      :")
        for key, summary in histograms.items():
            lines.append(
                f"  {key}: count={summary['count']} total={summary['total']:.4f}"
                f" mean={summary['mean']:.6f} max={summary['max']:.6f}"
            )
    return "\n".join(lines)
