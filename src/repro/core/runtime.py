"""The interpreter's cycle collector, in the processes this package owns.

Leopard decides for itself what is garbage (Definition 4,
:mod:`repro.core.gc`): versions, locks and graph nodes are pruned the
moment no future check can reach them, and CPython's reference counts
free them on the spot.  The verification spine -- codec, pipeline,
mechanisms, bus, merge -- allocates no reference cycles
(``tests/test_runtime.py`` holds that as an invariant), so CPython's
generational *cycle* collector has nothing to find there; at its default
thresholds it still fires every ~700 net container allocations and
re-walks the long-lived mirrored state each time it reaches an older
generation (545 / 49 / 4 passes, 10-17 % of a 35k-trace ``repro verify``).

:func:`relax_collector` is the one policy, applied by the entry point of
each process the package *owns* -- ``python -m repro`` and a shard
worker, its two call sites -- and by nothing else.  Importing :mod:`repro` or
building a verifier inside someone else's interpreter leaves their
collector exactly as they configured it; an embedding caller that wants
the policy calls this function itself (``docs/usage.md``).

:class:`CollectorWatch` is the observability half: while a metrics
registry is enabled it counts the collector's passes and times them, so
"what did the interpreter's collector cost this run" is answerable from
``repro.stats/v1`` (``docs/observability.md``).
"""

from __future__ import annotations

import gc
import time
from typing import Optional

from .metrics import MetricsRegistry

#: Net container allocations between young-generation passes: the default
#: 700, two orders of magnitude up.  Sized in EXPERIMENTS.md.
GEN0_THRESHOLD = 70_000


def relax_collector() -> None:
    """Freeze what set-up built and make young-generation passes rare.

    ``gc.freeze()`` moves every object alive now -- imported modules,
    the argument parser's leftovers, a forked worker's inherited heap --
    into the permanent generation: no later pass traverses it, and a
    worker never dirties the copy-on-write pages it shares with its
    coordinator by writing collector state into their object headers.
    The collector stays *enabled*: a traceback or asyncio cycle is still
    reclaimed, one pass per :data:`GEN0_THRESHOLD` net allocations
    instead of one per 700.
    """
    gc.freeze()
    # The older generations keep CPython's ratios: one gen-1 pass per 10
    # gen-0 passes, one full pass per 10 of those (and its 25 % rule).
    gc.set_threshold(GEN0_THRESHOLD, 10, 10)


class CollectorWatch:
    """Counts and times the interpreter's collector passes into a registry.

    Instruments (``docs/observability.md``): ``runtime.gc.collections{gen}``
    counters, the ``runtime.gc.seconds`` pause histogram, and the
    ``runtime.gc.threshold{gen}`` / ``runtime.gc.frozen`` gauges that say
    which policy the process runs under.  Built by whatever owns a run --
    ``repro verify --stats``, :class:`~repro.core.online.OnlineVerifier`,
    a shard worker -- and closed when the run finishes; with a disabled
    (or no) registry nothing is installed.  Usable as a context manager.
    """

    __slots__ = ("_passes", "_seconds", "_started", "_installed")

    def __init__(self, metrics: Optional[MetricsRegistry]):
        self._installed = metrics is not None and metrics.enabled
        if not self._installed:
            return
        self._passes = tuple(
            metrics.counter("runtime.gc.collections", gen=gen) for gen in range(3)
        )
        self._seconds = metrics.histogram("runtime.gc.seconds")
        self._started = 0.0
        for gen, threshold in enumerate(gc.get_threshold()):
            metrics.set_gauge("runtime.gc.threshold", threshold, gen=gen)
        metrics.set_gauge("runtime.gc.frozen", gc.get_freeze_count())
        gc.callbacks.append(self._on_pass)

    def _on_pass(self, phase: str, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self._seconds.observe(time.perf_counter() - self._started)
            self._passes[info["generation"]].inc()

    def close(self) -> None:
        if self._installed:
            self._installed = False
            gc.callbacks.remove(self._on_pass)

    def __enter__(self) -> "CollectorWatch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
