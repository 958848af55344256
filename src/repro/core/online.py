"""Online verification: push-based tracing with immediate alerting.

The batch path (:class:`~repro.core.pipeline.TwoLevelPipeline` +
:class:`~repro.core.verifier.Verifier`) pulls complete client streams.  A
deployment wants the opposite direction: clients *push* traces as they
happen and the operator is alerted the moment a violation is detected
(challenge C3: "bugs can be reported and fixed as soon as possible").

:class:`OnlineVerifier` implements the push side of the two-level pipeline:
each client feeds its own monotone stream; traces are staged per client,
and whenever a client's progress mark -- the ``(ts_bef, trace_id)`` pair
it vouched never to send anything below -- moves, everything the other
clients' marks cover is dispatched to the verifier in the offline
pipeline's order, through the same merge kernel.  New violations fire the
``on_violation`` callback immediately after the dispatching call that
detected them.

A client that stops sending would freeze the watermark; deployments send
periodic heartbeats (empty progress marks) for idle clients --
:meth:`heartbeat` models exactly that.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .intervals import POS_INF
from .pipeline import merge_runs, prefix_below
from .report import VerificationReport, Violation
from .runtime import CollectorWatch
from .spec import IsolationSpec, PG_SERIALIZABLE
from .trace import Trace
from .verifier import RefusedTrace, Verifier

ViolationCallback = Callable[[Violation], None]

_client_id = operator.attrgetter("client_id")

#: a ``(ts_bef, trace_id)`` progress mark, the pipeline's sort key.
Mark = Tuple[float, float]


class _Stage:
    """One client's staged (undispatched) traces with their parallel
    ``ts_bef`` array, and its progress floor: the client will never send a
    trace whose ``(ts_bef, trace_id)`` is below it.  A staged or dispatched
    trace raises the floor to its own pair (a client's stream is monotone
    and its ids ascend); a heartbeat at ``now`` raises it to ``(now,
    -inf)`` -- the client may still send *any* id at exactly ``now``."""

    __slots__ = ("items", "ts", "floor")

    def __init__(self) -> None:
        self.items: List[Trace] = []
        self.ts: List[float] = []
        self.floor: Mark = (-POS_INF, -POS_INF)


class OnlineVerifier:
    """Streaming verification facade with at-dispatch alerting."""

    def __init__(
        self,
        spec: IsolationSpec = PG_SERIALIZABLE,
        initial_db=None,
        on_violation: Optional[ViolationCallback] = None,
        verifier=None,
        **verifier_kwargs,
    ):
        """``verifier`` injects any verifier-shaped backend
        (``process_batch`` / ``finish``, and the four names the operator
        surfaces read: ``metrics``, ``violations_so_far()``,
        ``live_structure_count()``, ``coordinator_pending_events()``) --
        the parallel path plugs in a
        :class:`~repro.core.parallel.ParallelVerifier` this way.  When
        omitted, a serial :class:`Verifier` is built from the remaining
        arguments."""
        if verifier is not None and verifier_kwargs:
            raise ValueError(
                "pass construction kwargs or an injected verifier, not both"
            )
        self._verifier = verifier if verifier is not None else Verifier(
            spec=spec, initial_db=initial_db, **verifier_kwargs
        )
        self._on_violation = on_violation
        #: interpreter-collector passes, counted into the backend's
        #: registry until :meth:`finish` (nothing when it is disabled).
        self._collector_watch = CollectorWatch(self._verifier.metrics)
        #: per-client stage (each client's stream is monotone).
        self._stages: Dict[int, _Stage] = {}
        #: clients evicted because the backend refused one of their traces
        #: (:class:`~repro.core.verifier.RefusedTrace`), with the reason,
        #: in eviction order; their streams never resume.
        self.refused: Dict[int, str] = {}
        self._alerted = 0
        self._dispatched = 0
        #: timestamp of the newest trace already handed to the backend --
        #: the point of no return: the dispatch stream is globally sorted,
        #: so a trace behind it can never be merged soundly.
        self._emitted = float("-inf")
        self._finished = False

    # -- client-facing ingestion --------------------------------------------------

    def register_client(self, client_id: int) -> None:
        """Announce a client before its first trace so the watermark can
        account for it (unregistered clients are registered on first
        feed)."""
        self._stage(client_id)

    def _stage(self, client_id: int) -> _Stage:
        stage = self._stages.get(client_id)
        if stage is None:
            if client_id in self.refused:
                raise ValueError(
                    f"client {client_id} was evicted: {self.refused[client_id]}"
                )
            stage = self._stages[client_id] = _Stage()
        return stage

    def feed(self, trace: Trace) -> int:
        """Push one trace from its client: a run of one."""
        return self.feed_batch(trace.client_id, (trace,))

    def feed_batch(self, client_id: int, traces: Sequence[Trace]) -> int:
        """Push a run of traces from one client -- the service gateway's
        per-frame entry point.  The run is validated and staged first and
        the watermark advances once, so a thousand-trace frame costs one
        dispatch pass.  Returns the number of traces the advance
        dispatched.

        The run is validated with C-level passes, as
        :meth:`ClientFeed.next_batch_ts` validates a batch; the per-trace
        scan only runs on the failure path, to name the offender."""
        if self._finished:
            raise RuntimeError("online verifier already finished")
        if not traces:
            return 0
        stage = self._stage(client_id)
        stamps = [trace.interval.ts_bef for trace in traces]
        if stamps[0] < self._emitted:
            raise ValueError(
                f"client {client_id} pushed trace at {stamps[0]} "
                f"behind the dispatched watermark {self._emitted}; sessions "
                f"must join before verification passes their first timestamp"
            )
        if (
            stamps[0] < stage.floor[0]
            or stamps != sorted(stamps)
            or set(map(_client_id, traces)) != {client_id}
        ):
            self._raise_invalid(client_id, traces, stage)
        stage.items.extend(traces)
        stage.ts.extend(stamps)
        stage.floor = (stamps[-1], traces[-1].trace_id)
        return self._advance()

    @staticmethod
    def _raise_invalid(client_id: int, traces: Sequence[Trace], stage: _Stage) -> None:
        floor = stage.floor[0]
        last = stage.ts[-1] if stage.ts else floor
        for trace in traces:
            if trace.client_id != client_id:
                raise ValueError(
                    f"trace from client {trace.client_id} pushed on "
                    f"client {client_id}'s stream"
                )
            ts = trace.ts_bef
            if ts < floor:
                raise ValueError(
                    f"client {client_id} pushed trace at {ts} "
                    f"behind its progress mark {floor}"
                )
            if ts < last:
                raise ValueError(f"client {client_id} stream is not monotone")
            last = ts
        raise AssertionError("unreachable")  # pragma: no cover

    def evict_client(self, client_id: int) -> int:
        """Forget a client entirely: drop its staged traces and remove it
        from watermark accounting.  The gateway evicts sessions that sent
        a poison frame, so one bad client cannot freeze everyone else's
        watermark.  Returns the number of staged traces dropped; the
        eviction itself may advance the watermark and dispatch other
        clients' traces."""
        stage = self._stages.pop(client_id, None)
        dropped = len(stage.items) if stage is not None else 0
        if not self._finished and self._stages:
            self._advance()
        return dropped

    def heartbeat(self, client_id: int, now: float) -> int:
        """An idle client vouches that none of its future traces begins
        before ``now``; unblocks the watermark without sending data."""
        if self._finished:
            raise RuntimeError("online verifier already finished")
        stage = self._stage(client_id)
        stage.floor = max(stage.floor, (now, -POS_INF))
        return self._advance()

    # -- dispatch -------------------------------------------------------------------

    def _watermark(self) -> float:
        """Smallest timestamp any client could still produce: its staged
        head if it has one, else its progress floor."""
        marks = [
            stage.ts[0] if stage.ts else stage.floor[0]
            for stage in self._stages.values()
        ]
        return min(marks) if marks else float("-inf")

    def _dispatch(self, batch: List[Trace]) -> int:
        """Feed one dispatch batch to the backend, then alert on anything
        new; returns how many traces the backend executed.  Alerts keep
        their documented granularity -- they fire inside the ``feed`` /
        ``heartbeat`` call whose watermark advance detected them.

        A trace the backend refuses costs its own client its stream and
        nothing else: the client is evicted (:attr:`refused`), what it had
        staged or still had in this batch is dropped, and the rest of the
        batch goes on in order -- the backend was left as the traces in
        front of the refused one left it."""
        done = 0
        while batch:
            try:
                self._verifier.process_batch(batch)
            except RefusedTrace as refusal:
                offender = refusal.trace.client_id
                self.refused[offender] = str(refusal)
                self._stages.pop(offender, None)
                at = next(
                    i for i, trace in enumerate(batch) if trace is refusal.trace
                )
                executed = batch[:at]
                batch = [t for t in batch[at + 1 :] if t.client_id != offender]
            else:
                executed, batch = batch, None
            if executed:
                done += len(executed)
                self._emitted = executed[-1].ts_bef
        self._dispatched += done
        self._alert_new()
        return done

    def _advance(self) -> int:
        """Dispatch every staged trace the other clients' floors cover.

        A trace may go once it sorts below every *other* client's floor
        (its own client's later traces follow it anyway), so each stage's
        bound is the smallest floor among the others: the smallest floor
        overall, or the second smallest for the client that holds the
        smallest.  That is the fixpoint of a k-way merge that stops at the
        first idle client's mark, computed as the offline pipeline
        computes a round: one :func:`prefix_below` per stage, one
        :func:`merge_runs` over the eligible prefixes -- so the dispatch
        order is the pipeline's ``(ts_bef, trace_id)`` order exactly,
        timestamp ties with an idle client's floor included.
        """
        stages = self._stages
        lowest = second = (POS_INF, POS_INF)
        holder = None
        for client_id, stage in stages.items():
            floor = stage.floor
            if floor < lowest:
                second, lowest, holder = lowest, floor, client_id
            elif floor < second:
                second = floor
        runs = []
        for client_id, stage in stages.items():
            items = stage.items
            if not items:
                continue
            bound = second if client_id == holder else lowest
            hi = prefix_below(items, stage.ts, 0, bound)
            if hi:
                runs.append((items[:hi], stage.ts[:hi]))
                del items[:hi], stage.ts[:hi]
        if not runs:
            return 0
        evicted = len(self.refused)
        done = self._dispatch(runs[0][0] if len(runs) == 1 else merge_runs(runs))
        if len(self.refused) > evicted:
            # An evicted client's floor no longer holds anything back.
            done += self._advance()
        return done

    def _alert_new(self) -> None:
        violations = self._verifier.violations_so_far()
        while self._alerted < len(violations):
            violation = violations[self._alerted]
            self._alerted += 1
            if self._on_violation is not None:
                self._on_violation(violation)

    # -- introspection / completion ----------------------------------------------------

    @property
    def pending(self) -> int:
        """Traces staged but not yet dispatched (waiting on the watermark)."""
        return sum(len(stage.items) for stage in self._stages.values())

    @property
    def dispatched(self) -> int:
        return self._dispatched

    @property
    def watermark(self) -> float:
        """The current dispatch bound (-inf before any client vouched)."""
        return self._watermark()

    def client_mark(self, client_id: int) -> float:
        """The smallest timestamp one client could still produce: its
        staged head if any, else its progress floor (+inf for unknown
        clients -- they cannot hold the watermark back)."""
        stage = self._stages.get(client_id)
        if stage is None:
            return float("inf")
        return stage.ts[0] if stage.ts else stage.floor[0]

    @property
    def violations_so_far(self) -> List[Violation]:
        return self._verifier.violations_so_far()

    def live_structure_count(self) -> int:
        return self._verifier.live_structure_count()

    def snapshot(self) -> Dict[str, object]:
        """Live operator view: streaming state plus the backend registry's
        instruments (empty maps when the backend is not instrumented).
        Safe to call at any time; it never advances the watermark.
        Documented in ``docs/observability.md``."""
        watermark = self._watermark()
        return {
            "clients": len(self._stages),
            "pending": self.pending,
            "dispatched": self._dispatched,
            # Neither -inf (no client has vouched yet) nor +inf (every
            # client said goodbye) is JSON-representable.
            "watermark": (
                watermark
                if float("-inf") < watermark < float("inf")
                else None
            ),
            "violations": len(self._verifier.violations_so_far()),
            "alerted": self._alerted,
            "live_structures": self.live_structure_count(),
            "metrics": self._verifier.metrics.snapshot(),
        }

    def finish(self) -> VerificationReport:
        """Drain everything staged (all clients are declared done) and
        return the final report."""
        self._finished = True
        runs = [
            (stage.items, stage.ts)
            for stage in self._stages.values()
            if stage.items
        ]
        if runs:
            self._dispatch(merge_runs(runs))
            for stage in self._stages.values():
                stage.items, stage.ts = [], []
        report = self._verifier.finish()
        # Backends that defer global certification to finish (the parallel
        # merge pass) surface their remaining violations only now.
        self._alert_new()
        self._collector_watch.close()
        return report
