"""Online verification: push-based tracing with immediate alerting.

The batch path (:class:`~repro.core.pipeline.TwoLevelPipeline` +
:class:`~repro.core.verifier.Verifier`) pulls complete client streams.  A
deployment wants the opposite direction: clients *push* traces as they
happen and the operator is alerted the moment a violation is detected
(challenge C3: "bugs can be reported and fixed as soon as possible").

:class:`OnlineVerifier` is the push driver of the two-level pipeline's
:class:`~repro.core.pipeline.GlobalBuffer` -- the structure the offline
pipeline pulls into, so the dispatch order is the pipeline's by
construction.  Each client feeds its own monotone stream: a frame is
validated and staged on the client's stage, the client's mark -- the
``(ts_bef, trace_id)`` pair it vouches never to send anything below --
moves to its last staged trace, and whatever now sorts below every other
client's mark is dispatched to the verifier.  New violations fire the
``on_violation`` callback immediately after the dispatching call that
detected them.

A client that stops sending would freeze the watermark; deployments send
periodic heartbeats for idle clients -- :meth:`heartbeat` moves the mark
to ``(now, -inf)``: the client may still send *any* id at exactly
``now``.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Sequence

from .intervals import POS_INF
from .pipeline import GlobalBuffer
from .report import VerificationReport, Violation
from .runtime import CollectorWatch
from .spec import IsolationSpec, PG_SERIALIZABLE
from .trace import Trace
from .verifier import RefusedTrace, Verifier

ViolationCallback = Callable[[Violation], None]

_client_id = operator.attrgetter("client_id")


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
        (``process_batch`` / ``finish``, and the three names the operator
        surfaces read: ``metrics``, ``violations_so_far()``,
        ``live_structure_count()``) -- the tests plug recorders in this
        way.  When omitted, a serial :class:`Verifier` is built from the
        remaining arguments."""
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
        #: one stage per client (each client's stream is monotone).
        self._buffer = GlobalBuffer()
        #: clients evicted because the backend refused one of their traces
        #: (:class:`~repro.core.verifier.RefusedTrace`), with the reason,
        #: in eviction order; their streams never resume.
        self.refused: Dict[int, str] = {}
        self._alerted = 0
        self._dispatched = 0
        self._finished = False

    # -- client-facing ingestion --------------------------------------------------

    def register_client(self, client_id: int) -> None:
        """Announce a client before its first trace so the watermark can
        account for it (unregistered clients are registered on first
        feed)."""
        self._stage(client_id)

    def _stage(self, client_id: int):
        stage = self._buffer.stages.get(client_id)
        if stage is None:
            if client_id in self.refused:
                raise ValueError(
                    f"client {client_id} was evicted: {self.refused[client_id]}"
                )
            stage = self._buffer.join(client_id)
        return stage

    def feed(self, trace: Trace) -> int:
        """Push one trace from its client: a run of one."""
        return self.feed_batch(trace.client_id, (trace,))

    def feed_batch(self, client_id: int, traces: Sequence[Trace]) -> int:
        """Push a run of traces from one client -- the service gateway's
        per-frame entry point.  The run is validated and staged first and
        the buffer released once, so a thousand-trace frame costs one
        dispatch pass.  Returns the number of traces the release
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
        first = (stamps[0], traces[0].trace_id)
        emitted = self._buffer.emitted
        if first < emitted:
            raise ValueError(
                f"client {client_id} pushed (ts_bef, trace_id) {first}, "
                f"behind the last dispatched {emitted}; sessions must join "
                f"before verification passes their first timestamp"
            )
        if (
            stamps[0] < stage.mark[0]
            or stamps != sorted(stamps)
            or set(map(_client_id, traces)) != {client_id}
        ):
            self._raise_invalid(client_id, traces, stage)
        self._buffer.stage(
            client_id, traces, stamps, (stamps[-1], traces[-1].trace_id)
        )
        return self._advance()

    @staticmethod
    def _raise_invalid(client_id: int, traces: Sequence[Trace], stage) -> None:
        mark = stage.mark[0]
        last = stage.ts[-1] if stage.ts else mark
        for trace in traces:
            if trace.client_id != client_id:
                raise ValueError(
                    f"trace from client {trace.client_id} pushed on "
                    f"client {client_id}'s stream"
                )
            ts = trace.ts_bef
            if ts < mark:
                raise ValueError(
                    f"client {client_id} pushed trace at {ts} "
                    f"behind its progress mark {mark}"
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
        stage = self._buffer.stages.pop(client_id, None)
        dropped = len(stage.items) if stage is not None else 0
        if not self._finished and self._buffer.stages:
            self._advance()
        return dropped

    def heartbeat(self, client_id: int, now: float) -> int:
        """An idle client vouches that none of its future traces begins
        before ``now``; unblocks the watermark without sending data."""
        if self._finished:
            raise RuntimeError("online verifier already finished")
        stage = self._stage(client_id)
        stage.mark = max(stage.mark, (now, -POS_INF))
        return self._advance()

    # -- dispatch -------------------------------------------------------------------

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
                self._buffer.stages.pop(offender, None)
                at = next(
                    i for i, trace in enumerate(batch) if trace is refusal.trace
                )
                done += at
                batch = [t for t in batch[at + 1 :] if t.client_id != offender]
            else:
                done += len(batch)
                batch = None
        self._dispatched += done
        self._alert_new()
        return done

    def _advance(self) -> int:
        """Dispatch what the global buffer releases; an eviction on the
        way takes a mark out, which may release more."""
        batch, _ = self._buffer.release()
        if not batch:
            return 0
        evicted = len(self.refused)
        done = self._dispatch(batch)
        if len(self.refused) > evicted:
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
        return len(self._buffer)

    @property
    def dispatched(self) -> int:
        return self._dispatched

    @property
    def watermark(self) -> float:
        """The current dispatch bound (-inf before any client vouched)."""
        return self._buffer.watermark()

    def client_mark(self, client_id: int) -> float:
        """Timestamp of one client's mark (+inf for unknown clients --
        they cannot hold the watermark back)."""
        return self._buffer.client_mark(client_id)

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
        watermark = self.watermark
        return {
            "clients": len(self._buffer.stages),
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
        """Drain everything staged (all clients are declared done: every
        mark goes to ``(inf, inf)``) and return the final report."""
        self._finished = True
        for stage in self._buffer.stages.values():
            stage.mark = (POS_INF, POS_INF)
        self._advance()
        report = self._verifier.finish()
        # Violations found by the finish pass surface only now.
        self._alert_new()
        self._collector_watch.close()
        return report
