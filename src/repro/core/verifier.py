"""Mechanism-mirrored verification: the Leopard Verifier (Section V).

The Verifier consumes traces in monotone before-timestamp order (from the
two-level pipeline) and mirrors the internal state of the DBMS -- version
chains, lock table, dependency graph.  Each trace is executed against that
state exactly as the engine would have executed the operation, and the
mechanism verifiers check the result:

* data operations stage their effects and defer their checks;
* commit/abort traces trigger the per-transaction checks of all
  mechanisms (by dispatch-order monotonicity, every trace able to influence
  those checks has already arrived);
* deduced dependencies are exchanged between mechanisms over the
  :class:`~repro.core.bus.DependencyBus` (wr from CR, ww from ME/FUW, rw
  derived per Fig. 9) and fed to the certifier;
* garbage structures are pruned periodically (Definition 4, Theorem 5).

The Verifier *is* the assembly (Section II-B, Fig. 3): it constructs ME,
FUW, the Fig. 9 rw deriver, CR and the certifier, in that order, and
connects the bus's delivery line to the last and the third.  What varies
per isolation level is the :class:`~repro.core.spec.IsolationSpec` they
read, not the wiring.  A subclass changes the assembly by overriding
:meth:`Verifier._build_state`, :meth:`Verifier._build_certifier` or
:meth:`Verifier._connect_bus` -- the parallel path's shards
(:mod:`repro.core.parallel`) override the last two, the naive
cycle-search baseline (:mod:`repro.baselines.cyclesearch`) the first.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Iterable, Iterator, List, Mapping, Optional

from .bus import DependencyBus, VersionOrderDeriver
from .certifier import SerializationCertifier
from .consistent_read import ConsistentReadVerifier
from .dependencies import Dependency, DepType
from .first_updater_wins import FirstUpdaterWinsVerifier
from .gc import GarbageCollector
from .mechanism import MechanismVerifier
from .metrics import NULL_REGISTRY, MetricsRegistry
from .mutual_exclusion import MutualExclusionVerifier
from .report import Mechanism, VerificationReport, Violation
from .spec import IsolationSpec, PG_SERIALIZABLE
from .state import TxnState, TxnStatus, VerifierState
from .trace import Key, OpKind, OpStatus, Trace
from .versions import Version


_LOOP_CONSTANTS = (
    OpStatus.OK, OpKind.READ, OpKind.WRITE, OpKind.COMMIT, TxnStatus.ACTIVE
)

#: traces per batch when a caller hands over a plain trace stream
#: (``process_all``): the pipeline's client batch.
BATCH = 64


def batches(traces: Iterable[Trace], size: int = BATCH) -> Iterator[List[Trace]]:
    """Cut a trace stream into lists of ``size`` (the last one shorter)."""
    traces = iter(traces)
    while batch := list(islice(traces, size)):
        yield batch


def _mirror_nothing(trace: Trace, txn: TxnState) -> None:
    """ME's data hooks under a spec that claims no lock manager."""


class RefusedTrace(ValueError):
    """A trace for a transaction that already terminated.  Carries the
    trace, so a caller feeding many clients' traces at once (the online
    layer) can tell whose stream broke and go on with the others'."""

    def __init__(self, trace: Trace):
        super().__init__(
            f"trace for already-terminated transaction {trace.txn_id}"
        )
        self.trace = trace


class Verifier:
    """Verifies one isolation spec against a stream of interval traces.

    Parameters
    ----------
    spec:
        The isolation level (mechanism assembly) the DBMS claims.
    initial_db:
        Record images loaded before the traced run started.
    gc_every:
        Run garbage collection every N traces (0 disables GC -- used by the
        memory ablation benchmarks).
    exchange_dependencies:
        Whether mechanisms share deduced dependencies (Section V-A).  The
        ablation value ``False`` still feeds the certifier but stops CR from
        using deduced ww orders to shrink candidate sets.
    minimize_candidates:
        Whether CR uses the Fig. 6 minimal candidate set (``False`` checks
        reads against every committed version -- the naive ablation).
    metrics:
        A :class:`~repro.core.metrics.MetricsRegistry` to instrument the
        run with (``docs/observability.md``).  ``None`` (the default)
        wires every layer to the shared disabled registry: zero side
        effects, report output byte-identical to an uninstrumented build.
    """

    def __init__(
        self,
        spec: IsolationSpec = PG_SERIALIZABLE,
        initial_db: Optional[Mapping[Key, Mapping[str, object]]] = None,
        gc_every: int = 512,
        exchange_dependencies: bool = True,
        minimize_candidates: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.spec = spec
        #: whether commits publish session-order edges (a shard of the
        #: parallel backend turns them off unless it owns them).
        self._session_order = True
        self._session_tail: dict = {}
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.state = state = self._build_state(initial_db)
        self.bus = bus = DependencyBus(state, metrics=self.metrics)
        # The assembly (Fig. 3), in the order Algorithm 2 checks it at a
        # terminal trace: ME and FUW deduce the ww edges that confirm
        # version adjacency before the Fig. 9 derivation and the CR checks
        # consume them; the certifier sees every dependency through the bus.
        me = MutualExclusionVerifier(
            state, spec, bus.publish_many, metrics=self.metrics
        )
        fuw = FirstUpdaterWinsVerifier(
            state, spec, bus.publish_many, metrics=self.metrics
        )
        deriver = VersionOrderDeriver(state, bus)
        cr = ConsistentReadVerifier(
            state,
            spec,
            deriver.on_read_matches,
            minimal=minimize_candidates,
            metrics=self.metrics,
        )
        certifier = self._build_certifier()
        self._connect_bus(certifier, deriver)
        self.mechanisms: List[MechanismVerifier] = [me, fuw, deriver, cr, certifier]
        self._me, self._fuw, self._deriver, self._cr, self._certifier = (
            self.mechanisms
        )
        #: ``mechanism.seconds`` histograms of the four timed terminal
        #: hooks and of CR's match drain (the deriver's time is the drain's).
        self._terminal_hists = tuple(
            self.metrics.histogram("mechanism.seconds", mechanism=m.name)
            for m in (me, fuw, cr, deriver, certifier)
        )
        self._m_txns_pruned = self.metrics.counter("gc.txns.pruned")
        self._gc: Optional[GarbageCollector] = None
        if gc_every:
            self._gc = GarbageCollector(
                state,
                every=gc_every,
                on_txn_pruned=self._on_txn_pruned,
                metrics=self.metrics,
            )
        self._finished = False
        # ME mirrors the lock manager only where the spec claims one
        # (Fig. 1): a lock-free row binds no data hook, so its lock table
        # stays empty and ME's terminal hook finds nothing to check, while
        # an ME row's loop pays no per-trace test.
        if spec.me:
            me_on_read, me_on_write = me.on_read, me.on_write
        else:
            me_on_read = me_on_write = _mirror_nothing
        #: what the dispatch loop binds on entry, as one unpack: a batch
        #: of one (``process``, an inline shard's ``ingest``) pays the
        #: entry once per trace.
        self._loop = (
            state, state.stats, state.txns, state.chains.get, state.chain,
            me_on_read, cr.on_read, me_on_write,
            self._on_commit, self._on_abort, self._gc,
        )
        if not exchange_dependencies:
            # Ablation: mechanisms stop sharing deduced ww orders, so CR's
            # candidate sets cannot be shrunk by other mechanisms' findings.
            state.ww_order = lambda a, b: None  # type: ignore[method-assign]

    # -- the assembly's seam ----------------------------------------------------

    def _build_state(self, initial_db) -> VerifierState:
        """The mirrored state every mechanism is constructed over.  The
        naive cycle-search baseline swaps its graph for plain adjacency."""
        return VerifierState(initial_db=initial_db)

    def _build_certifier(self) -> MechanismVerifier:
        """The fifth mechanism: what certifies the graph the exchange
        builds.  A shard builds a graph-only one (certification is
        global)."""
        return SerializationCertifier(self.state, self.spec, metrics=self.metrics)

    def _connect_bus(
        self, certifier: MechanismVerifier, deriver: MechanismVerifier
    ) -> None:
        """Fix the bus's delivery line: certifier, then deriver.  A shard
        puts its journal in front."""
        self.bus.connect(certifier, deriver)

    def mechanism(self, name: str) -> MechanismVerifier:
        """Look up an assembled mechanism by name."""
        for m in self.mechanisms:
            if m.name == name:
                return m
        raise KeyError(name)

    # -- trace intake -----------------------------------------------------------

    def process(self, trace: Trace) -> None:
        """Execute one dispatched trace: a batch of one."""
        self.process_batch((trace,))

    def process_batch(self, traces: Iterable[Trace]) -> None:
        """Execute dispatched traces, in order, against the mirrored
        state: the public name of :meth:`_execute`.  One call per dispatch
        batch -- the seam external instruments wrap -- so a subclass that
        feeds the loop trace by trace (the inline shards of
        :mod:`repro.core.parallel`) calls :meth:`_execute` itself."""
        self._execute(traces)

    def _execute(self, traces: Iterable[Trace]) -> None:
        """The dispatch loop (Algorithm 2), the hottest code in the
        verifier.  The loop invariants -- state tables, the three data
        hooks, the watermark, the GC countdown -- live in locals and are written back
        when the loop leaves, by exhaustion or by a raise: a refused trace
        (:class:`RefusedTrace`) leaves the verifier exactly as feeding the
        traces in front of it alone would, so the caller may go on with
        the traces behind it.
        """
        if self._finished:
            raise RuntimeError("verifier already finished")
        (
            state, stats, txns, chains_get, state_chain,
            me_on_read, cr_on_read, me_on_write,
            on_commit, on_abort, gc,
        ) = self._loop
        ok, read_kind, write_kind, commit_kind, active = _LOOP_CONSTANTS
        txns_get = txns.get
        new_txn = TxnState
        # The only mid-run reader of the watermark is the collector
        # (synced right before it fires).
        watermark = state.watermark
        # GC countdown: traces until the next collection (-1: no GC).
        remaining = (gc._every - gc._since_last) if gc is not None else -1
        accepted = 0
        try:
            for trace in traces:
                txn_id = trace.txn_id
                txn = txns_get(txn_id)
                if txn is None:
                    txn = new_txn(txn_id=txn_id, client_id=trace.client_id)
                    txns[txn_id] = txn
                elif txn.status is not active:
                    raise RefusedTrace(trace)
                accepted += 1
                interval = trace.interval
                ts_bef = interval.ts_bef
                if ts_bef > watermark:
                    watermark = ts_bef
                if txn.first_interval is None:
                    txn.first_interval = interval
                kind = trace.kind
                if kind is read_kind:
                    if trace.status is ok:
                        me_on_read(trace, txn)
                        cr_on_read(trace, txn)
                elif kind is write_kind:
                    if trace.status is ok:
                        me_on_write(trace, txn)
                        staged = txn.staged_versions.append
                        for key, columns in trace.writes.items():
                            chain = chains_get(key)
                            if chain is None:
                                chain = state_chain(key)
                            staged(chain.stage_write(txn_id, columns, interval))
                            txn.merge_own_write(key, columns)
                elif kind is commit_kind:
                    on_commit(trace, txn)
                else:
                    on_abort(trace, txn)
                if remaining > 0:
                    remaining -= 1
                    if not remaining:
                        state.watermark = watermark
                        gc._since_last = 0
                        gc.collect()
                        remaining = gc._every
        finally:
            stats.traces_processed += accepted
            state.watermark = watermark
            if gc is not None:
                gc._since_last = gc._every - remaining

    def process_all(self, traces: Iterable[Trace]) -> "Verifier":
        for batch in batches(traces):
            self.process_batch(batch)
        return self

    # -- terminal handling ---------------------------------------------------------

    def _dispatch_terminal(
        self, txn: TxnState, trace: Trace, installed: List[Version]
    ) -> None:
        """Run the five terminal hooks in assembly order.  The order is
        load-bearing: ME and FUW deduce the ww edges that confirm version
        adjacency before the Fig. 9 rw derivation and the CR checks
        consume them.

        CR's unique matches (the Fig. 9 wr recording and rw derivation,
        plus the certifier work those publications trigger) are drained
        *between* CR's hook and the certifier's, as a step of its own
        timed under ``RW-DERIVE``: CR's time answers "how long did the CR
        checks themselves run".  Other nesting (e.g. a commit-hook
        publication the certifier consumes inline) still double-counts by
        design.

        Timing (the ``mechanism.seconds`` histograms) is an instrument:
        an uninstrumented run reads no clock here."""
        cr = self._cr
        if not self.metrics.enabled:
            self._me.on_terminal(txn, trace, installed)
            self._fuw.on_terminal(txn, trace, installed)
            self._deriver.on_terminal(txn, trace, installed)
            cr.on_terminal(txn, trace, installed)
            cr.drain_matches()
            self._certifier.on_terminal(txn, trace, installed)
            return
        me_hist, fuw_hist, cr_hist, drain_hist, certifier_hist = (
            self._terminal_hists
        )
        self._timed_terminal(self._me, me_hist, txn, trace, installed)
        self._timed_terminal(self._fuw, fuw_hist, txn, trace, installed)
        self._deriver.on_terminal(txn, trace, installed)
        self._timed_terminal(cr, cr_hist, txn, trace, installed)
        start = time.perf_counter()
        cr.drain_matches()
        drain_hist.observe(time.perf_counter() - start)
        self._timed_terminal(
            self._certifier, certifier_hist, txn, trace, installed
        )

    def _timed_terminal(self, mechanism, hist, txn, trace, installed) -> None:
        start = time.perf_counter()
        try:
            mechanism.on_terminal(txn, trace, installed)
        finally:
            hist.observe(time.perf_counter() - start)

    def _on_commit(self, trace: Trace, txn: TxnState) -> None:
        state = self.state
        txn.status = TxnStatus.COMMITTED
        txn.terminal_interval = trace.interval
        state.note_terminal(txn.txn_id, trace.interval.ts_aft)
        state.stats.txns_committed += 1
        state.graph.add_txn(txn.txn_id)
        # Same-client program-order edges (strong-session guarantee).
        # Sound for every snapshot-based engine -- a transaction beginning
        # after its session predecessor committed always sees its effects
        # -- and they let the certifier catch "time-travel" bugs where a
        # session's later transaction serialises before its earlier one.
        if self._session_order:
            predecessor = self._session_tail.get(trace.client_id)
            if predecessor is not None and predecessor in state.graph:
                self.bus.publish(
                    Dependency(
                        src=predecessor,
                        dst=txn.txn_id,
                        dep_type=DepType.SO,
                        source=Mechanism.SERIALIZATION_CERTIFIER,
                    )
                )
            self._session_tail[trace.client_id] = txn.txn_id
        installed: List[Version] = []
        if txn.staged_versions:
            for key in {v.key for v in txn.staged_versions}:
                chain = state.chain(key)
                installed.extend(chain.commit_txn(txn.txn_id, trace.interval))
                if len(chain) >= 2:
                    state.gc_version_candidates[key] = chain
        self._dispatch_terminal(txn, trace, installed)

    def _on_abort(self, trace: Trace, txn: TxnState) -> None:
        state = self.state
        txn.status = TxnStatus.ABORTED
        txn.terminal_interval = trace.interval
        state.note_terminal(txn.txn_id, trace.interval.ts_aft)
        state.stats.txns_aborted += 1
        if txn.staged_versions:
            for key in {v.key for v in txn.staged_versions}:
                chain = state.chain(key)
                if chain.abort_txn(txn.txn_id):
                    # Aborted residue is dropped by the next version GC pass.
                    state.gc_version_candidates[key] = chain
        self._dispatch_terminal(txn, trace, [])

    # -- garbage collection -------------------------------------------------

    def _on_txn_pruned(self, txn_id: str) -> None:
        if self.metrics.enabled:
            self._m_txns_pruned.inc()
        # The certifier is the only mechanism that keeps per-transaction
        # state of its own.
        self._certifier.on_gc(txn_id)

    # -- completion -----------------------------------------------------------------

    def violations_so_far(self) -> List[Violation]:
        """Violations recorded up to now: the descriptor's own
        append-only list, which the report shares -- not a copy, and not
        the caller's to change.  The online layer serves it mid-run."""
        return self.state.descriptor._violations

    def live_structure_count(self) -> int:
        """Structures the mirrored state retains (the memory axis the
        online layer reports)."""
        return self.state.live_structure_count()

    def finish(self) -> VerificationReport:
        """Finalise the run and return the report.  Transactions still
        active when the stream ends stay unverified, exactly as a real
        online verifier must leave in-flight transactions pending."""
        self._finished = True
        if self._gc is not None:
            self._gc.collect()
        return VerificationReport(
            descriptor=self.state.descriptor,
            stats=self.state.stats,
            isolation_level=self.spec.name,
        )


def verify_traces(
    traces: Iterable[Trace],
    spec: IsolationSpec = PG_SERIALIZABLE,
    initial_db: Optional[Mapping[Key, Mapping[str, object]]] = None,
    **kwargs,
) -> VerificationReport:
    """One-shot convenience API: verify an already-sorted trace stream."""
    verifier = Verifier(spec=spec, initial_db=initial_db, **kwargs)
    verifier.process_all(traces)
    return verifier.finish()
