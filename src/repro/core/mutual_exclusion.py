"""Mutual-exclusion verification (Algorithm 2, lines 10-17).

Under a spec that claims a lock manager, writes acquire exclusive locks
during their trace intervals; under pure-2PL specs reads additionally
acquire shared locks.  All locks are released during the transaction's
commit/abort interval.  When a transaction finishes, each of its locks is
compared against the conflicting locks of other already-finished
transactions: if no serial order of the hidden lock instants is feasible,
mutual exclusion was violated (Fig. 7a); if exactly one is, a ``ww``
dependency is deduced (Fig. 7b, Theorem 3).
"""

from __future__ import annotations

from typing import Callable, List

from .dependencies import Dependency, DepType
from .locktable import LockEntry, LockMode, OrderOutcome, classify_pair
from .mechanism import MechanismVerifier
from .report import Mechanism, Violation, ViolationKind
from .spec import IsolationSpec
from .state import TxnState, VerifierState
from .trace import Trace

EmitManyFn = Callable[[List[Dependency]], object]


class MutualExclusionVerifier(MechanismVerifier):
    """Mirrors the lock manager of the DBMS under test.

    The spec decides once, where :class:`~repro.core.verifier.Verifier`
    binds the dispatch loop, whether ME runs: a Fig. 1 row that claims no
    lock manager gets none of ME's data hooks, so no lock is mirrored and
    the terminal hook finds nothing to release or check.  Every mirrored
    lock is released at its owner's terminal.
    """

    name = "ME"

    def __init__(
        self,
        state: VerifierState,
        spec: IsolationSpec,
        emit_many: EmitManyFn,
        metrics=None,
    ):
        from .metrics import NULL_REGISTRY

        self._state = state
        self._spec = spec
        #: batch publication (``bus.publish_many``): deduced ww edges are
        #: collected across a terminal's pair checks and handed to the bus
        #: as one group.  The pair checks read only lock intervals, so
        #: deferring delivery to the end of the terminal preserves the
        #: dependency sequence exactly.
        self._emit_many = emit_many
        #: reused deduction buffer for the terminal batch.
        self._dep_batch: list = []
        registry = metrics if metrics is not None else NULL_REGISTRY
        #: counters are bumped once per write trace / per terminal, and
        #: not at all by an uninstrumented run.
        self._metered = registry.enabled
        #: conflicting lock pairs whose hidden-instant orders were
        #: enumerated at a terminal (Fig. 7 / Theorem 3).
        self._m_pairs = registry.counter("me.lock_pairs.checked")
        self._m_locks = registry.counter("me.locks.acquired")
        self._m_deduced = registry.counter("me.ww.deduced")

    # -- trace handlers ------------------------------------------------------

    def on_write(self, trace: Trace, txn: TxnState) -> None:
        writes = trace.writes
        if self._metered:
            self._m_locks.inc(len(writes))
        acquire = self._state.locks.acquire
        txn_id = txn.txn_id
        interval = trace.interval
        for key in writes:
            acquire(txn_id, key, LockMode.EXCLUSIVE, interval)

    def on_read(self, trace: Trace, txn: TxnState) -> None:
        if trace.for_update:
            # SELECT ... FOR UPDATE claims exclusive locks under every spec
            # with a lock manager -- the paper's Bug 3 trigger.
            for key in trace.reads:
                self._state.locks.acquire(
                    txn.txn_id, key, LockMode.EXCLUSIVE, trace.interval
                )
            return
        if not self._spec.me_read_locks:
            return
        for key in trace.reads:
            self._state.locks.acquire(
                txn.txn_id, key, LockMode.SHARED, trace.interval
            )

    def on_terminal(self, txn: TxnState, trace: Trace, installed=None) -> None:
        """Close the transaction's locks and check each against conflicting
        finished locks (each conflicting pair is examined exactly once, by
        whichever transaction finishes second)."""
        released = self._state.locks.release_all(
            txn.txn_id, trace.interval, committed=txn.committed
        )
        if not released:
            return
        stats = self._state.stats
        pairs_before = stats.conflict_pairs
        for entry, conflicts in released:
            for other in conflicts:
                self._check_pair(entry, other)
        batch = self._dep_batch
        if self._metered and stats.conflict_pairs != pairs_before:
            # Every checked pair bumped ``conflict_pairs`` exactly once.
            self._m_pairs.inc(stats.conflict_pairs - pairs_before)
            self._m_deduced.inc(len(batch))
        if batch:
            self._emit_many(batch)
            batch.clear()

    # -- pair analysis ------------------------------------------------------------

    def _check_pair(self, entry: LockEntry, other: LockEntry) -> None:
        outcome = classify_pair(entry, other)
        overlapped = self._spans_overlap(entry, other)
        self._state.stats.conflict_pairs += 1
        if overlapped:
            self._state.stats.overlapped_pairs += 1
        if outcome is OrderOutcome.VIOLATION:
            self._state.descriptor.record(
                Violation(
                    mechanism=Mechanism.MUTUAL_EXCLUSION,
                    kind=ViolationKind.INCOMPATIBLE_LOCKS,
                    txns=tuple(sorted((entry.txn_id, other.txn_id))),
                    key=entry.key,
                    details=(
                        f"{entry.mode.value} lock of {entry.txn_id} "
                        f"(acquired {entry.acquire}, released {entry.release}) "
                        f"necessarily overlaps {other.mode.value} lock of "
                        f"{other.txn_id} (acquired {other.acquire}, released "
                        f"{other.release})"
                    ),
                )
            )
            return
        if outcome is OrderOutcome.UNCERTAIN:
            return
        if overlapped:
            self._state.stats.deduced_overlapped_pairs += 1
        if entry.mode is not LockMode.EXCLUSIVE or other.mode is not LockMode.EXCLUSIVE:
            # Shared/exclusive orders correspond to wr or rw dependencies,
            # which the CR mechanism deduces with version information; the
            # lock order alone does not identify which version was read.
            return
        if not (entry.committed and other.committed):
            return
        if outcome is OrderOutcome.FIRST_BEFORE_SECOND:
            src, dst = entry.txn_id, other.txn_id
        else:
            src, dst = other.txn_id, entry.txn_id
        self._dep_batch.append(
            Dependency(
                src=src,
                dst=dst,
                dep_type=DepType.WW,
                key=entry.key,
                source=Mechanism.MUTUAL_EXCLUSION,
            )
        )

    @staticmethod
    def _spans_overlap(entry: LockEntry, other: LockEntry) -> bool:
        """Whether the two lock *lifetimes* (acquire begin to release end)
        overlap -- the Fig. 13 notion of conflicting traces overlapping."""
        return not (
            entry.release.ts_aft <= other.acquire.ts_bef
            or other.release.ts_aft <= entry.acquire.ts_bef
        )
