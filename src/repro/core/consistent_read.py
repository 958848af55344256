"""Consistent-read verification (Algorithm 2, lines 1-9).

For every read the mechanism computes the minimal candidate version set of
the record against the read's snapshot-generation interval (transaction- or
statement-level, per the spec) and checks that the observation matches at
least one candidate -- additionally folding in the transaction's own
earlier writes, the first CR case of Section V-A.

Reads are checked when their transaction's terminal trace arrives.  By
Theorem 1 the dispatch order is monotone in before-timestamps, and every
write whose version could fall in the candidate set has a before-timestamp
smaller than the reader's terminal before-timestamp, so deferral makes the
check complete without ever waiting on a timeout.

Besides detecting violations the mechanism *deduces* ``wr`` dependencies:
when exactly one candidate matches, the write that installed it must have
happened before the read even if their trace intervals overlap.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .dependencies import Dependency
from .intervals import Interval
from .mechanism import MechanismContext, MechanismVerifier, register_mechanism
from .report import Mechanism, Violation, ViolationKind
from .spec import CRLevel, IsolationSpec
from .state import PendingRead, PendingScan, TxnState, VerifierState
from .trace import (
    TOMBSTONE_COLUMN as _TOMB,
    Trace,
    apply_delta,
    is_tombstone,
    reads_match,
)
from .versions import Version

EmitFn = Callable[[Dependency], None]


@register_mechanism("CR", order=40)
class ConsistentReadVerifier(MechanismVerifier):
    """Mirrors the consistent-read mechanism of the DBMS under test."""

    name = "CR"

    def __init__(
        self,
        state: VerifierState,
        spec: IsolationSpec,
        emit: EmitFn,
        on_read_match=None,
        minimal: bool = True,
        check_aborted_reads: bool = True,
        metrics=None,
    ):
        from .metrics import NULL_REGISTRY

        self._state = state
        self._spec = spec
        self._emit = emit
        #: stable per-state handles pre-bound for the per-read hot path
        #: (the dict and stats objects live as long as the state; only
        #: ``state.ww_order`` stays dynamically resolved -- the
        #: exchange-dependencies ablation swaps it after assembly).
        self._chains_get = state.chains.get
        self._stats = state.stats
        registry = metrics if metrics is not None else NULL_REGISTRY
        #: an uninstrumented run executes no instrument call per read or
        #: per scan: every call below sits behind this one boolean.
        self._metered = registry.enabled
        #: size of the (minimal) candidate version set per checked read --
        #: the quantity the Fig. 6 optimisation shrinks.
        self._m_candidates = registry.histogram("cr.candidate_set.size")
        self._m_reads = registry.counter("cr.reads.checked")
        self._m_unique = registry.counter("cr.reads.unique_match")
        self._m_ambiguous = registry.counter("cr.reads.ambiguous")
        self._m_scans = registry.counter("cr.scans.checked")
        #: use the Fig. 6 minimal candidate set (False = naive ablation:
        #: every committed version is a candidate, weakening the check).
        self._minimal = minimal
        #: transaction-level CR: snapshots are generated at the first
        #: operation (Definition 2), hoisted out of the per-read check.
        self._txn_snapshot = spec.cr is CRLevel.TRANSACTION
        #: called with (version, reader_txn_id) when a read is uniquely
        #: matched to a version; the Fig. 9 deriver uses it to record the
        #: wr dependency and derive the rw anti-dependency.
        self._on_read_match = on_read_match
        #: stale/future reads are violations only when the spec claims CR;
        #: dirty reads and reads of never-written values are always bugs.
        self._flag_stale = spec.uses_cr
        #: whether reads of aborted transactions are still checked (they
        #: must be by default: an engine may not serve inconsistent data
        #: even to a transaction that later rolls back).
        self._check_aborted = check_aborted_reads
        #: uniquely-matched reads awaiting delivery to the deriver as
        #: ``(version, reader_txn_id)`` pairs.  By default they are drained
        #: at the end of :meth:`on_terminal`; the verifier flips
        #: :meth:`enable_deferred_matches` so it can drain them *after*
        #: CR's timed window closes -- the derivation (and the certifier
        #: work it triggers) is then billed to the deriver instead of
        #: inflating the CR bucket.  Delivery order and the position of the
        #: drain relative to the certifier's terminal hook are unchanged,
        #: so reports are byte-identical either way.
        self._match_queue: list = []
        self._defer_matches = False

    @classmethod
    def build(cls, ctx: MechanismContext) -> "ConsistentReadVerifier":
        deriver = ctx.shared.get("rw_deriver")
        return cls(
            ctx.state,
            ctx.spec,
            ctx.bus.publish,
            on_read_match=(
                deriver.on_read_match
                if deriver is not None
                else ctx.options.get("on_read_match")
            ),
            minimal=ctx.options.get("minimize_candidates", True),
            check_aborted_reads=ctx.options.get("check_aborted_reads", True),
            metrics=ctx.metrics,
        )

    # -- trace handlers ---------------------------------------------------------

    def on_read(self, trace: Trace, txn: TxnState) -> None:
        """Defer the read until the transaction finishes, capturing the
        own-write context visible at this point of the program."""
        append = txn.pending_reads.append
        own_delta_for = txn.own_delta_for
        for key, observed in trace.reads.items():
            append((trace, key, observed, own_delta_for(key)))
        if trace.predicate is not None:
            txn.pending_scans.append(
                PendingScan(
                    trace=trace, observed_keys=frozenset(trace.reads)
                )
            )

    def on_terminal(self, txn: TxnState, trace=None, installed=None) -> None:
        if not txn.committed and not self._check_aborted:
            # Ablation: aborted transactions' reads go unchecked.
            txn.pending_reads.clear()
            return
        pending_reads = txn.pending_reads
        if pending_reads:
            # Per-read counters batched here so the check itself stays
            # free of bookkeeping (every pending read is checked exactly
            # once, early returns included).
            self._stats.reads_checked += len(pending_reads)
            if self._metered:
                self._m_reads.inc(len(pending_reads))
            check = self._check_read
            for pending in pending_reads:
                check(txn, pending)
            pending_reads.clear()
        if txn.pending_scans:
            for scan in txn.pending_scans:
                self._check_scan(txn, scan)
            txn.pending_scans.clear()
        if self._match_queue and not self._defer_matches:
            self.drain_matches()

    def enable_deferred_matches(self):
        """Switch unique-match delivery from inline (end of
        :meth:`on_terminal`) to caller-drained, and hand back the drain
        hook.  Used by the verifier's terminal dispatch to attribute
        derivation time to the deriver rather than to CR."""
        self._defer_matches = True
        return self.drain_matches

    def drain_matches(self) -> None:
        """Deliver queued unique matches to the deriver, in check order."""
        queue = self._match_queue
        if queue:
            deliver = self._on_read_match
            for version, reader in queue:
                deliver(version, reader)
            queue.clear()

    # -- the CR check -------------------------------------------------------------

    def _snapshot_interval(self, txn: TxnState, pending: PendingRead) -> Interval:
        if self._spec.cr is CRLevel.TRANSACTION and txn.first_interval is not None:
            return txn.first_interval
        # Statement-level CR, and the fallback when no CR is claimed: the
        # snapshot is generated during the read operation itself.
        return pending[0].interval

    def _check_read(self, txn: TxnState, pending: PendingRead) -> None:
        # Counters are batch-incremented by :meth:`on_terminal`.
        trace, key, observed, own_delta = pending
        # Inline _snapshot_interval for the per-read hot path.
        if self._txn_snapshot and txn.first_interval is not None:
            snapshot = txn.first_interval
        else:
            snapshot = trace.interval

        # First CR case: columns covered by the transaction's own earlier
        # writes must reflect them exactly.
        own_covered = own_delta and all(col in own_delta for col in observed)
        if own_covered:
            if all(own_delta[col] == val for col, val in observed.items()):
                return
            self._violation(
                ViolationKind.OWN_WRITE_LOST,
                txn,
                pending,
                f"read {dict(observed)!r} but the transaction previously "
                f"wrote {own_delta!r}",
            )
            return

        state = self._state
        chain = self._chains_get(key)
        if chain is None:
            chain = state.chain(key)
        if not chain._chain and observed.get(_TOMB):
            # The row never existed and the read observed its absence.
            # (``chain._chain``/``_TOMB`` dodge the ``__len__`` and
            # ``is_tombstone`` calls on this per-read path.)
            return
        minimal = self._minimal
        if minimal:
            raw_candidates = chain.classify(
                snapshot, state.ww_order
            ).candidates
        else:
            raw_candidates = chain.committed_versions()
        snap_aft = snapshot.ts_aft
        metered = self._metered
        if minimal and not own_delta and len(raw_candidates) == 1:
            # The dominant shape under the Fig. 6 minimal set: exactly one
            # candidate (the pivot) and no own writes.  Same checks and
            # bookkeeping as the general pass below, without the list and
            # loop machinery; ``reads_match`` is inlined (tombstone guards,
            # then per-column comparison).
            version = raw_candidates[0]
            commit = version.commit
            if commit is not None and snap_aft <= commit.ts_bef:
                if metered:
                    self._m_candidates.observe(0)
                self._diagnose_miss(txn, pending, snapshot, chain, observed)
                return
            if metered:
                self._m_candidates.observe(1)
            image = version.image
            if observed.get(_TOMB):
                matched = bool(image.get(_TOMB))
            elif image.get(_TOMB):
                matched = False
            else:
                matched = True
                image_get = image.get
                for column, value in observed.items():
                    if image_get(column) != value:
                        matched = False
                        break
            if not matched:
                self._diagnose_miss(txn, pending, snapshot, chain, observed)
                return
            stats = self._stats
            stats.conflict_pairs += 1
            installed = commit if commit is not None else version.install
            if not (
                installed.ts_aft <= snapshot.ts_bef
                or snap_aft <= installed.ts_bef
            ):
                stats.overlapped_pairs += 1
                stats.deduced_overlapped_pairs += 1
            if metered:
                self._m_unique.inc()
            if txn.committed and self._on_read_match is not None:
                self._match_queue.append((version, txn.txn_id))
            return
        # One pass: visibility filter (minimal mode only, inlined
        # _definitely_invisible) and observation matching together.
        n_candidates = 0
        matches = []
        for version in raw_candidates:
            if minimal:
                commit = version.commit
                if commit is not None and snap_aft <= commit.ts_bef:
                    continue
            n_candidates += 1
            if own_delta:
                if self._matches_with_own(version, observed, own_delta):
                    matches.append(version)
            elif reads_match(observed, version.image):
                matches.append(version)
        if metered:
            self._m_candidates.observe(n_candidates)
        if not matches:
            self._diagnose_miss(txn, pending, snapshot, chain, observed)
            return
        stats = self._stats
        stats.conflict_pairs += 1
        # Inlined Interval.overlaps over the (usually single-element) match
        # list: three method calls per read otherwise.
        snap_bef = snapshot.ts_bef
        overlapped = False
        for v in matches:
            installed = v.effective_install
            if not (
                installed.ts_aft <= snap_bef or snap_aft <= installed.ts_bef
            ):
                overlapped = True
                break
        if overlapped:
            stats.overlapped_pairs += 1
        if len(matches) == 1:
            if metered:
                self._m_unique.inc()
            version = matches[0]
            if overlapped:
                stats.deduced_overlapped_pairs += 1
            # Dependencies are defined between *committed* transactions
            # (Section II-A); an aborted reader's checks still ran above,
            # but it contributes no graph node.  Queued rather than
            # delivered inline; see :meth:`drain_matches`.
            if txn.committed and self._on_read_match is not None:
                self._match_queue.append((version, txn.txn_id))
        else:
            # More than one match: the read is legal but the exact version
            # read is uncertain (duplicate values, Fig. 13's SmallBank
            # residue).
            if metered:
                self._m_ambiguous.inc()

    # -- scan completeness (phantom rows) -----------------------------------------

    def _check_scan(self, txn: TxnState, scan: PendingScan) -> None:
        """Every row *definitely visible* at the scan's snapshot and
        matching its predicate must appear in the result set; a miss is a
        phantom-class CR violation (the scan did not evaluate against a
        consistent snapshot)."""
        if not self._flag_stale:
            return  # no CR claim: scan freshness is not promised
        if self._metered:
            self._m_scans.inc()
        predicate = scan.trace.predicate
        snapshot = self._snapshot_interval(txn, (scan.trace, None, {}, {}))
        missing = []
        for key, chain in self._state.chains.items():
            if key in scan.observed_keys or not predicate.matches(key):
                continue
            classification = chain.classify(snapshot)
            # The row must appear iff its visible version is live in every
            # possible world: a pivot exists (something is certainly
            # visible) and no candidate is a tombstone (whatever is
            # visible, it is live).
            if classification.pivot is not None and all(
                not is_tombstone(version.image)
                for version in classification.candidates
            ):
                missing.append((key, classification.pivot.txn_id))
        for key in self._state.initial_only_keys():
            if predicate.matches(key) and key not in scan.observed_keys:
                missing.append((key, "__init__"))
        for key, writer in missing:
            self._state.descriptor.record(
                Violation(
                    mechanism=Mechanism.CONSISTENT_READ,
                    kind=ViolationKind.PHANTOM,
                    txns=tuple(sorted({txn.txn_id, writer})),
                    key=key,
                    details=(
                        f"scan {predicate} missed row {key!r}, whose version "
                        f"by {writer} was committed before the snapshot "
                        f"{snapshot}"
                    ),
                    evidence={"scan_interval": scan.trace.interval},
                )
            )

    @staticmethod
    def _definitely_invisible(version: Version, snapshot: Interval) -> bool:
        """A committed version whose commit interval lies entirely after the
        snapshot-generation interval can never be visible (the snapshot was
        complete before the version existed)."""
        return version.commit is not None and snapshot.precedes(version.commit)

    @staticmethod
    def _matches_with_own(
        version: Version, observed, own_delta: Dict[str, object]
    ) -> bool:
        if not own_delta:
            return version.matches(observed)
        from .trace import reads_match

        image = dict(version.image)
        apply_delta(image, own_delta)
        return reads_match(observed, image)

    # -- diagnosis ----------------------------------------------------------------

    def _diagnose_miss(
        self,
        txn: TxnState,
        pending: PendingRead,
        snapshot: Interval,
        chain,
        observed,
    ) -> None:
        """No candidate matched: name the violation as precisely as the
        traces allow."""
        if is_tombstone(observed):
            # The read claims the row was absent, yet a live version is in
            # the candidate set (or the row never died): a missing-row
            # violation of the phantom family.
            if self._flag_stale:
                self._violation(
                    ViolationKind.PHANTOM,
                    txn,
                    pending,
                    "read observed the row as absent although a visible "
                    "version was committed before the snapshot",
                )
            return
        committed_matches = chain.find_matching_committed(observed)
        if committed_matches:
            version = committed_matches[0]
            if snapshot.precedes(version.effective_install):
                if self._flag_stale:
                    self._violation(
                        ViolationKind.FUTURE_READ,
                        txn,
                        pending,
                        f"read version installed by {version.txn_id} whose "
                        f"installation {version.install} lies after the "
                        f"snapshot {snapshot}",
                        other=version.txn_id,
                    )
            else:
                if self._flag_stale:
                    self._violation(
                        ViolationKind.STALE_READ,
                        txn,
                        pending,
                        f"read an overwritten (garbage) version installed "
                        f"by {version.txn_id}",
                        other=version.txn_id,
                    )
            return
        pending_matches = chain.find_matching_pending(observed)
        if pending_matches:
            version = pending_matches[0]
            self._violation(
                ViolationKind.DIRTY_READ,
                txn,
                pending,
                f"read uncommitted/aborted data written by {version.txn_id}",
                other=version.txn_id,
            )
            return
        self._violation(
            ViolationKind.UNKNOWN_VERSION,
            txn,
            pending,
            f"observed {dict(observed)!r}, which no traced write produced",
        )

    def _violation(
        self,
        kind: ViolationKind,
        txn: TxnState,
        pending: PendingRead,
        details: str,
        other: Optional[str] = None,
    ) -> None:
        txns = (txn.txn_id,) if other is None else tuple(sorted((txn.txn_id, other)))
        self._state.descriptor.record(
            Violation(
                mechanism=Mechanism.CONSISTENT_READ,
                kind=kind,
                txns=txns,
                key=pending[1],
                details=details,
                evidence={
                    "read_interval": pending[0].interval,
                    "observed": dict(pending[2]),
                },
            )
        )
