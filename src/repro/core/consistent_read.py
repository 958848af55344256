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
check complete without ever waiting on a timeout.  Deferral is one entry
per read trace, and the check is one pass per finished transaction
(:meth:`ConsistentReadVerifier.on_terminal`): it binds the snapshot, the
chain table and the counters once, reads a chain holding a single committed
version directly and asks :meth:`VersionChain.classify` only about longer
ones.

Besides detecting violations the mechanism *deduces* ``wr`` dependencies:
when exactly one candidate matches, the write that installed it must have
happened before the read even if their trace intervals overlap.
"""

from __future__ import annotations

from typing import Optional

from .intervals import Interval
from .mechanism import MechanismVerifier
from .report import Mechanism, Violation, ViolationKind
from .spec import CRLevel, IsolationSpec
from .state import TxnState, VerifierState
from .trace import (
    TOMBSTONE_COLUMN as _TOMB,
    Trace,
    apply_delta,
    is_tombstone,
)


class ConsistentReadVerifier(MechanismVerifier):
    """Mirrors the consistent-read mechanism of the DBMS under test."""

    name = "CR"

    def __init__(
        self,
        state: VerifierState,
        spec: IsolationSpec,
        on_read_matches=None,
        minimal: bool = True,
        metrics=None,
    ):
        from .metrics import NULL_REGISTRY

        self._state = state
        self._spec = spec
        #: stable per-state handles pre-bound for the read pass (the dict
        #: and stats objects live as long as the state).
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
        #: operation (Definition 2), bound once per read pass.
        self._txn_snapshot = spec.cr is CRLevel.TRANSACTION
        #: called with a list of ``(version, reader_txn_id)`` pairs, one
        #: per read uniquely matched to a version; the Fig. 9 deriver uses
        #: it to record the wr dependencies and derive the rw
        #: anti-dependencies.
        self._on_read_matches = on_read_matches
        #: stale/future reads are violations only when the spec claims CR;
        #: dirty reads and reads of never-written values are always bugs.
        self._flag_stale = spec.uses_cr
        #: the finished transaction's unique matches, awaiting delivery to
        #: the deriver.  :meth:`on_terminal` only queues them; the verifier
        #: calls :meth:`drain_matches` right after it, as a separate step,
        #: so the derivation (and the certifier work it triggers) is billed
        #: to the deriver instead of inflating the CR bucket.
        self._match_queue: list = []

    # -- trace handlers ---------------------------------------------------------

    def on_read(self, trace: Trace, txn: TxnState) -> None:
        """Defer the read trace until the transaction finishes.  The entry
        is ``(trace, own)``: ``own`` is None unless the transaction already
        wrote one of the keys it is reading, and then maps each such key to
        a copy of its own-write image as of this point of the program."""
        own = None
        own_images = txn.own_images
        if own_images:
            own = {
                key: dict(image)
                for key in trace.reads
                if (image := own_images.get(key))
            } or None
        txn.pending_reads.append((trace, own))

    def on_terminal(self, txn: TxnState, trace=None, installed=None) -> None:
        """The read pass: every deferred read of the finished transaction,
        in program order, in one loop.  A chain holding one committed
        version -- the steady state under GC -- is read directly; only
        longer chains are classified (Fig. 6)."""
        pending = txn.pending_reads
        if not pending:
            return
        state = self._state
        chains_get = self._chains_get
        # Resolved per pass: the exchange-dependencies ablation swaps
        # ``state.ww_order`` after assembly.
        ww_order = state.ww_order
        minimal = self._minimal
        metered = self._metered
        observe = self._m_candidates.observe
        # Dependencies are defined between *committed* transactions
        # (Section II-A): an aborted reader's checks still run, but it
        # contributes no graph node.
        queue = (
            self._match_queue
            if txn.committed and self._on_read_matches is not None
            else None
        )
        reader = txn.txn_id
        # Transaction-level CR generates the snapshot at the first
        # operation (Definition 2); statement-level CR, and the fallback
        # when no CR is claimed, during the read operation itself.
        snapshot = txn.first_interval if self._txn_snapshot else None
        per_statement = snapshot is None
        if not per_statement:
            snap_bef = snapshot.ts_bef
            snap_aft = snapshot.ts_aft
        checked = conflicts = overlaps = deduced = unique = ambiguous = 0
        scans = []
        for read, own in pending:
            if per_statement:
                snapshot = read.interval
                snap_bef = snapshot.ts_bef
                snap_aft = snapshot.ts_aft
            if read.predicate is not None:
                # Scan completeness runs after every read of the
                # transaction, so violations keep their report order.
                scans.append((read, snapshot))
            checked += len(read.reads)
            for key, observed in read.reads.items():
                own_delta = own.get(key) if own is not None else None
                if own_delta is not None and all(
                    column in own_delta for column in observed
                ):
                    # First CR case: columns covered by the transaction's
                    # own earlier writes must reflect them exactly.
                    if any(
                        own_delta[column] != value
                        for column, value in observed.items()
                    ):
                        self._violation(
                            ViolationKind.OWN_WRITE_LOST,
                            txn,
                            read,
                            key,
                            f"read {dict(observed)!r} but the transaction "
                            f"previously wrote {own_delta!r}",
                        )
                    continue
                chain = chains_get(key)
                if chain is None:
                    chain = state.chain(key)
                versions = chain._chain  # iter_committed(), minus the call
                if not versions and observed.get(_TOMB):
                    # The row never existed and the read observed its
                    # absence.
                    continue
                if minimal and len(versions) > 1:
                    candidates = chain.classify(snapshot, ww_order).candidates
                else:
                    # One committed version is the candidate unless it is
                    # definitely invisible, which the test below decides:
                    # two float comparisons, no history touched.  (The
                    # naive ablation takes every committed version and
                    # skips that test.)
                    candidates = versions
                n_candidates = n_matches = 0
                overlapped = False
                for version in candidates:
                    commit = version.commit
                    if (
                        minimal
                        and commit is not None
                        and snap_aft <= commit.ts_bef
                    ):
                        # Committed entirely after the snapshot was
                        # generated: can never be visible.
                        continue
                    n_candidates += 1
                    image = version.image
                    if own_delta is not None:
                        image = dict(image)
                        apply_delta(image, own_delta)
                    # ``reads_match`` inlined: it runs once per candidate
                    # per read.
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
                    if matched:
                        n_matches += 1
                        match = version
                        at = commit if commit is not None else version.install
                        if not (at.ts_aft <= snap_bef or snap_aft <= at.ts_bef):
                            overlapped = True
                if metered:
                    observe(n_candidates)
                if not n_matches:
                    self._diagnose_miss(txn, read, key, snapshot, chain)
                    continue
                conflicts += 1
                if overlapped:
                    overlaps += 1
                if n_matches == 1:
                    unique += 1
                    if overlapped:
                        deduced += 1
                    if queue is not None:
                        queue.append((match, reader))
                else:
                    # More than one match: the read is legal but the exact
                    # version read is uncertain (duplicate values, Fig. 13's
                    # SmallBank residue).
                    ambiguous += 1
        pending.clear()
        stats = self._stats
        stats.reads_checked += checked
        stats.conflict_pairs += conflicts
        stats.overlapped_pairs += overlaps
        stats.deduced_overlapped_pairs += deduced
        if metered:
            self._m_reads.inc(checked)
            self._m_unique.inc(unique)
            self._m_ambiguous.inc(ambiguous)
        for read, snapshot in scans:
            self._check_scan(txn, read, snapshot)

    def drain_matches(self) -> None:
        """Hand the queued unique matches to the deriver as one batch, in
        check order."""
        queue = self._match_queue
        if queue:
            self._on_read_matches(queue)
            queue.clear()

    # -- scan completeness (phantom rows) -----------------------------------------

    def _check_scan(self, txn: TxnState, trace: Trace, snapshot: Interval) -> None:
        """Every row *definitely visible* at the scan's snapshot and
        matching its predicate must appear in the result set; a miss is a
        phantom-class CR violation (the scan did not evaluate against a
        consistent snapshot)."""
        if not self._flag_stale:
            return  # no CR claim: scan freshness is not promised
        if self._metered:
            self._m_scans.inc()
        predicate = trace.predicate
        observed_keys = trace.reads
        missing = []
        for key, chain in self._state.chains.items():
            if key in observed_keys or not predicate.matches(key):
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
            if predicate.matches(key) and key not in observed_keys:
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
                    evidence={"scan_interval": trace.interval},
                )
            )

    # -- diagnosis ----------------------------------------------------------------

    def _diagnose_miss(
        self,
        txn: TxnState,
        trace: Trace,
        key,
        snapshot: Interval,
        chain,
    ) -> None:
        """No candidate matched: name the violation as precisely as the
        traces allow."""
        observed = trace.reads[key]
        if is_tombstone(observed):
            # The read claims the row was absent, yet a live version is in
            # the candidate set (or the row never died): a missing-row
            # violation of the phantom family.
            if self._flag_stale:
                self._violation(
                    ViolationKind.PHANTOM,
                    txn,
                    trace,
                    key,
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
                        trace,
                        key,
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
                        trace,
                        key,
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
                trace,
                key,
                f"read uncommitted/aborted data written by {version.txn_id}",
                other=version.txn_id,
            )
            return
        self._violation(
            ViolationKind.UNKNOWN_VERSION,
            txn,
            trace,
            key,
            f"observed {dict(observed)!r}, which no traced write produced",
        )

    def _violation(
        self,
        kind: ViolationKind,
        txn: TxnState,
        trace: Trace,
        key,
        details: str,
        other: Optional[str] = None,
    ) -> None:
        txns = (txn.txn_id,) if other is None else tuple(sorted((txn.txn_id, other)))
        self._state.descriptor.record(
            Violation(
                mechanism=Mechanism.CONSISTENT_READ,
                kind=kind,
                txns=txns,
                key=key,
                details=details,
                evidence={
                    "read_interval": trace.interval,
                    "observed": dict(trace.reads[key]),
                },
            )
        )
