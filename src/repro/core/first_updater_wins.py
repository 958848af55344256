"""First-updater-wins verification (Algorithm 2, lines 18-26).

Two committed transactions that both updated a record are *concurrent* when
neither took its snapshot after the other's commit; under FUW (snapshot
isolation's write rule) one of them must have been aborted, so observing
both commits is a lost-update violation (Fig. 8a).  When exactly one serial
order (commit-before-snapshot) is feasible, a ``ww`` dependency is deduced
(Fig. 8b, Theorem 4).

The pairwise interval check doubles as the paper's Fig. 3 base case: even
when the spec claims no FUW (so lost updates are legal and never flagged),
the deduced ``ww`` edges feed the other mechanisms -- this is how engines
verified through CR+SC alone (CockroachDB, FoundationDB) obtain their write
ordering.
"""

from __future__ import annotations

from typing import Callable, List

from .dependencies import Dependency, DepType
from .intervals import Interval
from .mechanism import MechanismVerifier
from .report import Mechanism, Violation, ViolationKind
from .spec import CertifierKind, IsolationSpec
from .state import TxnState, VerifierState
from .trace import INIT_TXN
from .versions import Version

EmitManyFn = Callable[[List[Dependency]], object]


class FirstUpdaterWinsVerifier(MechanismVerifier):
    """Mirrors the write-conflict (first updater/committer wins) rule."""

    name = "FUW"

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
        #: batch publication (``bus.publish_many``): ww deductions are
        #: collected across a commit's pair checks and delivered as one
        #: group -- the checks read only intervals and transaction
        #: metadata, so deferral preserves the dependency sequence.
        self._emit_many = emit_many
        #: reused deduction buffer for the per-commit batch.
        self._dep_batch: list = []
        registry = metrics if metrics is not None else NULL_REGISTRY
        #: counters are bumped once per commit, and not at all by an
        #: uninstrumented run.
        self._metered = registry.enabled
        #: committed-writer pairs whose snapshot/commit interval orders
        #: were checked (Fig. 8 / Theorem 4).
        self._m_pairs = registry.counter("fuw.interval_pairs.checked")
        self._m_writes = registry.counter("fuw.writes.checked")
        self._m_deduced = registry.counter("fuw.ww.deduced")

    def on_terminal(
        self, txn: TxnState, trace, installed: List[Version]
    ) -> None:
        if txn.committed:
            self.on_commit(txn, installed)

    def on_commit(self, txn: TxnState, installed: List[Version]) -> None:
        """Check each newly installed version against every other committed
        version of the same record.  Aborted transactions never reach here:
        their rolled-back updates cannot lose anybody's update."""
        state = self._state
        stats = state.stats
        chains = state.chains
        txn_id = txn.txn_id
        if not installed:
            return
        pairs_before = stats.conflict_pairs
        stats.writes_checked += len(installed)
        for version in installed:
            # The chain exists: ``installed`` came out of it at commit.
            chain = chains[version.key]
            for other in chain.iter_committed():
                other_txn_id = other.txn_id
                if other_txn_id == txn_id or other_txn_id == INIT_TXN:
                    continue
                self._check_pair(txn, version, other)
        batch = self._dep_batch
        if self._metered:
            # Every checked pair bumped ``conflict_pairs`` exactly once.
            self._m_writes.inc(len(installed))
            self._m_pairs.inc(stats.conflict_pairs - pairs_before)
            self._m_deduced.inc(len(batch))
        if batch:
            self._emit_many(batch)
            batch.clear()

    # -- pair analysis -------------------------------------------------------------

    def _check_pair(self, txn: TxnState, version: Version, other: Version) -> None:
        other_txn = self._state.get_txn(other.txn_id)
        if other_txn is None or other_txn.first_interval is None:
            # The peer predates the GC horizon: it is definitely older, its
            # node left the dependency graph, and by Theorem 5 it cannot be
            # part of any future violation.
            return
        snapshot = txn.snapshot_interval()
        commit = txn.terminal_interval
        other_snapshot = other_txn.snapshot_interval()
        other_commit = other.commit
        if snapshot is None or commit is None or other_commit is None:
            return
        # An order "u then t" is feasible iff u's commit can precede t's
        # snapshot generation; symmetrically for "t then u".
        other_first = other_commit.can_precede(snapshot)
        self_first = commit.can_precede(other_snapshot)
        overlapped = self._spans_overlap(snapshot, commit, other_snapshot, other_commit)
        self._state.stats.conflict_pairs += 1
        if overlapped:
            self._state.stats.overlapped_pairs += 1
        if not other_first and not self_first:
            if self._spec.fuw:
                mechanism, detail = Mechanism.FIRST_UPDATER_WINS, (
                    "every order places each snapshot before the other's "
                    "commit"
                )
            elif self._spec.certifier is CertifierKind.FIRST_COMMITTER:
                # Percolator-style engines enforce the same rule in their
                # commit certifier rather than at write time.
                mechanism, detail = Mechanism.SERIALIZATION_CERTIFIER, (
                    "the first-committer-wins certifier must have aborted "
                    "the later writer"
                )
            else:
                return  # lost updates are permitted at this level
            self._state.descriptor.record(
                Violation(
                    mechanism=mechanism,
                    kind=ViolationKind.LOST_UPDATE,
                    txns=tuple(sorted((txn.txn_id, other.txn_id))),
                    key=version.key,
                    details=(
                        f"{txn.txn_id} and {other.txn_id} committed "
                        f"concurrent updates: {detail}"
                    ),
                    evidence={
                        "snapshot": snapshot,
                        "commit": commit,
                        "other_snapshot": other_snapshot,
                        "other_commit": other_commit,
                    },
                )
            )
            return
        if other_first and self_first:
            # Both serial orders remain feasible: order uncertain.
            return
        if overlapped:
            self._state.stats.deduced_overlapped_pairs += 1
        if other_first:
            src, dst = other.txn_id, txn.txn_id
        else:
            src, dst = txn.txn_id, other.txn_id
        self._dep_batch.append(
            Dependency(
                src=src,
                dst=dst,
                dep_type=DepType.WW,
                key=version.key,
                source=Mechanism.FIRST_UPDATER_WINS,
            )
        )

    @staticmethod
    def _spans_overlap(
        snapshot: Interval,
        commit: Interval,
        other_snapshot: Interval,
        other_commit: Interval,
    ) -> bool:
        """Whether the two transactions' execution spans (snapshot begin to
        commit end) overlap."""
        return not (
            commit.ts_aft <= other_snapshot.ts_bef
            or other_commit.ts_aft <= snapshot.ts_bef
        )
