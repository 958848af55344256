"""Shared mutable state of a verification run.

The four mechanisms of Algorithm 2 run against the same mirrored internal
state -- version chains, lock table, dependency graph, per-transaction
metadata -- and continuously exchange the dependencies they deduce
(Section V-A, "we verify the four mechanisms in parallel and continuously
transfer the deduced dependencies between them").  This module holds that
state; the mechanism modules operate on it and the verifier orchestrates.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from .dependencies import DependencyGraph
from .intervals import Interval
from .locktable import LockTable
from .report import BugDescriptor, VerificationStats
from .trace import Key, Trace, apply_delta
from .versions import Version, VersionChain


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


#: A read trace deferred until its transaction's terminal trace, as a plain
#: ``(trace, own)`` tuple.  ``own`` is None unless the transaction had
#: already written one of the keys the trace reads; then it maps each such
#: key to a copy of the transaction's merged own writes to it at the moment
#: of the read (first CR case: a transaction sees its own changes).  A
#: predicate read is an entry whose ``trace.predicate`` is set; the keys it
#: observed are ``trace.reads``.  Deferral guarantees that every write
#: trace able to influence a read's candidate version set has already been
#: dispatched (its before-timestamp is provably smaller than the reader's
#: terminal before-timestamp).
PendingRead = Tuple[Trace, Optional[Dict[Key, Dict[str, object]]]]


@dataclass(slots=True)
class TxnState:
    """Everything the verifier mirrors about one transaction."""

    txn_id: str
    client_id: int
    first_interval: Optional[Interval] = None
    status: TxnStatus = TxnStatus.ACTIVE
    #: the commit or abort trace's interval -- for a committed transaction
    #: also its dependency-graph node's commit interval (the collector
    #: reads it here).
    terminal_interval: Optional[Interval] = None
    pending_reads: List[PendingRead] = field(default_factory=list)
    #: keys written, with the staged Version objects.
    staged_versions: List[Version] = field(default_factory=list)
    #: running merge of own writes per key (for own-read visibility).
    own_images: Dict[Key, Dict[str, object]] = field(default_factory=dict)
    #: versions whose ``readers`` set holds this transaction's id (one per
    #: uniquely matched read): metadata GC takes the id back out of them.
    matched_versions: List[Version] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.status is not TxnStatus.ACTIVE

    @property
    def committed(self) -> bool:
        return self.status is TxnStatus.COMMITTED

    def snapshot_interval(self) -> Optional[Interval]:
        """Transaction-level snapshot generation interval (Definition 2):
        the interval of the transaction's first operation."""
        return self.first_interval

    def merge_own_write(self, key: Key, columns: Mapping[str, object]) -> None:
        apply_delta(self.own_images.setdefault(key, {}), columns)


class VerifierState:
    """The mirrored internal state shared by all four mechanisms."""

    def __init__(
        self,
        initial_db: Optional[Mapping[Key, Mapping[str, object]]] = None,
    ):
        self.chains: Dict[Key, VersionChain] = {}
        self.locks = LockTable()
        self.graph = DependencyGraph()
        self.txns: Dict[str, TxnState] = {}
        self.descriptor = BugDescriptor()
        self.stats = VerificationStats()
        #: before-timestamp of the most recently processed trace; the
        #: monotone dispatch order makes this a watermark over all clients.
        self.watermark: float = float("-inf")
        self._initial_db = dict(initial_db or {})
        #: chains that could have prunable versions (two or more committed
        #: versions, or aborted residue).  The verifier marks chains here at
        #: commit/abort so version GC visits only candidates instead of
        #: sweeping every chain (the sweep dominated collection cost once
        #: steady-state chains shrank to one version).
        self.gc_version_candidates: Dict[Key, VersionChain] = {}
        #: min-heap of ``(terminal ts_aft, txn_id)`` pushed as transactions
        #: finish; transaction-metadata GC pops entries behind the horizon
        #: instead of sweeping the whole ``txns`` table each collection.
        self.terminal_heap: List[Tuple[float, str]] = []

    # -- accessors -----------------------------------------------------------

    def initial_only_keys(self):
        """Keys present in the initial database that no trace has touched
        yet (they have no chain object, but their initial version is
        definitely visible to every snapshot)."""
        return [key for key in self._initial_db if key not in self.chains]

    def chain(self, key: Key) -> VersionChain:
        existing = self.chains.get(key)
        if existing is None:
            initial = self._initial_db.get(key)
            existing = VersionChain(key, initial_image=initial)
            self.chains[key] = existing
        return existing

    def ensure_txn(
        self,
        txn_id: str,
        client_id: int,
        interval: Optional[Interval] = None,
    ) -> TxnState:
        """Materialise a transaction's state before any of its traces route
        here.  The parallel path broadcasts per-transaction "begin" controls
        so every shard knows the *true* first-operation interval (the
        snapshot-generation interval of Definition 2) even when the
        transaction's first operation touched keys owned by another shard.
        """
        state = self.txns.get(txn_id)
        if state is None:
            state = TxnState(txn_id=txn_id, client_id=client_id)
            self.txns[txn_id] = state
        if state.first_interval is None and interval is not None:
            state.first_interval = interval
        return state

    def get_txn(self, txn_id: str) -> Optional[TxnState]:
        return self.txns.get(txn_id)

    def note_terminal(self, txn_id: str, ts_aft: float) -> None:
        """Register a finished transaction with the terminal-timestamp
        heap (the metadata-GC index).  Every path that moves a transaction
        out of ACTIVE calls this, or its metadata is never pruned."""
        heapq.heappush(self.terminal_heap, (ts_aft, txn_id))

    def earliest_unverified_snapshot(self) -> float:
        """``S_e`` of Definition 4: the earliest snapshot-generation
        timestamp any unverified trace can still reference.  Active
        transactions pin their first-operation timestamps; everything else
        is bounded below by the dispatch watermark."""
        floor = self.watermark
        for txn in self.txns.values():
            if not txn.finished and txn.first_interval is not None:
                floor = min(floor, txn.first_interval.ts_bef)
        return floor

    # -- ww order oracle --------------------------------------------------------

    def ww_order(self, a: Version, b: Version) -> Optional[bool]:
        """Whether version ``a``'s transaction is known (deduced ww) to
        precede version ``b``'s; None when undetermined."""
        from .dependencies import DepType  # local import avoids cycle at load

        if a.txn_id == b.txn_id:
            return None
        if self.graph.has_edge_type(a.txn_id, b.txn_id, DepType.WW):
            return True
        if self.graph.has_edge_type(b.txn_id, a.txn_id, DepType.WW):
            return False
        return None

    # -- memory accounting (benchmarks) -------------------------------------------

    def live_structure_count(self) -> int:
        """Number of retained verifier structures; the memory axis of the
        Fig. 10/14 experiments (see DESIGN.md substitution table)."""
        versions = sum(
            len(chain) + chain.pending_count() for chain in self.chains.values()
        )
        return (
            versions
            + self.locks.live_entry_count()
            + len(self.graph)
            + self.graph.edge_count
            + len(self.txns)
        )
