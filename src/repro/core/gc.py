"""Garbage collection of mirrored verifier structures.

Long-running workloads grow every mirrored structure without bound; the
paper prunes asynchronously (Sections V-A, V-B, V-D).  A collection is one
pass driven by the horizon ``S_e`` -- the earliest snapshot timestamp any
unverified trace can still reference -- over the three rules behind the
flat memory curves of Figs. 10 and 14:

* **garbage transactions** (Definition 4 / Theorem 5): in-degree zero in
  the dependency graph and finished before ``S_e`` -- provably never part
  of a future cycle.  The worklist starts from the zero-in-degree frontier
  the graph maintains and grows only by the successors each removal
  promotes;
* **garbage versions** (Fig. 6 applied at the horizon): definitely
  overwritten before any live snapshot.  Chains are sorted by effective
  after-timestamp, so the definitely-before versions are a prefix; when
  its last member -- the pivot -- is alone at its timestamp and its
  neighbour does not overlap it, everything under the pivot is garbage and
  leaves as one slice.  Cumulative images keep the survivors
  self-contained;
* **transaction metadata and lock entries** (Section V-B): a terminal
  after-timestamp behind ``S_e`` and no node left in the graph.  Entries
  come off a terminal-timestamp heap, and a lock's release interval *is*
  its owner's terminal interval, so the pop that retires a transaction
  retires its locks with it -- they can only ever order *before* future
  locks, never conflict.

Every step is indexed: a collection costs O(structures retired +
candidates looked at), not O(live state) -- finished locks and
transactions still ahead of the horizon are never visited -- the property
the Fig. 10/14 flat-memory runs depend on once steady state is mostly
non-garbage.  ``tests/gc_oracle.py`` holds the exhaustive sweeps these
steps replaced; the tests compare the retired sets after every collection.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Callable, List, Optional

from .intervals import Interval
from .metrics import NULL_REGISTRY, MetricsRegistry
from .state import TxnStatus, VerifierState


class GarbageCollector:
    """Periodic pruner driven by the trace stream."""

    def __init__(
        self,
        state: VerifierState,
        every: int = 512,
        on_txn_pruned: Optional[Callable[[str], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
        metric_prefix: str = "gc",
    ):
        if every < 1:
            raise ValueError("GC period must be positive")
        self._state = state
        #: the period and the traces seen since the last collection: the
        #: countdown itself runs in the verifier's dispatch loop.
        self._every = every
        self._since_last = 0
        self._on_txn_pruned = on_txn_pruned
        registry = metrics if metrics is not None else NULL_REGISTRY
        # ``metric_prefix`` keeps independent collector instances apart in
        # one registry: the verifier's own collector reports plain ``gc.*``
        # while the streaming merge's replay-state collector reports
        # ``parallel.stream.gc.*``.
        self._m_collect = registry.histogram(f"{metric_prefix}.collect.seconds")
        #: frontier size observed at the start of each graph pruning pass.
        self._m_frontier = registry.gauge(f"{metric_prefix}.frontier.candidates")
        #: worklist pops -- the actual per-collection scan cost.
        self._m_scanned = registry.counter(f"{metric_prefix}.frontier.scanned")
        #: terminal-timestamp heap size (metadata-GC index backlog).
        self._m_heap = registry.gauge(f"{metric_prefix}.frontier.heap")
        #: heap entries popped but re-pushed because the transaction's node
        #: still sits in the dependency graph.
        self._m_retained = registry.counter(f"{metric_prefix}.frontier.retained")

    def collect(self, horizon_ts: Optional[float] = None) -> None:
        """Run one collection.

        ``horizon_ts`` overrides the state-derived ``S_e`` horizon.  The
        streaming parallel merge needs this: its replay state never advances
        its own dispatch watermark (events arrive pre-ordered from shards),
        so the coordinator supplies the merged shard horizon instead.
        """
        state = self._state
        if horizon_ts is None:
            horizon_ts = state.earliest_unverified_snapshot()
        if horizon_ts == float("-inf"):
            return
        with self._m_collect.time():
            self._prune_graph(horizon_ts)
            self._prune_versions(horizon_ts)
            self._prune_txn_states(horizon_ts)

    def _releasable(self, txn_id: str) -> bool:
        """Whether nothing mirrored still needs the transaction: no node
        in the dependency graph, and finished (or already retired)."""
        state = self._state
        if txn_id in state.graph:
            return False
        txn = state.txns.get(txn_id)
        return txn is None or txn.status is not TxnStatus.ACTIVE

    # -- Definition 4 / Theorem 5 -------------------------------------------------

    def _prune_graph(self, horizon_ts: float) -> None:
        """Frontier-indexed pruning.

        Only zero-in-degree nodes can be garbage, and the graph maintains
        exactly that set, so the worklist starts from the frontier snapshot
        and grows only by the successors each removal promotes to in-degree
        zero (each at most once: nothing adds edges meanwhile).  Nodes that
        fail the Definition 4 body -- finished, committed before the
        horizon -- stay in the frontier and are retried against a larger
        horizon next collection.  Reaches the same fixpoint as a
        scan-to-fixpoint over every node without touching nodes that still
        have predecessors.

        A node's commit interval is its transaction's terminal interval:
        every node has a :class:`TxnState` (a node is only added for a
        transaction the state holds, and metadata GC retires no
        transaction that still has a node), so the lookup cannot miss.
        """
        state = self._state
        graph = state.graph
        # The transaction table itself (mutated in place only): the loop
        # body runs once per frontier member.
        txns = state.txns
        on_pruned = self._on_txn_pruned
        active = TxnStatus.ACTIVE
        worklist: List[str] = graph.zero_in_degree_frontier()
        self._m_frontier.set(len(worklist))
        scanned = pruned = 0
        while worklist:
            txn_id = worklist.pop()
            scanned += 1
            txn = txns[txn_id]
            if txn.status is active:
                continue
            commit = txn.terminal_interval
            if commit is None or commit.ts_aft > horizon_ts:
                continue
            worklist.extend(graph.remove_txn(txn_id))
            if on_pruned is not None:
                on_pruned(txn_id)
            pruned += 1
        state.stats.gc_txns_pruned += pruned
        self._m_scanned.inc(scanned)

    # -- version chains ----------------------------------------------------------------

    def _prune_versions(self, horizon_ts: float) -> None:
        """Fig. 6 at a zero-width snapshot ``[S_e, S_e]``.

        Only chains the verifier marked as candidates (two or more
        committed versions, or aborted residue) can prune anything.  The
        versions definitely before the horizon are the chain prefix below
        ``(S_e, S_e)`` in key order, found with one bisect; its last member
        is the pivot.  When the pivot's neighbour ends before the pivot
        begins and strictly before it ends (so the pivot is alone at its
        after-timestamp) -- the steady state, a two-version chain --
        nothing overlaps the pivot, the garbage is the whole prefix under
        it, and it goes as one slice once every owner is releasable.
        Pivot-overlap chains, tied pivots and prefixes with a pinned owner
        take :meth:`VersionChain.prune_garbage`.
        """
        state = self._state
        candidates = state.gc_version_candidates
        if not candidates:
            return
        nodes = state.graph._ord
        txns = state.txns
        active = TxnStatus.ACTIVE
        bound = (horizon_ts, horizon_ts)
        horizon = Interval(horizon_ts, horizon_ts)
        pruned = 0
        for key in list(candidates):
            chain = candidates[key]
            if chain._aborted:
                chain._aborted.clear()
            keys = chain._keys
            if len(keys) < 2:
                # Back to a single version: out of the candidate set until
                # its next commit re-marks it.
                del candidates[key]
                continue
            if keys[1][0] > horizon_ts:
                continue
            boundary = bisect_left(keys, bound)
            if boundary < 2:
                continue
            garbage = boundary - 1
            pivot = keys[garbage]
            below = keys[garbage - 1][0]
            versions = chain._chain
            if below <= pivot[1] and below < pivot[0]:
                for version in versions[:garbage]:
                    owner = version.txn_id
                    if owner in nodes:
                        break
                    txn = txns.get(owner)
                    if txn is not None and txn.status is active:
                        break
                else:
                    chain.drop_prefix(garbage)
                    pruned += garbage
                    if len(keys) < 2:
                        del candidates[key]
                    continue
            pruned += chain.prune_garbage(horizon, self._releasable)
            if len(chain._keys) < 2:
                del candidates[key]
        state.stats.gc_versions_pruned += pruned

    # -- transaction metadata and lock entries ------------------------------------------------

    def _prune_txn_states(self, horizon_ts: float) -> None:
        """Retire the transactions no mirrored structure references, and
        their locks with them.

        A transaction state is still needed while it is active, while its
        node sits in the dependency graph (certifier concurrency checks), or
        while a version it installed could pair with a future FUW check --
        bounded by its terminal after-timestamp against the horizon.  Its
        lock entries were released in that same terminal interval, so the
        same test retires them (:meth:`LockTable.drop_owner`).

        Candidates come off the terminal-timestamp heap the state maintains
        (:meth:`VerifierState.note_terminal`): only entries strictly behind
        the horizon are popped, so a collection never looks at transactions
        -- or locks -- that cannot be pruned yet.  Entries whose node is
        still in the graph are re-pushed and retried once graph pruning
        releases them.
        """
        state = self._state
        heap = state.terminal_heap
        txns = state.txns
        nodes = state.graph._ord
        drop_locks = state.locks.drop_owner
        heappop = heapq.heappop
        retained: List = []
        locks_pruned = 0
        while heap and heap[0][0] < horizon_ts:
            entry = heappop(heap)
            txn_id = entry[1]
            txn = txns.get(txn_id)
            if txn is None:
                # Already pruned (or never materialised here): drop entry.
                continue
            if txn_id in nodes:
                retained.append(entry)
                continue
            del txns[txn_id]
            locks_pruned += drop_locks(txn_id)
            # From here on the bus guard drops every edge that names the
            # transaction, so the reader sets it joined let go of it too.
            for version in txn.matched_versions:
                version.readers.discard(txn_id)
        for entry in retained:
            heapq.heappush(heap, entry)
        state.stats.gc_locks_pruned += locks_pruned
        self._m_retained.inc(len(retained))
        self._m_heap.set(len(heap))
