"""Garbage collection of mirrored verifier structures.

Long-running workloads grow every mirrored structure without bound; the
paper prunes asynchronously (Sections V-A, V-B, V-D).  This module
implements the three pruning rules behind the flat memory curves of
Figs. 10 and 14:

* **garbage transactions** (Definition 4 / Theorem 5): in-degree zero in
  the dependency graph and finished before the earliest snapshot timestamp
  ``S_e`` any unverified trace can still reference -- provably never part
  of a future cycle;
* **garbage lock entries**: released definitely before ``S_e`` by a pruned
  transaction -- they can only ever order *before* future locks, never
  conflict;
* **garbage versions** (Fig. 6 applied at the GC horizon): definitely
  overwritten before any live snapshot; cumulative images keep surviving
  versions self-contained.

Collections are indexed rather than exhaustive: graph pruning seeds its
worklist from the zero-in-degree frontier the graph maintains (Definition 4
requires in-degree zero, so only frontier members can be garbage), and
transaction-metadata pruning pops a terminal-timestamp heap instead of
sweeping the whole transaction table.  Both indexes make a collection cost
O(candidates), not O(live state) -- the property the Fig. 10/14 flat-memory
runs depend on once steady state is mostly non-garbage.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from .intervals import Interval
from .metrics import NULL_REGISTRY, MetricsRegistry
from .state import VerifierState


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

    def maybe_collect(self) -> bool:
        """Called once per processed trace; runs a collection every
        ``every`` traces."""
        self._since_last += 1
        if self._since_last < self._every:
            return False
        self._since_last = 0
        self.collect()
        return True

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
            # Lock and version pruning share the releasability predicate
            # and neither mutates the graph or transaction table, so one
            # memo serves both: a transaction's verdict is computed once
            # per collection instead of once per lock entry / version.
            can_prune = self._make_can_prune()
            self._prune_locks(horizon_ts, can_prune)
            self._prune_versions(horizon_ts, can_prune)
            self._prune_txn_states(horizon_ts)

    def _make_can_prune(self):
        state = self._state
        cache: dict = {}

        def can_prune(txn_id: str) -> bool:
            verdict = cache.get(txn_id)
            if verdict is None:
                if txn_id in state.graph:
                    verdict = False
                else:
                    txn = state.get_txn(txn_id)
                    verdict = txn is None or txn.finished
                cache[txn_id] = verdict
            return verdict

        return can_prune

    # -- Definition 4 / Theorem 5 -------------------------------------------------

    def _garbage(self, txn_id: str, horizon_ts: float) -> bool:
        """Definition 4 body checks for an in-degree-zero node."""
        state = self._state
        node = state.graph.node(txn_id)
        txn = state.get_txn(txn_id)
        commit = node.commit_interval
        if commit is None and txn is not None:
            commit = txn.terminal_interval
        if commit is None or commit.ts_aft > horizon_ts:
            return False
        if txn is not None and not txn.finished:
            return False
        return True

    def _prune_graph(self, horizon_ts: float) -> None:
        """Frontier-indexed pruning.

        Only zero-in-degree nodes can be garbage, and the graph maintains
        exactly that set, so the worklist starts from the frontier snapshot
        and grows only by the successors each removal promotes to in-degree
        zero.  Nodes that fail the horizon checks stay in the frontier and
        are retried (against a larger horizon) next collection.  Reaches the
        same fixpoint as :meth:`_prune_graph_scan` without touching nodes
        that still have predecessors.
        """
        state = self._state
        graph = state.graph
        worklist: List[str] = graph.zero_in_degree_frontier()
        self._m_frontier.set(len(worklist))
        scanned = 0
        while worklist:
            txn_id = worklist.pop()
            scanned += 1
            # A promoted successor may appear both in the initial snapshot
            # and in a removal's promotion list; membership re-check makes
            # duplicates harmless.
            if txn_id not in graph or graph.in_degree(txn_id) != 0:
                continue
            if not self._garbage(txn_id, horizon_ts):
                continue
            worklist.extend(graph.remove_txn(txn_id))
            if self._on_txn_pruned is not None:
                self._on_txn_pruned(txn_id)
            state.stats.gc_txns_pruned += 1
        self._m_scanned.inc(scanned)

    def _prune_graph_scan(self, horizon_ts: float) -> None:
        """Scan-to-fixpoint reference implementation (pre-frontier).

        Kept as the oracle the equivalence tests compare
        :meth:`_prune_graph` against; not called on any production path.
        """
        state = self._state
        graph = state.graph
        # Removing a garbage node deletes its outgoing edges, which can turn
        # successors into garbage; iterate to a fixpoint.
        changed = True
        while changed:
            changed = False
            for txn_id in graph.nodes():
                if graph.in_degree(txn_id) != 0:
                    continue
                if not self._garbage(txn_id, horizon_ts):
                    continue
                graph.remove_txn(txn_id)
                if self._on_txn_pruned is not None:
                    self._on_txn_pruned(txn_id)
                state.stats.gc_txns_pruned += 1
                changed = True

    # -- lock table -----------------------------------------------------------------

    def _prune_locks(self, horizon_ts: float, can_prune=None) -> None:
        state = self._state
        if can_prune is None:
            can_prune = self._make_can_prune()
        state.stats.gc_locks_pruned += state.locks.prune(horizon_ts, can_prune)

    # -- version chains ----------------------------------------------------------------

    def _prune_versions(self, horizon_ts: float, can_prune=None) -> None:
        state = self._state
        horizon = Interval(horizon_ts, horizon_ts)
        if can_prune is None:
            can_prune = self._make_can_prune()
        # Only chains the verifier marked as candidates (two or more
        # committed versions, or aborted residue) can prune anything;
        # everything else is skipped without even a length check.  A chain
        # GC'd back to a single version leaves the candidate set until its
        # next commit re-marks it.
        candidates = state.gc_version_candidates
        if not candidates:
            return
        pruned = 0
        for key in list(candidates):
            chain = candidates[key]
            # Inline the chain's O(1) garbage precheck (at least two
            # committed versions definitely behind the horizon, or aborted
            # residue to drop) so chains with nothing to prune do not even
            # pay the ``prune_garbage`` call.
            if not chain._aborted:
                keys = chain._keys
                if len(keys) < 2:
                    del candidates[key]
                    continue
                if keys[1][0] > horizon_ts:
                    continue
            pruned += chain.prune_garbage(horizon, can_prune)
            if len(chain) < 2:
                del candidates[key]
        state.stats.gc_versions_pruned += pruned

    # -- transaction metadata -------------------------------------------------------------

    def _prune_txn_states(self, horizon_ts: float) -> None:
        """Drop metadata for transactions no mirrored structure references.

        A transaction state is still needed while it is active, while its
        node sits in the dependency graph (certifier concurrency checks), or
        while a version it installed could pair with a future FUW check --
        bounded by its terminal after-timestamp against the horizon.

        Candidates come off the terminal-timestamp heap the state maintains
        (:meth:`VerifierState.note_terminal`): only entries strictly behind
        the horizon are popped, so a collection never looks at transactions
        that cannot be pruned yet.  Entries whose node is still in the graph
        are re-pushed and retried once graph pruning releases them.
        """
        state = self._state
        heap = state.terminal_heap
        retained: List = []
        while heap and heap[0][0] < horizon_ts:
            entry = heapq.heappop(heap)
            txn_id = entry[1]
            txn = state.txns.get(txn_id)
            if txn is None:
                # Already pruned (or never materialised here): drop entry.
                continue
            if txn_id in state.graph:
                retained.append(entry)
                continue
            del state.txns[txn_id]
        for entry in retained:
            heapq.heappush(heap, entry)
        self._m_retained.inc(len(retained))
        self._m_heap.set(len(heap))
