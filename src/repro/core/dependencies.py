"""Transaction dependencies and the verifier-side dependency graph.

Section II-A defines three dependency types between committed transactions:

* ``ww`` -- t_n installed the direct successor of a version t_m installed;
* ``wr`` -- t_n read a version t_m installed;
* ``rw`` -- t_n installed the direct successor of a version t_m read
  (anti-dependency).

The verifier deduces ``wr`` in the CR mechanism, ``ww`` in ME/FUW, and
derives ``rw`` from the two (Fig. 9).  All deduced dependencies flow into a
single :class:`DependencyGraph`, which the SC mechanism checks against the
certifier the DBMS claims to implement.

The SC mechanism feeds dependencies in one at a time as commits stream
past, so the cycle check is *incremental*: the graph keeps the Pearce-Kelly
dynamic topological order (Pearce & Kelly, *A Dynamic Topological Sort
Algorithm for Directed Acyclic Graphs*, JEA 2007).  Each node carries an
order index; inserting an edge ``u -> v`` with ``ord[v] < ord[u]`` triggers
a search restricted to the *affected region* ``[ord[v], ord[u]]``.  If the
forward search from ``v`` reaches ``u`` a cycle exists and its path is
reported; otherwise the affected nodes are locally reordered.  Node
deletion (the garbage-transaction pruning of Definition 4) is O(degree).

Edge direction convention: an edge ``u -> v`` means *v depends on u*, i.e.
``u`` is (or must be serialised) before ``v``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from .report import Mechanism


class DepType(enum.Enum):
    WW = "ww"
    WR = "wr"
    RW = "rw"
    #: session order: same-client program order (a real-time edge).
    SO = "so"


@dataclass(slots=True)
class Dependency:
    """A deduced dependency edge ``src -> dst`` (dst depends on src).

    Treated as immutable by every consumer but not ``frozen``: one is
    built per deduced edge on the hot path, and the frozen-dataclass
    ``__init__`` (``object.__setattr__`` per field) costs ~3x a plain
    one.  Nothing hashes dependencies; equality stays field-wise."""

    src: str
    dst: str
    dep_type: DepType
    key: Optional[Any] = None
    #: mechanism that deduced the edge (provenance for bug reports).
    source: Optional[Mechanism] = None

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return f"{self.src} --{self.dep_type.value}--> {self.dst}"


class DependencyGraph:
    """Typed multigraph over committed transactions with an incremental
    acyclicity oracle.

    The graph deduplicates parallel edges of the same type (two conflicts on
    different keys between the same pair add one logical edge) but records
    all types present between a pair, since the certifier checks are
    type-sensitive.  The Pearce-Kelly order reports a cycle at the edge
    insertion that would close it (Leopard's SC).

    A transaction's commit interval is not kept here: it is the terminal
    interval of its :class:`~repro.core.state.TxnState`, which exists for
    every node (the collector reads it there).
    """

    def __init__(self) -> None:
        #: Pearce-Kelly order index per node -- the one node table.  The bus
        #: guard and the collector test membership on it directly (it is
        #: mutated in place only).
        self._ord: Dict[str, int] = {}
        #: the structural adjacency, both directions.
        self._out: Dict[str, Set[str]] = {}
        self._in: Dict[str, Set[str]] = {}
        self._next_index = 0
        #: forward-search scratch shared between :meth:`_discover` (which
        #: fills it) and :meth:`_reorder` (which consumes it).  One list is
        #: reused across insertions instead of reallocating per affected-
        #: region search.
        self._delta_f: List[str] = []
        #: (src, dst) -> set of DepType
        self._edge_types: Dict[Tuple[str, str], Set[DepType]] = {}
        self.edge_count = 0
        #: zero-in-degree frontier: every node with no incoming structural
        #: edge.  Maintained on node/edge mutation so garbage collection
        #: (Definition 4 needs in-degree zero as its entry condition) can
        #: seed its candidate worklist without re-scanning the whole node
        #: table -- see :meth:`GarbageCollector._prune_graph`, which relies on
        #: it being *exactly* that set.
        self._zero_in: Set[str] = set()

    # -- nodes ----------------------------------------------------------------

    def add_txn(self, txn_id: str) -> None:
        """Append a node at the end of the current order (new transactions
        commit later than everything already ordered, so this is the common
        no-reorder case)."""
        if txn_id in self._ord:
            return
        self._ord[txn_id] = self._next_index
        self._next_index += 1
        self._out[txn_id] = set()
        self._in[txn_id] = set()
        self._zero_in.add(txn_id)

    def __contains__(self, txn_id: str) -> bool:
        return txn_id in self._ord

    def __len__(self) -> int:
        return len(self._ord)

    def nodes(self) -> List[str]:
        return list(self._ord)

    def edge_types(self, src: str, dst: str) -> Set[DepType]:
        return set(self._edge_types.get((src, dst), ()))

    def has_edge_type(self, src: str, dst: str, dep_type: DepType) -> bool:
        """Membership test without materialising the :meth:`edge_types`
        copy -- the ww-order oracle calls this per candidate pair."""
        return dep_type in self._edge_types.get((src, dst), ())

    # -- edges ----------------------------------------------------------------

    def add_dependency(self, dep: Dependency) -> Optional[List[str]]:
        """Insert a dependency edge.

        Returns ``None`` when the graph stays acyclic, or the cycle path
        (list of transaction ids, closing edge implied) when this edge
        would close one.  A cyclic edge still gets its type recorded so that
        certifier diagnostics can name the contradictory dependencies, but
        the structural edge is rejected, keeping the oracle consistent.
        """
        src = dep.src
        dst = dep.dst
        if src == dst:
            # Self-dependencies (a txn reading its own write) are not
            # inter-transaction dependencies; ignore them.
            return None
        self.add_txn(src)
        self.add_txn(dst)
        types = self._edge_types.setdefault((src, dst), set())
        is_new_type = dep.dep_type not in types
        if is_new_type:
            types.add(dep.dep_type)
        if dst in self._out[src]:
            if is_new_type:
                self.edge_count += 1
            return None
        cycle = self._insert_edge(src, dst)
        if cycle is None:
            # The structural edge went in: dst gained an incoming edge.
            # Cycle-rejected edges are *not* inserted, so dst stays put.
            self._zero_in.discard(dst)
            if is_new_type:
                self.edge_count += 1
        return cycle

    def _insert_edge(self, u: str, v: str) -> Optional[List[str]]:
        """Pearce-Kelly insertion of the absent structural edge ``u -> v``
        between two present, distinct nodes.

        Returns ``None`` when the order stays acyclic, or the cycle as a
        node list ``[v, ..., u]`` (following edges forward, with the implicit
        closing edge ``u -> v``) when the insertion would create one.  On a
        cycle the edge is *not* inserted, so the structure remains a DAG and
        verification can continue reporting further violations.
        """
        lower, upper = self._ord[v], self._ord[u]
        if lower > upper:
            # Already consistent with the order: no search needed.
            self._out[u].add(v)
            self._in[v].add(u)
            return None
        # Affected region search.
        cycle = self._discover(v, u, upper)
        if cycle is not None:
            return cycle
        self._reorder(u, v, lower)
        self._out[u].add(v)
        self._in[v].add(u)
        return None

    def _discover(self, start: str, target: str, upper: int) -> Optional[List[str]]:
        """Forward DFS from ``start`` restricted to ord <= upper.  Fills
        ``self._delta_f`` with visited nodes; returns a cycle path if
        ``target`` is reachable."""
        delta_f = self._delta_f
        delta_f.clear()
        parent: Dict[str, str] = {}
        stack = [start]
        seen = {start}
        while stack:
            node = stack.pop()
            delta_f.append(node)
            for succ in self._out[node]:
                if succ == target:
                    # Path start -> ... -> node -> target exists; with the
                    # new edge target -> start this closes a cycle.
                    path = [node]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    path.reverse()  # start ... node
                    path.append(target)
                    return path
                if succ not in seen and self._ord[succ] <= upper:
                    seen.add(succ)
                    parent[succ] = node
                    stack.append(succ)
        return None

    def _reorder(self, u: str, v: str, lower: int) -> None:
        """Pearce-Kelly local reordering of the affected region."""
        # Backward search from u restricted to ord >= lower.
        delta_b: List[str] = []
        stack = [u]
        seen = {u}
        while stack:
            node = stack.pop()
            delta_b.append(node)
            for pred in self._in[node]:
                if pred not in seen and self._ord[pred] >= lower:
                    seen.add(pred)
                    stack.append(pred)
        delta_f = self._delta_f
        # Sort both deltas by current order and merge: backward region first.
        delta_b.sort(key=self._ord.__getitem__)
        delta_f.sort(key=self._ord.__getitem__)
        affected = delta_b + delta_f
        slots = sorted(self._ord[node] for node in affected)
        for node, slot in zip(affected, slots):
            self._ord[node] = slot

    # -- pruning (Definition 4 support) ----------------------------------------

    def remove_txn(self, txn_id: str) -> List[str]:
        """Remove a garbage transaction and its incident edges; the order
        indices of the other nodes are untouched, so the order stays valid.

        Returns the successors whose in-degree dropped to zero -- the nodes
        the removal promoted into the pruning frontier, which the garbage
        collector feeds straight back into its candidate worklist."""
        if txn_id not in self._ord:
            return []
        del self._ord[txn_id]
        in_ = self._in
        edge_types = self._edge_types
        promoted: List[str] = []
        for succ in self._out.pop(txn_id):
            preds = in_[succ]
            preds.discard(txn_id)
            if not preds:
                promoted.append(succ)
            self.edge_count -= len(edge_types.pop((txn_id, succ), ()))
        for pred in in_.pop(txn_id):
            self._out[pred].discard(txn_id)
            self.edge_count -= len(edge_types.pop((pred, txn_id), ()))
        self._zero_in.discard(txn_id)
        self._zero_in.update(promoted)
        return promoted

    def zero_in_degree_frontier(self) -> List[str]:
        """Snapshot of the zero-in-degree frontier (pruning candidates)."""
        return list(self._zero_in)
