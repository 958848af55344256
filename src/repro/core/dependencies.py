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

Edge direction convention: an edge ``u -> v`` means *v depends on u*, i.e.
``u`` is (or must be serialised) before ``v``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from .intervals import Interval
from .report import Mechanism
from .topo import IncrementalTopology


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


@dataclass
class TxnNode:
    """Per-transaction metadata kept alongside the graph node."""

    txn_id: str
    commit_interval: Optional[Interval] = None


class DependencyGraph:
    """Typed multigraph over committed transactions with an incremental
    acyclicity oracle.

    The graph deduplicates parallel edges of the same type (two conflicts on
    different keys between the same pair add one logical edge) but records
    all types present between a pair, since the certifier checks are
    type-sensitive.  A dynamic topological order reports a cycle at the
    edge insertion that would close it (Leopard's SC).
    """

    def __init__(self) -> None:
        self._topo = IncrementalTopology()
        self._nodes: Dict[str, TxnNode] = {}
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

    def add_txn(
        self, txn_id: str, commit_interval: Optional[Interval] = None
    ) -> TxnNode:
        node = self._nodes.get(txn_id)
        if node is None:
            node = TxnNode(txn_id=txn_id, commit_interval=commit_interval)
            self._nodes[txn_id] = node
            self._zero_in.add(txn_id)
            self._topo.add_node(txn_id)
        elif commit_interval is not None and node.commit_interval is None:
            node.commit_interval = commit_interval
        return node

    def __contains__(self, txn_id: str) -> bool:
        return txn_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, txn_id: str) -> TxnNode:
        return self._nodes[txn_id]

    def nodes(self) -> List[str]:
        return list(self._nodes)

    def in_degree(self, txn_id: str) -> int:
        return self._topo.in_degree(txn_id)

    def successors(self, txn_id: str) -> Set[str]:
        return self._topo.successors(txn_id)

    def predecessors(self, txn_id: str) -> Set[str]:
        return self._topo.predecessors(txn_id)

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
        if dep.src == dep.dst:
            # Self-dependencies (a txn reading its own write) are not
            # inter-transaction dependencies; ignore them.
            return None
        self.add_txn(dep.src)
        self.add_txn(dep.dst)
        pair = (dep.src, dep.dst)
        types = self._edge_types.setdefault(pair, set())
        is_new_type = dep.dep_type not in types
        if is_new_type:
            types.add(dep.dep_type)
        if self._topo.has_edge(dep.src, dep.dst):
            if is_new_type:
                self.edge_count += 1
            return None
        cycle = self._topo.add_edge(dep.src, dep.dst)
        if cycle is None:
            # The structural edge went in: dst gained an incoming edge.
            # Cycle-rejected edges are *not* inserted, so dst stays put.
            self._zero_in.discard(dep.dst)
            if is_new_type:
                self.edge_count += 1
        return cycle

    # -- pruning (Definition 4 support) ----------------------------------------

    def remove_txn(self, txn_id: str) -> List[str]:
        """Remove a garbage transaction and its incident edges.

        Returns the successors whose in-degree dropped to zero -- the nodes
        the removal promoted into the pruning frontier, which the garbage
        collector feeds straight back into its candidate worklist."""
        if txn_id not in self._nodes:
            return []
        successors, predecessors, promoted = self._topo.remove_node(txn_id)
        edge_types = self._edge_types
        for succ in successors:
            self.edge_count -= len(edge_types.pop((txn_id, succ), ()))
        for pred in predecessors:
            self.edge_count -= len(edge_types.pop((pred, txn_id), ()))
        del self._nodes[txn_id]
        self._zero_in.discard(txn_id)
        self._zero_in.update(promoted)
        return promoted

    def zero_in_degree_frontier(self) -> List[str]:
        """Snapshot of the zero-in-degree frontier (pruning candidates)."""
        return list(self._zero_in)
