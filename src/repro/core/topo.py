"""Incremental cycle detection over a growing dependency graph.

The SC mechanism feeds dependencies into the graph one at a time as commits
stream past, so the cycle check must be *incremental*: re-running a full
DFS per edge would reintroduce exactly the superlinear cost the paper's
mechanism-mirrored design avoids.

This module implements the Pearce-Kelly dynamic topological ordering
algorithm (Pearce & Kelly, *A Dynamic Topological Sort Algorithm for
Directed Acyclic Graphs*, JEA 2007).  Each node carries an order index;
inserting an edge ``u -> v`` with ``ord[v] < ord[u]`` triggers a search
restricted to the *affected region* ``[ord[v], ord[u]]``.  If the forward
search from ``v`` reaches ``u`` a cycle exists and its path is reported;
otherwise the affected nodes are locally reordered.  Node deletion (used by
the garbage-transaction pruning of Definition 4) is O(degree).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

Node = Hashable


def unlink(
    out: Dict[Node, Set[Node]], in_: Dict[Node, Set[Node]], node: Node
) -> Tuple[Set[Node], Set[Node], List[Node]]:
    """Drop ``node`` and its incident edges from a pair of adjacency maps.

    Returns the node's successor and predecessor sets -- the popped sets
    themselves, not copies -- and the successors the removal left without
    a predecessor (what garbage-transaction pruning promotes into its
    frontier)."""
    successors = out.pop(node)
    predecessors = in_.pop(node)
    orphaned: List[Node] = []
    for succ in successors:
        preds = in_[succ]
        preds.discard(node)
        if not preds:
            orphaned.append(succ)
    for pred in predecessors:
        out[pred].discard(node)
    return successors, predecessors, orphaned


class IncrementalTopology:
    """Dynamic topological order with O(affected-region) edge insertion."""

    def __init__(self) -> None:
        self._ord: Dict[Node, int] = {}
        self._out: Dict[Node, Set[Node]] = {}
        self._in: Dict[Node, Set[Node]] = {}
        self._next_index = 0
        #: forward-search scratch shared between :meth:`_discover` (which
        #: fills it) and :meth:`_reorder` (which consumes it).  One list is
        #: reused across insertions instead of reallocating per affected-
        #: region search.
        self._delta_f: List[Node] = []

    # -- structure ----------------------------------------------------------

    def __contains__(self, node: Node) -> bool:
        return node in self._ord

    def __len__(self) -> int:
        return len(self._ord)

    @property
    def edge_count(self) -> int:
        return sum(len(succ) for succ in self._out.values())

    def nodes(self) -> List[Node]:
        return list(self._ord)

    def successors(self, node: Node) -> Set[Node]:
        return set(self._out.get(node, ()))

    def predecessors(self, node: Node) -> Set[Node]:
        return set(self._in.get(node, ()))

    def in_degree(self, node: Node) -> int:
        return len(self._in.get(node, ()))

    def add_node(self, node: Node) -> None:
        """Append a node at the end of the current order (new transactions
        commit later than everything already ordered, so this is the common
        no-reorder case)."""
        if node in self._ord:
            return
        self._ord[node] = self._next_index
        self._next_index += 1
        self._out[node] = set()
        self._in[node] = set()

    def remove_node(self, node: Node) -> Tuple[Set[Node], Set[Node], List[Node]]:
        """Delete a node and all incident edges; order indices of the other
        nodes are untouched, so the invariant is preserved.  Returns what
        :func:`unlink` reports (three empties for an unknown node)."""
        if node not in self._ord:
            return set(), set(), []
        del self._ord[node]
        return unlink(self._out, self._in, node)

    def has_edge(self, u: Node, v: Node) -> bool:
        return v in self._out.get(u, ())

    # -- edge insertion -------------------------------------------------------

    def add_edge(self, u: Node, v: Node) -> Optional[List[Node]]:
        """Insert ``u -> v``.

        Returns ``None`` when the graph stays acyclic, or the cycle as a
        node list ``[v, ..., u]`` (following edges forward, with the implicit
        closing edge ``u -> v``) when the insertion would create one.  On a
        cycle the edge is *not* inserted, so the structure remains a DAG and
        verification can continue reporting further violations.
        """
        self.add_node(u)
        self.add_node(v)
        if u == v:
            return [u]
        if v in self._out[u]:
            return None
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

    def _discover(self, start: Node, target: Node, upper: int) -> Optional[List[Node]]:
        """Forward DFS from ``start`` restricted to ord <= upper.  Fills
        ``self._delta_f`` with visited nodes; returns a cycle path if
        ``target`` is reachable."""
        delta_f = self._delta_f
        delta_f.clear()
        parent: Dict[Node, Node] = {}
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

    def _reorder(self, u: Node, v: Node, lower: int) -> None:
        """Pearce-Kelly local reordering of the affected region."""
        # Backward search from u restricted to ord >= lower.
        delta_b: List[Node] = []
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

    # -- queries ---------------------------------------------------------------

    def verify_invariant(self) -> bool:
        """Debug/property-test helper: every edge goes forward in the order."""
        return all(
            self._ord[u] < self._ord[v]
            for u, succs in self._out.items()
            for v in succs
        )
