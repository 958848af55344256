"""Incremental topology (Pearce-Kelly): correctness against brute force."""

import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.core.topo import IncrementalTopology


class TestBasics:
    def test_add_nodes(self):
        topo = IncrementalTopology()
        topo.add_node("a")
        topo.add_node("b")
        assert "a" in topo and "b" in topo
        assert len(topo) == 2

    def test_add_node_idempotent(self):
        topo = IncrementalTopology()
        topo.add_node("a")
        topo.add_edge("a", "b")
        topo.add_node("a")
        assert len(topo) == 2
        assert topo.has_edge("a", "b") and topo.verify_invariant()

    def test_simple_edge(self):
        topo = IncrementalTopology()
        assert topo.add_edge("a", "b") is None
        assert topo.has_edge("a", "b")
        assert topo.verify_invariant()

    def test_duplicate_edge_noop(self):
        topo = IncrementalTopology()
        topo.add_edge("a", "b")
        assert topo.add_edge("a", "b") is None
        assert topo.edge_count == 1

    def test_self_loop_is_cycle(self):
        topo = IncrementalTopology()
        assert topo.add_edge("a", "a") == ["a"]

    def test_two_cycle_detected(self):
        topo = IncrementalTopology()
        assert topo.add_edge("a", "b") is None
        cycle = topo.add_edge("b", "a")
        assert cycle is not None
        assert set(cycle) == {"a", "b"}
        # The rejected edge is not inserted.
        assert not topo.has_edge("b", "a")

    def test_long_cycle_path_reported(self):
        topo = IncrementalTopology()
        for u, v in [("a", "b"), ("b", "c"), ("c", "d")]:
            assert topo.add_edge(u, v) is None
        cycle = topo.add_edge("d", "a")
        assert cycle is not None
        # Path a..d through forward edges, closed by d -> a.
        assert cycle[0] == "a" and cycle[-1] == "d"

    def test_back_edge_triggers_reorder(self):
        topo = IncrementalTopology()
        topo.add_node("a")
        topo.add_node("b")
        # b was added after a, so ord[b] > ord[a]; inserting b -> a forces a
        # local reorder rather than a cycle.
        assert topo.add_edge("b", "a") is None
        assert topo.has_edge("b", "a") and topo.verify_invariant()

    def test_remove_node(self):
        topo = IncrementalTopology()
        topo.add_edge("a", "b")
        topo.add_edge("b", "c")
        topo.remove_node("b")
        assert "b" not in topo
        assert topo.successors("a") == set()
        assert topo.in_degree("c") == 0
        # a -> c can now go either way.
        assert topo.add_edge("c", "a") is None

    def test_in_degree_and_neighbours(self):
        topo = IncrementalTopology()
        topo.add_edge("a", "c")
        topo.add_edge("b", "c")
        assert topo.in_degree("c") == 2
        assert topo.predecessors("c") == {"a", "b"}
        assert topo.successors("a") == {"c"}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        min_size=1,
        max_size=60,
    )
)
def test_matches_networkx(edge_list):
    """Randomised cross-check: the incremental oracle accepts exactly the
    edges a from-scratch DAG check would accept."""
    topo = IncrementalTopology()
    reference = nx.DiGraph()
    for u, v in edge_list:
        reference.add_node(u)
        reference.add_node(v)
        would_cycle = u == v or (
            reference.has_node(u)
            and reference.has_node(v)
            and nx.has_path(reference, v, u)
        )
        cycle = topo.add_edge(u, v)
        if would_cycle:
            assert cycle is not None, (u, v)
        else:
            assert cycle is None, (u, v)
            reference.add_edge(u, v)
        assert topo.verify_invariant()
    assert topo.edge_count == reference.number_of_edges()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_insert_remove_keeps_invariant(seed):
    rng = random.Random(seed)
    topo = IncrementalTopology()
    nodes = list(range(10))
    for _ in range(80):
        action = rng.random()
        if action < 0.7:
            topo.add_edge(rng.choice(nodes), rng.choice(nodes))
        else:
            topo.remove_node(rng.choice(nodes))
        assert topo.verify_invariant()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_interleaved_cycle_rejections_and_reorders(seed):
    """Regression for the ``_delta_f`` scratch list: cycle-rejecting
    insertions fill the forward-search scratch and bail before the
    reorder consumes it, so interleaving them with back-edge insertions
    (which trigger the Pearce-Kelly reorder) must not let one search's
    leftovers poison the next reorder.  Cross-checked against networkx
    the whole way."""
    rng = random.Random(seed)
    topo = IncrementalTopology()
    reference = nx.DiGraph()
    nodes = list(range(9))
    for node in nodes:
        topo.add_node(node)
        reference.add_node(node)
    for step in range(120):
        u, v = rng.choice(nodes), rng.choice(nodes)
        if step % 3 == 2:
            # Bias towards back edges (ord[v] < ord[u]): these force
            # either a cycle rejection or an affected-region reorder,
            # the two paths that share the scratch list.
            if topo._ord[v] > topo._ord[u]:
                u, v = v, u
        would_cycle = u == v or nx.has_path(reference, v, u)
        cycle = topo.add_edge(u, v)
        if would_cycle:
            assert cycle is not None, (step, u, v)
            # Reported path must be a real forward path closed by (u, v).
            if len(cycle) > 1:
                assert cycle[0] == v and cycle[-1] == u
                for a, b in zip(cycle, cycle[1:]):
                    assert topo.has_edge(a, b)
        else:
            assert cycle is None, (step, u, v)
            reference.add_edge(u, v)
        assert topo.verify_invariant()
    assert topo.edge_count == reference.number_of_edges()
