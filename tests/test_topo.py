"""The dependency graph's Pearce-Kelly order: correctness against brute
force."""

import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.core.dependencies import Dependency, DependencyGraph, DepType


def add_edge(graph, u, v):
    """Insert ``u -> v`` as a one-type dependency; the cycle or None."""
    return graph.add_dependency(Dependency(u, v, DepType.WW))


def has_edge(graph, u, v):
    """Whether the *structural* edge went in (a cycle-rejected edge keeps
    its type but not its adjacency)."""
    return v in graph._out.get(u, ())


def ordered(graph):
    """Every structural edge goes forward in the order."""
    order = graph._ord
    return all(order[u] < order[v] for u, succs in graph._out.items() for v in succs)


class TestBasics:
    def test_add_nodes(self):
        graph = DependencyGraph()
        graph.add_txn("a")
        graph.add_txn("b")
        assert "a" in graph and "b" in graph
        assert len(graph) == 2

    def test_add_node_idempotent(self):
        graph = DependencyGraph()
        graph.add_txn("a")
        add_edge(graph, "a", "b")
        graph.add_txn("a")
        assert len(graph) == 2
        assert has_edge(graph, "a", "b") and ordered(graph)

    def test_simple_edge(self):
        graph = DependencyGraph()
        assert add_edge(graph, "a", "b") is None
        assert has_edge(graph, "a", "b")
        assert ordered(graph)

    def test_duplicate_edge_noop(self):
        graph = DependencyGraph()
        add_edge(graph, "a", "b")
        assert add_edge(graph, "a", "b") is None
        assert graph.edge_count == 1

    def test_two_cycle_detected(self):
        graph = DependencyGraph()
        assert add_edge(graph, "a", "b") is None
        cycle = add_edge(graph, "b", "a")
        assert cycle is not None
        assert set(cycle) == {"a", "b"}
        # The rejected edge is not inserted.
        assert not has_edge(graph, "b", "a")

    def test_long_cycle_path_reported(self):
        graph = DependencyGraph()
        for u, v in [("a", "b"), ("b", "c"), ("c", "d")]:
            assert add_edge(graph, u, v) is None
        cycle = add_edge(graph, "d", "a")
        assert cycle is not None
        # Path a..d through forward edges, closed by d -> a.
        assert cycle[0] == "a" and cycle[-1] == "d"

    def test_back_edge_triggers_reorder(self):
        graph = DependencyGraph()
        graph.add_txn("a")
        graph.add_txn("b")
        # b was added after a, so ord[b] > ord[a]; inserting b -> a forces a
        # local reorder rather than a cycle.
        assert add_edge(graph, "b", "a") is None
        assert has_edge(graph, "b", "a") and ordered(graph)

    def test_remove_node(self):
        graph = DependencyGraph()
        add_edge(graph, "a", "b")
        add_edge(graph, "b", "c")
        assert graph.remove_txn("b") == ["c"]
        assert "b" not in graph
        assert graph._out["a"] == set()
        assert graph._in["c"] == set()
        # a -> c can now go either way.
        assert add_edge(graph, "c", "a") is None

    def test_in_degree_and_neighbours(self):
        graph = DependencyGraph()
        add_edge(graph, "a", "c")
        add_edge(graph, "b", "c")
        assert graph._in["c"] == {"a", "b"}
        assert graph._out["a"] == {"c"}


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
    edges a from-scratch DAG check would accept.  A self-dependency is no
    edge at all."""
    graph = DependencyGraph()
    reference = nx.DiGraph()
    for u, v in edge_list:
        reference.add_node(u)
        reference.add_node(v)
        cycle = add_edge(graph, u, v)
        if u == v:
            assert cycle is None and not has_edge(graph, u, v)
        elif nx.has_path(reference, v, u):
            assert cycle is not None, (u, v)
        else:
            assert cycle is None, (u, v)
            reference.add_edge(u, v)
        assert ordered(graph)
    assert graph.edge_count == reference.number_of_edges()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_insert_remove_keeps_invariant(seed):
    rng = random.Random(seed)
    graph = DependencyGraph()
    nodes = list(range(10))
    for _ in range(80):
        action = rng.random()
        if action < 0.7:
            add_edge(graph, rng.choice(nodes), rng.choice(nodes))
        else:
            graph.remove_txn(rng.choice(nodes))
        assert ordered(graph)
        assert set(graph.zero_in_degree_frontier()) == {
            n for n in graph.nodes() if not graph._in[n]
        }


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
    graph = DependencyGraph()
    reference = nx.DiGraph()
    nodes = list(range(9))
    for node in nodes:
        graph.add_txn(node)
        reference.add_node(node)
    for step in range(120):
        u, v = rng.choice(nodes), rng.choice(nodes)
        if u == v:
            continue
        if step % 3 == 2:
            # Bias towards back edges (ord[v] < ord[u]): these force
            # either a cycle rejection or an affected-region reorder,
            # the two paths that share the scratch list.
            if graph._ord[v] > graph._ord[u]:
                u, v = v, u
        would_cycle = nx.has_path(reference, v, u)
        cycle = add_edge(graph, u, v)
        if would_cycle:
            assert cycle is not None, (step, u, v)
            # Reported path must be a real forward path closed by (u, v).
            assert cycle[0] == v and cycle[-1] == u
            for a, b in zip(cycle, cycle[1:]):
                assert has_edge(graph, a, b)
        else:
            assert cycle is None, (step, u, v)
            reference.add_edge(u, v)
        assert ordered(graph)
    assert graph.edge_count == reference.number_of_edges()
