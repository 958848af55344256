"""Dependency graph: typed edges, cycles, pruning."""


from repro.core.dependencies import Dependency, DependencyGraph, DepType


def dep(src, dst, kind=DepType.WW, key=None):
    return Dependency(src=src, dst=dst, dep_type=kind, key=key)


class TestNodes:
    def test_add_and_lookup(self):
        graph = DependencyGraph()
        graph.add_txn("t1")
        assert "t1" in graph and "t2" not in graph
        assert graph.nodes() == ["t1"]

    def test_len(self):
        graph = DependencyGraph()
        graph.add_txn("a")
        graph.add_txn("b")
        assert len(graph) == 2


class TestEdges:
    def test_simple_edge(self):
        graph = DependencyGraph()
        assert graph.add_dependency(dep("a", "b")) is None
        assert graph.edge_types("a", "b") == {DepType.WW}
        assert graph.edge_count == 1

    def test_self_dependency_ignored(self):
        graph = DependencyGraph()
        assert graph.add_dependency(dep("a", "a")) is None
        assert graph.edge_count == 0

    def test_multiple_types_one_structural_edge(self):
        graph = DependencyGraph()
        graph.add_dependency(dep("a", "b", DepType.WW))
        graph.add_dependency(dep("a", "b", DepType.WR))
        assert graph.edge_types("a", "b") == {DepType.WW, DepType.WR}
        assert graph.edge_count == 2
        assert graph._out["a"] == {"b"}

    def test_duplicate_type_not_recounted(self):
        graph = DependencyGraph()
        graph.add_dependency(dep("a", "b"))
        graph.add_dependency(dep("a", "b"))
        assert graph.edge_count == 1

    def test_cycle_reported_and_rejected(self):
        graph = DependencyGraph()
        graph.add_dependency(dep("a", "b"))
        cycle = graph.add_dependency(dep("b", "a"))
        assert cycle is not None and set(cycle) == {"a", "b"}
        # Structural edge rejected (topology still acyclic), type recorded.
        assert graph._out["b"] == set()
        assert graph.edge_types("b", "a") == {DepType.WW}

    def test_in_degree(self):
        graph = DependencyGraph()
        graph.add_dependency(dep("a", "c"))
        graph.add_dependency(dep("b", "c"))
        assert graph._in["c"] == {"a", "b"}
        assert graph._in["a"] == set()
        assert sorted(graph.zero_in_degree_frontier()) == ["a", "b"]


class TestPruning:
    def test_remove_txn(self):
        graph = DependencyGraph()
        graph.add_dependency(dep("a", "b"))
        graph.add_dependency(dep("b", "c"))
        graph.remove_txn("b")
        assert "b" not in graph
        assert graph._in["c"] == set()
        assert sorted(graph.zero_in_degree_frontier()) == ["a", "c"]
        assert graph.edge_types("a", "b") == set()
        assert graph.edge_count == 0

    def test_remove_missing_is_noop(self):
        graph = DependencyGraph()
        graph.remove_txn("ghost")
