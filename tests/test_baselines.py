"""Baseline checkers: history lowering, Cobra, Elle, naive cycle search."""

import pytest

from repro import PG_READ_COMMITTED, PG_SERIALIZABLE, Trace, Verifier
from repro.baselines import (
    CobraChecker,
    ElleChecker,
    InapplicableWorkload,
    NaiveCycleSearchChecker,
    history_from_traces,
    values_are_unique,
)
from repro.baselines.cyclesearch import RawDependencyGraph
from repro.baselines.history import flatten_value, initial_history_txn
from repro.core.dependencies import Dependency, DependencyGraph, DepType
from repro.dbsim import FaultPlan
from repro.workloads import BlindW, run_workload

INIT = {"x": {"v": 0}, "y": {"v": 0}}


def committed_rmw(txn, key, read_val, write_val, at, client=0):
    return [
        Trace.read(at, at + 0.1, txn, {key: read_val}, client_id=client),
        Trace.write(at + 0.2, at + 0.3, txn, {key: write_val}, client_id=client),
        Trace.commit(at + 0.4, at + 0.5, txn, client_id=client),
    ]


class TestHistoryLowering:
    def test_basic(self):
        traces = committed_rmw("t1", "x", 0, 1, 0.0)
        history = history_from_traces(traces)
        assert len(history) == 1
        txn = history[0]
        assert txn.reads == {"x": flatten_value({"v": 0})}
        assert txn.writes == {"x": flatten_value({"v": 1})}
        assert txn.rmw == [
            ("x", flatten_value({"v": 0}), flatten_value({"v": 1}))
        ]

    def test_aborted_excluded_by_default(self):
        traces = [
            Trace.write(0.0, 0.1, "t1", {"x": 1}),
            Trace.abort(0.2, 0.3, "t1"),
        ]
        assert history_from_traces(traces) == []

    def test_commit_order_assigned(self):
        traces = committed_rmw("t1", "x", 0, 1, 0.0) + committed_rmw(
            "t2", "y", 0, 2, 1.0, client=1
        )
        history = history_from_traces(traces)
        assert [t.txn_id for t in history] == ["t1", "t2"]
        assert [t.commit_order for t in history] == [0, 1]

    def test_first_read_wins_per_key(self):
        traces = [
            Trace.read(0.0, 0.1, "t1", {"x": 0}),
            Trace.write(0.2, 0.3, "t1", {"x": 1}),
            Trace.read(0.4, 0.5, "t1", {"x": 1}),  # own write, ignored
            Trace.commit(0.6, 0.7, "t1"),
        ]
        history = history_from_traces(traces)
        assert history[0].reads == {"x": flatten_value({"v": 0})}

    def test_values_are_unique(self):
        unique = history_from_traces(committed_rmw("t1", "x", 0, 1, 0.0))
        assert values_are_unique(unique)
        dupes = history_from_traces(
            committed_rmw("t1", "x", 0, 7, 0.0)
            + committed_rmw("t2", "x", 7, 7, 1.0, client=1)
        )
        assert not values_are_unique(dupes)

    def test_initial_txn(self):
        init = initial_history_txn(INIT)
        assert init.committed and init.commit_order == -1
        assert set(init.writes) == {"x", "y"}


class TestCobra:
    def test_clean_serial_history(self):
        traces = committed_rmw("t1", "x", 0, 1, 0.0) + committed_rmw(
            "t2", "x", 1, 2, 1.0, client=1
        )
        result = CobraChecker().check(history_from_traces(traces), INIT)
        assert result.ok

    def test_unknown_read_flagged(self):
        traces = committed_rmw("t1", "x", 999, 1, 0.0)
        result = CobraChecker().check(history_from_traces(traces), INIT)
        assert not result.ok

    def test_contradictory_order_flagged(self):
        # t1 reads t2's write, t2 reads t1's write: circular information flow.
        traces = [
            Trace.read(0.0, 0.1, "t1", {"x": 2}, client_id=0),
            Trace.write(0.2, 0.3, "t1", {"y": 1}, client_id=0),
            Trace.commit(0.4, 0.5, "t1", client_id=0),
            Trace.read(0.0, 0.1, "t2", {"y": 1}, client_id=1),
            Trace.write(0.2, 0.3, "t2", {"x": 2}, client_id=1),
            Trace.commit(0.45, 0.55, "t2", client_id=1),
        ]
        result = CobraChecker().check(history_from_traces(traces), INIT)
        assert not result.ok

    def test_write_skew_not_serializable(self):
        traces = [
            Trace.read(0.00, 0.01, "t1", {"x": 0, "y": 0}, client_id=0),
            Trace.read(0.00, 0.01, "t2", {"x": 0, "y": 0}, client_id=1),
            Trace.write(0.02, 0.03, "t1", {"y": 1}, client_id=0),
            Trace.write(0.02, 0.03, "t2", {"x": 2}, client_id=1),
            Trace.commit(0.04, 0.05, "t1", client_id=0),
            Trace.commit(0.055, 0.06, "t2", client_id=1),
        ]
        result = CobraChecker(fence_every=None).check(
            history_from_traces(traces), INIT
        )
        assert not result.ok

    def test_gc_produces_same_verdict_on_clean_run(self):
        run = run_workload(
            BlindW.rw(keys=64), PG_SERIALIZABLE, clients=6, txns=150, seed=2
        )
        history = history_from_traces(run.all_traces_sorted())
        with_gc = CobraChecker(fence_every=20).check(history, run.initial_db)
        without = CobraChecker(fence_every=None).check(history, run.initial_db)
        assert with_gc.ok and without.ok

    def test_gc_bounds_memory(self):
        run = run_workload(
            BlindW.rw(keys=64), PG_SERIALIZABLE, clients=6, txns=400, seed=2
        )
        history = history_from_traces(run.all_traces_sorted())
        with_gc = CobraChecker(fence_every=20).check(history, run.initial_db)
        without = CobraChecker(fence_every=None).check(history, run.initial_db)
        assert with_gc.peak_structures < without.peak_structures

    def test_search_budget(self):
        run = run_workload(
            BlindW.w(keys=8), PG_SERIALIZABLE, clients=6, txns=120, seed=2
        )
        history = history_from_traces(run.all_traces_sorted())
        with pytest.raises(RuntimeError):
            CobraChecker(fence_every=None, max_search_steps=3).check(
                history, run.initial_db
            )


class TestElle:
    def test_clean_history(self):
        traces = committed_rmw("t1", "x", 0, 1, 0.0) + committed_rmw(
            "t2", "x", 1, 2, 1.0, client=1
        )
        result = ElleChecker().check_traces(traces, INIT)
        assert result.ok

    def test_duplicate_values_inapplicable(self):
        # Two writes of the same value to the same key: version orders are
        # no longer manifest.
        traces = committed_rmw("t1", "x", 0, 7, 0.0) + committed_rmw(
            "t2", "x", 7, 7, 1.0, client=1
        )
        with pytest.raises(InapplicableWorkload):
            ElleChecker().check_traces(traces, INIT)

    def test_g1a_aborted_read(self):
        traces = [
            Trace.write(0.0, 0.1, "t1", {"x": 7}, client_id=0),
            Trace.read(0.2, 0.3, "t2", {"x": 7}, client_id=1),
            Trace.commit(0.4, 0.5, "t2", client_id=1),
            Trace.abort(0.6, 0.7, "t1", client_id=0),
        ]
        result = ElleChecker().check_traces(traces, INIT)
        assert "G1a" in result.anomaly_names()

    def test_g1b_intermediate_read(self):
        traces = [
            Trace.write(0.0, 0.1, "t1", {"x": 7}, client_id=0),
            Trace.write(0.2, 0.3, "t1", {"x": 8}, client_id=0),
            Trace.commit(0.4, 0.5, "t1", client_id=0),
            Trace.read(0.6, 0.7, "t2", {"x": 7}, client_id=1),
            Trace.commit(0.8, 0.9, "t2", client_id=1),
        ]
        result = ElleChecker().check_traces(traces, INIT)
        assert "G1b" in result.anomaly_names()

    def test_g2_write_skew_via_rmw(self):
        """Write skew expressed through rmw chains so Elle can infer the
        version orders."""
        traces = [
            # Both read the initial x and y.
            Trace.read(0.00, 0.01, "t1", {"x": 0, "y": 0}, client_id=0),
            Trace.read(0.00, 0.01, "t2", {"x": 0, "y": 0}, client_id=1),
            Trace.write(0.02, 0.03, "t1", {"y": 11}, client_id=0),
            Trace.write(0.02, 0.03, "t2", {"x": 22}, client_id=1),
            Trace.commit(0.04, 0.05, "t1", client_id=0),
            Trace.commit(0.055, 0.06, "t2", client_id=1),
        ]
        result = ElleChecker().check_traces(traces, INIT)
        assert not result.ok
        assert result.anomaly_names() & {"G2", "G-single"}

    def test_blind_dirty_write_missed(self):
        """Elle's blind spot (paper, Bug 1 discussion): a dirty write that
        produces no cycle and no read evidence goes unnoticed."""
        run = run_workload(
            BlindW.w(keys=16),
            PG_SERIALIZABLE,
            clients=8,
            txns=150,
            seed=4,
            faults=FaultPlan(
                disable_write_locks=True, disable_fuw=True, disable_ssi=True
            ),
        )
        traces = run.all_traces_sorted()
        result = ElleChecker().check_traces(traces, run.initial_db)
        assert result.ok  # Elle sees nothing...
        from tests.conftest import verify_run

        report = verify_run(run, PG_SERIALIZABLE)
        assert not report.ok  # ...while Leopard's ME/FUW do.


class TestNaiveCycleSearch:
    def test_clean(self):
        run = run_workload(
            BlindW.rw(keys=64), PG_SERIALIZABLE, clients=6, txns=150, seed=2
        )
        checker = NaiveCycleSearchChecker(
            spec=PG_SERIALIZABLE, initial_db=run.initial_db
        )
        checker.process_all(run.all_traces_sorted())
        assert checker.finish().ok

    def test_write_skew_found(self):
        from repro.workloads import WriteSkewWorkload

        run = run_workload(
            WriteSkewWorkload(pairs=2),
            PG_SERIALIZABLE,
            clients=8,
            txns=300,
            seed=9,
            faults=FaultPlan(disable_ssi=True),
            think_mean=1e-4,
        )
        checker = NaiveCycleSearchChecker(
            spec=PG_SERIALIZABLE, initial_db=run.initial_db
        )
        checker.process_all(run.all_traces_sorted())
        assert not checker.finish().ok

    def test_deduces_what_leopard_deduces_without_the_incremental_oracle(
        self, blindw_rw_run, monkeypatch
    ):
        """Fig. 11 compares certifiers, not deductions: over its raw graph
        the checker deduces exactly what the serial assembly deduces (the
        ww-order oracle still gets its ``has_edge_type`` answers), and it
        never pays for a Pearce-Kelly insertion."""
        traces = blindw_rw_run.all_traces_sorted()
        leopard = Verifier(
            spec=PG_SERIALIZABLE.without("SC"),
            initial_db=blindw_rw_run.initial_db,
            gc_every=0,
        )
        expected = leopard.process_all(traces).finish().stats

        def refuse(self, u, v):
            raise AssertionError("the naive checker ran the incremental oracle")

        monkeypatch.setattr(DependencyGraph, "_insert_edge", refuse)
        checker = NaiveCycleSearchChecker(
            spec=PG_SERIALIZABLE, initial_db=blindw_rw_run.initial_db
        )
        report = checker.process_all(traces).finish()
        assert report.ok
        assert isinstance(checker.graph, RawDependencyGraph)
        assert expected.deps_ww and expected.deduced_overlapped_pairs
        assert report.stats == expected


def dep(src, dst, kind=DepType.WW, key=None):
    return Dependency(src=src, dst=dst, dep_type=kind, key=key)


class TestRawMode:
    """:class:`RawDependencyGraph`, the naive checker's graph: typed edges
    over plain adjacency, cycles welcome."""

    def test_raw_mode_allows_cycles(self):
        graph = RawDependencyGraph()
        assert graph.add_dependency(dep("a", "b")) is None
        assert graph.add_dependency(dep("b", "a")) is None
        cycle = graph.find_cycle()
        assert cycle is not None and set(cycle) == {"a", "b"}

    def test_raw_mode_neighbours(self):
        graph = RawDependencyGraph()
        graph.add_dependency(dep("a", "b"))
        graph.add_dependency(dep("a", "c"))
        graph.add_dependency(dep("a", "c", DepType.WR))
        graph.add_dependency(dep("c", "c"))  # not an inter-transaction edge
        assert graph.succ["a"] == {"b", "c"}
        assert graph.pred["b"] == {"a"}
        assert len(graph) == 3 and "c" in graph and "d" not in graph
        assert graph.edge_count == 3  # typed edges; two of them a -> c
        assert graph.has_edge_type("a", "c", DepType.WR)
        assert not graph.has_edge_type("a", "b", DepType.WR)
        assert not graph.has_edge_type("c", "a", DepType.WW)


class TestFindCycle:
    def test_acyclic(self):
        graph = RawDependencyGraph()
        graph.add_dependency(dep("a", "b"))
        graph.add_dependency(dep("b", "c"))
        assert graph.find_cycle() is None

    def test_long_cycle_raw(self):
        graph = RawDependencyGraph()
        for u, v in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]:
            graph.add_dependency(dep(u, v))
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) == {"a", "b", "c", "d"}


class TestElleListAppend:
    """Elle's prefix-based inference over the list-append datatype."""

    def make_history(self):
        """Three serial appends to one list plus a reader of the middle
        state: the full version order is manifest without rmw edges."""
        traces = []
        t = 0.0
        current = ()
        for i, txn_id in enumerate(["t1", "t2", "t3"]):
            current = current + (i + 1,)
            traces.append(
                Trace.write(t, t + 0.1, txn_id, {"lst": current}, client_id=0)
            )
            traces.append(Trace.commit(t + 0.2, t + 0.3, txn_id, client_id=0))
            t += 1.0
        traces.append(
            Trace.read(t, t + 0.1, "r", {"lst": (1, 2)}, client_id=1)
        )
        traces.append(Trace.commit(t + 0.2, t + 0.3, "r", client_id=1))
        return traces

    def test_clean_serial_appends(self):
        result = ElleChecker().check_traces(
            self.make_history(), {"lst": {"v": ()}}
        )
        assert result.ok

    def test_stale_list_read_cycles(self):
        """A reader observing (1,) *after* later appending transactions it
        also depends on creates a cycle Elle catches via prefix order."""
        traces = self.make_history()
        # The reader claims to have seen only (1,) but also read key2
        # written by t3 -- build circular information flow.
        traces += [
            Trace.write(10.0, 10.1, "w2", {"k2": 5}, client_id=2),
            Trace.commit(10.2, 10.3, "w2", client_id=2),
            # rdr reads the newest k2 but an ancient list state.
            Trace.read(11.0, 11.1, "rdr", {"lst": (1,), "k2": 5}, client_id=3),
            Trace.write(11.2, 11.3, "rdr", {"lst": (1, 99)}, client_id=3),
            Trace.commit(11.4, 11.5, "rdr", client_id=3),
        ]
        result = ElleChecker().check_traces(traces, {"lst": {"v": ()}})
        assert not result.ok

    def test_workload_end_to_end(self):
        from repro.workloads import ListAppendWorkload, run_workload

        run = run_workload(
            ListAppendWorkload(keys=16),
            PG_SERIALIZABLE,
            clients=8,
            txns=200,
            seed=4,
        )
        from tests.conftest import verify_run

        assert verify_run(run, PG_SERIALIZABLE).ok
        elle = ElleChecker().check_traces(run.all_traces_sorted(), run.initial_db)
        assert elle.ok

    def test_philosophy_difference_on_weak_engine(self):
        """On a read-committed engine, Elle reports the anomalies that
        exist (G2 et al.) while Leopard, asked whether the *claimed level*
        holds, correctly answers yes -- RC permits them."""
        from repro.workloads import ListAppendWorkload, run_workload
        from tests.conftest import verify_run

        run = run_workload(
            ListAppendWorkload(keys=4),
            PG_READ_COMMITTED,
            clients=12,
            txns=400,
            seed=4,
            think_mean=1e-4,
        )
        assert verify_run(run, PG_READ_COMMITTED).ok
        elle = ElleChecker().check_traces(run.all_traces_sorted(), run.initial_db)
        assert not elle.ok
