"""Verifier-side lock table: Theorem 3 order enumeration and pruning."""


from repro.core.intervals import Interval
from repro.core.locktable import (
    LockEntry,
    LockMode,
    LockTable,
    OrderOutcome,
    classify_pair,
)


def entry(acquire, release=None, txn="t", mode=LockMode.EXCLUSIVE, committed=True):
    lock = LockEntry(key="x", txn_id=txn, mode=mode, acquire=Interval(*acquire))
    if release is not None:
        lock.close(Interval(*release), committed)
    return lock


class TestClassifyPair:
    """The Fig. 7 case analysis."""

    def test_cleanly_ordered(self):
        first = entry((0, 1), (2, 3), txn="a")
        second = entry((4, 5), (6, 7), txn="b")
        assert classify_pair(first, second) is OrderOutcome.FIRST_BEFORE_SECOND
        assert classify_pair(second, first) is OrderOutcome.SECOND_BEFORE_FIRST

    def test_violation_nested_hold(self):
        # Fig. 7a: second's entire lock lifetime sits inside first's hold.
        first = entry((0, 1), (10, 11), txn="a")
        second = entry((2, 3), (4, 5), txn="b")
        assert classify_pair(first, second) is OrderOutcome.VIOLATION

    def test_deduction_with_overlapping_acquires(self):
        # Fig. 7b: acquires overlap, but only one serial order is feasible.
        first = entry((0, 2), (5, 6), txn="a")
        second = entry((1, 7), (8, 9), txn="b")
        assert classify_pair(first, second) is OrderOutcome.FIRST_BEFORE_SECOND

    def test_uncertain_when_both_orders_feasible(self):
        first = entry((0, 5), (4, 10), txn="a")
        second = entry((0, 5), (4, 10), txn="b")
        assert classify_pair(first, second) is OrderOutcome.UNCERTAIN

    def test_active_peer_inside_hold_is_violation(self):
        # a acquired first and never released; b's whole lifetime sits after
        # a's acquire, so if a is truly still holding, exclusion is broken.
        # (The verifier only compares *finished* lock pairs, so this case is
        # reached only when a has genuinely hung onto the lock.)
        held = entry((0, 1), txn="a")  # unfinished: release at +inf
        done = entry((2, 3), (4, 5), txn="b")
        assert classify_pair(held, done) is OrderOutcome.VIOLATION

    def test_active_peer_after_release_window_feasible(self):
        held = entry((4, 8), txn="a")  # unfinished
        done = entry((0, 1), (2, 3), txn="b")
        # b released before a could have acquired: b-before-a feasible.
        assert classify_pair(held, done) is OrderOutcome.SECOND_BEFORE_FIRST


class TestAcquire:
    def test_insertion_sorted_by_acquire_end(self):
        table = LockTable()
        table.acquire("b", "x", LockMode.EXCLUSIVE, Interval(5, 6))
        table.acquire("a", "x", LockMode.EXCLUSIVE, Interval(0, 1))
        chain = table.entries_for("x")
        assert [e.txn_id for e in chain] == ["a", "b"]

    def test_reacquire_same_mode_folds(self):
        table = LockTable()
        first = table.acquire("a", "x", LockMode.SHARED, Interval(0, 1))
        second = table.acquire("a", "x", LockMode.SHARED, Interval(2, 3))
        assert first is second
        assert len(table.entries_for("x")) == 1

    def test_upgrade_creates_second_entry(self):
        """S -> X upgrades must anchor the exclusive claim to the upgrading
        op, not back-date it (regression for the pure-2PL false positive)."""
        table = LockTable()
        table.acquire("a", "x", LockMode.SHARED, Interval(0, 1))
        table.acquire("a", "x", LockMode.EXCLUSIVE, Interval(5, 6))
        entries = table.entries_of("a")
        assert len(entries) == 2
        modes = {e.mode for e in entries}
        assert modes == {LockMode.SHARED, LockMode.EXCLUSIVE}
        exclusive = next(e for e in entries if e.mode is LockMode.EXCLUSIVE)
        assert exclusive.acquire == Interval(5, 6)

    def test_x_then_s_folds(self):
        table = LockTable()
        table.acquire("a", "x", LockMode.EXCLUSIVE, Interval(0, 1))
        table.acquire("a", "x", LockMode.SHARED, Interval(2, 3))
        assert len(table.entries_for("x")) == 1


class TestRelease:
    def test_release_pairs_with_finished_conflicts(self):
        table = LockTable()
        table.acquire("a", "x", LockMode.EXCLUSIVE, Interval(0, 1))
        table.acquire("b", "x", LockMode.EXCLUSIVE, Interval(4, 5))
        results_a = table.release_all("a", Interval(2, 3), committed=True)
        # a finishes first: b is still active, so no pair yet.
        assert results_a[0][1] == []
        results_b = table.release_all("b", Interval(6, 7), committed=True)
        (entry_b, conflicts) = results_b[0]
        assert [c.txn_id for c in conflicts] == ["a"]

    def test_shared_locks_do_not_conflict(self):
        table = LockTable()
        table.acquire("a", "x", LockMode.SHARED, Interval(0, 1))
        table.acquire("b", "x", LockMode.SHARED, Interval(0, 1))
        table.release_all("a", Interval(2, 3), committed=True)
        results = table.release_all("b", Interval(2, 3), committed=True)
        assert results[0][1] == []

    def test_release_idempotent(self):
        table = LockTable()
        table.acquire("a", "x", LockMode.EXCLUSIVE, Interval(0, 1))
        table.release_all("a", Interval(2, 3), committed=True)
        assert table.release_all("a", Interval(4, 5), committed=True) == []


class TestPrune:
    """Locks leave with their owner: ``drop_owner`` is the table's half,
    the collector decides when (the owner's terminal interval behind the
    horizon, no node left in the graph)."""

    def test_prunes_old_finished(self):
        table = LockTable()
        table.acquire("a", "x", LockMode.EXCLUSIVE, Interval(0, 1))
        table.release_all("a", Interval(2, 3), committed=True)
        assert table.drop_owner("a") == 1
        assert table.live_entry_count() == 0
        assert table.entries_of("a") == []

    def test_keeps_active(self):
        table = LockTable()
        table.acquire("a", "x", LockMode.EXCLUSIVE, Interval(0, 1))
        assert table.drop_owner("a") == 0
        assert [e.txn_id for e in table.entries_for("x")] == ["a"]
        assert len(table.entries_of("a")) == 1

    def test_drops_only_the_owners_entries(self):
        table = LockTable()
        table.acquire("a", "x", LockMode.SHARED, Interval(0, 1))
        table.acquire("b", "x", LockMode.EXCLUSIVE, Interval(4, 5))
        table.acquire("a", "x", LockMode.EXCLUSIVE, Interval(2, 3))  # upgrade
        table.acquire("a", "y", LockMode.EXCLUSIVE, Interval(2, 3))
        table.release_all("a", Interval(3, 4), committed=True)
        table.release_all("b", Interval(6, 7), committed=True)
        assert table.drop_owner("a") == 3
        assert [e.txn_id for e in table.entries_for("x")] == ["b"]
        assert table.entries_for("y") == []
        assert table.drop_owner("a") == 0
        assert table.drop_owner("b") == 1
        assert table.live_entry_count() == 0

    @staticmethod
    def _released_at(release):
        from repro.core.gc import GarbageCollector
        from repro.core.state import TxnStatus, VerifierState

        state = VerifierState()
        state.locks.acquire("a", "x", LockMode.EXCLUSIVE, Interval(0, 1))
        state.locks.release_all("a", release, committed=True)
        txn = state.ensure_txn("a", client_id=0, interval=Interval(0, 1))
        txn.status = TxnStatus.COMMITTED
        txn.terminal_interval = release
        state.note_terminal("a", release.ts_aft)
        return state, GarbageCollector(state)

    def test_keeps_recent(self):
        state, collector = self._released_at(Interval(2, 3))
        collector.collect(horizon_ts=2.5)
        assert state.stats.gc_locks_pruned == 0
        assert state.locks.live_entry_count() == 1
        collector.collect(horizon_ts=100.0)
        assert state.stats.gc_locks_pruned == 1
        assert state.locks.live_entry_count() == 0

    def test_respects_pin(self):
        """An owner whose node is still in the graph keeps its locks."""
        from repro.core.dependencies import Dependency, DepType

        state, collector = self._released_at(Interval(2, 3))
        state.ensure_txn("open", client_id=1, interval=Interval(0, 1))
        state.graph.add_dependency(Dependency("open", "a", DepType.WW))
        collector.collect(horizon_ts=100.0)
        assert state.stats.gc_locks_pruned == 0
        assert state.locks.live_entry_count() == 1
