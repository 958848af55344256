"""The engine's transaction indexes against scan-based references.

Random operation sequences drive :class:`SsiTracker` next to
:class:`tests.dbsim_oracle.ScanSsiTracker`, and
:class:`EngineLockManager` next to
:class:`tests.dbsim_oracle.ScanLockManager`.  Each side runs over its
own copies of the transactions (the trackers set conflict flags on
them), and after every operation the two must agree on what was
returned -- abort reasons, prune counts, grants, deadlock cycles, the
continuations a release hands back and their order -- and on the state
left behind.  The indexes themselves must also say exactly what the
tables they index say.
"""

from collections import Counter
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.trace import KeyRange
from repro.dbsim.locks import DeadlockError, EngineLockManager, EngineLockMode
from repro.dbsim.ssi import SsiTracker

from tests.dbsim_oracle import ScanLockManager, ScanSsiTracker

# -- SSI -----------------------------------------------------------------------

SLOTS = 5
KEYS = 6

ssi_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["read", "read", "scan", "write", "write", "commit", "abort", "prune"]
        ),
        st.integers(0, SLOTS - 1),
        st.integers(0, KEYS - 1),
        st.integers(0, 2**SLOTS - 1),
    ),
    max_size=80,
)


class SsiWorld:
    """One tracker and its own copies of the transactions."""

    def __init__(self, tracker):
        self.tracker = tracker
        self.slots = [None] * SLOTS
        self.every = []

    def begin(self, slot, txn_id, now):
        txn = SimpleNamespace(
            txn_id=txn_id,
            begin_ts=now,
            commit_ts=None,
            committed=False,
            aborted=False,
            in_conflict=False,
            out_conflict=False,
        )
        self.slots[slot] = txn
        self.every.append(txn)

    def apply(self, op, slot, key, mask, now):
        tracker, txn = self.tracker, self.slots[slot]
        if op == "read":
            tracker.register_read(txn, (key,))
            writers = [
                other
                for i, other in enumerate(self.slots)
                if mask >> i & 1 and other is not None and not other.aborted
            ]
            return tracker.on_read(txn, (key,), writers)
        if op == "scan":
            tracker.register_predicate(txn, KeyRange((), key, key + 1 + mask % 3))
            return None
        if op == "write":
            return tracker.on_write(txn, (key,))
        if op == "commit":
            reason = tracker.commit_check(txn)
            if reason is None:
                txn.committed, txn.commit_ts = True, now
                return None
            op = "abort"
        if op == "abort":
            txn.aborted = True
            tracker.forget(txn)
            return "aborted"
        active = [t.begin_ts for t in self.slots if t and not (t.committed or t.aborted)]
        return tracker.prune(min(active) if active else now)

    def flags(self):
        return [(t.txn_id, t.in_conflict, t.out_conflict) for t in self.every]


def _check_reader_index(tracker: SsiTracker):
    by_key = {
        (key, ident) for key, readers in tracker._readers.items() for ident in readers
    }
    by_reader = {
        (key, ident) for ident, (_, keys) in tracker._reads_of.items() for key in keys
    }
    assert by_key == by_reader
    assert all(readers for readers in tracker._readers.values())


@settings(max_examples=200, deadline=None)
@given(ssi_ops)
def test_ssi_tracker_agrees_with_scans(ops):
    worlds = [SsiWorld(SsiTracker()), SsiWorld(ScanSsiTracker())]
    now = 0.0
    for op, slot, key, mask in ops:
        now += 1.0
        current = worlds[0].slots[slot]
        if op != "prune" and (current is None or current.committed or current.aborted):
            for world in worlds:
                world.begin(slot, f"t{now:g}", now)
            now += 1.0
        got, want = (world.apply(op, slot, key, mask, now) for world in worlds)
        assert got == want, (op, slot, key)
        assert worlds[0].flags() == worlds[1].flags()
        assert worlds[0].tracker.siread_count() == worlds[1].tracker.siread_count()
        predicates = [
            [(scanner.txn_id, p) for scanner, p in world.tracker._predicates]
            for world in worlds
        ]
        assert predicates[0] == predicates[1]
        _check_reader_index(worlds[0].tracker)


# -- locks ---------------------------------------------------------------------

TXNS = "abcde"
LOCK_KEYS = ["k0", "k1", "k2", "k3"]

lock_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("acquire"),
            st.sampled_from(TXNS),
            st.sampled_from(LOCK_KEYS),
            st.booleans(),
        ),
        st.tuples(st.just("release"), st.sampled_from(TXNS)),
    ),
    max_size=80,
)


def _apply_lock_op(manager, op, seq):
    if op[0] == "release":
        return [grant() for grant in manager.release_all(op[1])]
    _, txn, key, exclusive = op
    mode = EngineLockMode.EXCLUSIVE if exclusive else EngineLockMode.SHARED
    try:
        return manager.acquire(txn, key, mode, lambda label=(txn, key, seq): label)
    except DeadlockError as exc:
        return ("deadlock", exc.txn_id, exc.cycle)


def _lock_state(manager: EngineLockManager):
    return (
        [
            (key, dict(lock.owners), [(w.txn_id, w.mode) for w in lock.queue])
            for key, lock in manager._locks.items()
        ],
        {txn: manager.held_keys_ordered(txn) for txn in TXNS},
        manager.waiting_count(),
    )


def _check_waiter_index(manager: EngineLockManager):
    queued = Counter(
        (waiter.txn_id, key)
        for key, lock in manager._locks.items()
        for waiter in lock.queue
    )
    indexed = Counter(
        {
            (txn, key): count
            for txn, keys in manager._queued.items()
            for key, count in keys.items()
        }
    )
    assert indexed == queued
    assert all(manager._queued.values())


@settings(max_examples=200, deadline=None)
@given(lock_ops)
def test_lock_manager_agrees_with_scans(ops):
    # Blocked transactions may keep requesting here (a client of the
    # engine cannot), so one transaction can wait in several queues, or
    # twice in one.
    indexed, scanned = EngineLockManager(), ScanLockManager()
    for seq, op in enumerate(ops):
        got = _apply_lock_op(indexed, op, seq)
        want = _apply_lock_op(scanned, op, seq)
        assert got == want, op
        assert _lock_state(indexed) == _lock_state(scanned)
        _check_waiter_index(indexed)


def test_release_visits_queues_in_lock_table_order():
    # "b" queues on k0 before k1, but the lock table made k1 first; "c"
    # waits behind "b" in both queues.  Releasing "b" must grant "c" key
    # by key in lock-table order, as a scan of the table does.
    S, X = EngineLockMode.SHARED, EngineLockMode.EXCLUSIVE
    script = [
        ("a", "k1", S, True),
        ("a", "k0", S, True),
        ("b", "k0", X, False),
        ("c", "k0", S, False),
        ("b", "k1", X, False),
        ("c", "k1", S, False),
    ]
    for manager in (EngineLockManager(), ScanLockManager()):
        for txn, key, mode, granted in script:
            assert manager.acquire(txn, key, mode, lambda t=txn, k=key: (t, k)) is granted
        assert [grant() for grant in manager.release_all("b")] == [("c", "k1"), ("c", "k0")]
