"""The collector's retirement rules as exhaustive sweeps: the specification
``core/gc.py`` is tested against.

These are the collector's original steps -- the scan-to-fixpoint graph
pruner, the sweep over every finished lock entry, the set-building version
prune over the Fig. 6 scan and the sweep over the transaction table --
moved here when ``core/gc.py`` became one horizon-driven, indexed pass.
They read every structure through its accessors, visit all of live state
and use no frontier, heap, candidate set or sort key, so they cannot share
a defect with the code under test.  Each is a pure function of the state:
it says what a collection at ``horizon_ts`` must retire and removes
nothing.

:func:`checked` wraps ``GarbageCollector.collect`` so that *every*
collection of every in-process backend (serial, inline shards and their
merge replay, online) is compared with the sweeps: the same retired
structures, the same ``gc_*`` stats, the same ``live_structure_count()``.
"""

from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Set

from repro.core.gc import GarbageCollector
from repro.core.intervals import Interval
from repro.core.state import VerifierState

from tests import fig6_oracle


# -- the sweeps ----------------------------------------------------------------


def _definition4(state: VerifierState, txn_id: str, horizon_ts: float) -> bool:
    """Definition 4 body checks for an in-degree-zero node."""
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


def garbage_txns(state: VerifierState, horizon_ts: float) -> Set[str]:
    """Garbage transactions (Definition 4 / Theorem 5) by scanning every
    node to a fixpoint: removing a garbage node deletes its outgoing edges,
    which can turn successors into garbage."""
    graph = state.graph
    preds = {txn_id: graph.predecessors(txn_id) for txn_id in graph.nodes()}
    gone: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for txn_id in graph.nodes():
            if txn_id in gone or preds[txn_id]:
                continue
            if not _definition4(state, txn_id, horizon_ts):
                continue
            for succ in graph.successors(txn_id):
                preds[succ].discard(txn_id)
            gone.add(txn_id)
            changed = True
    return gone


def releasable(state: VerifierState, gone: Set[str]) -> Callable[[str], bool]:
    """The owner predicate of lock and version pruning once ``gone`` has
    left the graph: no node, and finished (or no metadata left)."""

    def can_prune(txn_id: str) -> bool:
        if txn_id in state.graph and txn_id not in gone:
            return False
        txn = state.get_txn(txn_id)
        return txn is None or txn.finished

    return can_prune


def all_locks(state: VerifierState) -> List:
    return [e for chain in state.locks._by_key.values() for e in chain]


def garbage_locks(state: VerifierState, horizon_ts: float, can_prune) -> List:
    """Garbage lock entries (Section V-B): finished, released definitely
    before the horizon, owner releasable -- over every entry of the
    table."""
    return [
        entry
        for entry in all_locks(state)
        if entry.finished
        and entry.release.ts_aft < horizon_ts
        and can_prune(entry.txn_id)
    ]


def garbage_versions(state: VerifierState, horizon_ts: float, can_prune) -> List:
    """Garbage versions (Fig. 6 at the horizon, Section V-A): classified
    garbage by the linear scan against the zero-width horizon snapshot and
    installed by a releasable transaction -- over every chain."""
    horizon = Interval(horizon_ts, horizon_ts)
    return [
        version
        for chain in state.chains.values()
        for version in fig6_oracle.classify(
            chain.committed_versions(), horizon
        ).garbage
        if can_prune(version.txn_id) or version.is_initial
    ]


def garbage_metadata(state: VerifierState, horizon_ts: float, gone: Set[str]) -> Set[str]:
    """Transaction states nothing references: finished, terminal
    after-timestamp behind the horizon, no graph node -- over the whole
    transaction table."""
    return {
        txn_id
        for txn_id, txn in state.txns.items()
        if txn.finished
        and txn.terminal_interval is not None
        and txn.terminal_interval.ts_aft < horizon_ts
        and (txn_id not in state.graph or txn_id in gone)
    }


def recount(state: VerifierState) -> int:
    """``live_structure_count()`` recounted from the structures."""
    graph = state.graph
    return (
        sum(
            len(chain.committed_versions()) + chain.pending_count()
            for chain in state.chains.values()
        )
        + len(all_locks(state))
        + len(graph.nodes())
        + sum(
            len(graph.edge_types(src, dst))
            for src in graph.nodes()
            for dst in graph.successors(src)
        )
        + len(state.txns)
    )


# -- one collection against the sweeps -----------------------------------------


class Retired(NamedTuple):
    txns: int = 0
    locks: int = 0
    versions: int = 0
    metadata: int = 0
    collections: int = 0


def _by_id(objects) -> Dict[int, object]:
    return {id(obj): obj for obj in objects}


def _all_versions(state: VerifierState) -> List:
    return [
        v for chain in state.chains.values() for v in chain.committed_versions()
    ]


def check_collection(collector: GarbageCollector, collect, horizon_ts=None) -> Retired:
    """Run ``collect(collector, horizon_ts)`` and assert it retired exactly
    what the sweeps say a collection at that horizon retires."""
    state = collector._state
    horizon = (
        state.earliest_unverified_snapshot() if horizon_ts is None else horizon_ts
    )
    if horizon == float("-inf"):
        collect(collector, horizon_ts)
        return Retired()
    gone = garbage_txns(state, horizon)
    can_prune = releasable(state, gone)
    want_locks = _by_id(garbage_locks(state, horizon, can_prune))
    want_versions = _by_id(garbage_versions(state, horizon, can_prune))
    want_metadata = garbage_metadata(state, horizon, gone)

    nodes = set(state.graph.nodes())
    locks = _by_id(all_locks(state))
    versions = _by_id(_all_versions(state))
    txns = set(state.txns)
    stats = state.stats
    pruned = (stats.gc_txns_pruned, stats.gc_locks_pruned, stats.gc_versions_pruned)

    collect(collector, horizon_ts)

    assert nodes - set(state.graph.nodes()) == gone
    assert locks.keys() - _by_id(all_locks(state)).keys() == want_locks.keys()
    assert (
        versions.keys() - _by_id(_all_versions(state)).keys()
        == want_versions.keys()
    )
    assert txns - set(state.txns) == want_metadata
    assert (
        stats.gc_txns_pruned - pruned[0],
        stats.gc_locks_pruned - pruned[1],
        stats.gc_versions_pruned - pruned[2],
    ) == (len(gone), len(want_locks), len(want_versions))
    assert state.live_structure_count() == recount(state)
    # What the indexed steps lean on: the frontier is exactly the
    # zero-in-degree set, and every index of the lock table still mirrors
    # its chains.
    graph = state.graph
    assert set(graph.zero_in_degree_frontier()) == {
        n for n in graph.nodes() if graph.in_degree(n) == 0
    }
    check_lock_indexes(state)
    return Retired(
        len(gone), len(want_locks), len(want_versions), len(want_metadata), 1
    )


def check_lock_indexes(state: VerifierState) -> None:
    """The lock table's sort keys, finished sublists and ownership index
    re-derived from its chains."""
    from repro.core.locktable import lock_sort_key

    table = state.locks
    assert table._key_sort.keys() == table._by_key.keys()
    by_txn: Dict[str, List] = {}
    for key, chain in table._by_key.items():
        assert chain, key
        assert table._key_sort[key] == [lock_sort_key(e) for e in chain]
        finished = [e for e in chain if e.finished]
        assert [id(e) for e in table._finished.get(key, [])] == [
            id(e) for e in finished
        ]
    assert all(table._finished.values())
    for entry in sorted(all_locks(state), key=lambda e: e.seq):
        by_txn.setdefault(entry.txn_id, []).append(id(entry))
    assert {
        txn_id: [id(e) for e in entries]
        for txn_id, entries in table._by_txn.items()
    } == by_txn


@contextmanager
def checked():
    """Check every collection made inside the block against the sweeps;
    yields a one-element list holding the running :class:`Retired`
    totals."""
    plain = GarbageCollector.collect
    totals = [Retired()]

    def collect(self, horizon_ts=None):
        retired = check_collection(self, plain, horizon_ts)
        totals[0] = Retired(*(a + b for a, b in zip(totals[0], retired)))

    GarbageCollector.collect = collect
    try:
        yield totals
    finally:
        GarbageCollector.collect = plain
