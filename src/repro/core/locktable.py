"""Verifier-side interval lock table for mutual-exclusion verification.

ME treats every traced write as acquiring an exclusive lock on each written
record during the write's trace interval (Definition 3), released during
the transaction's commit/abort interval.  Engines that run reads under pure
two-phase locking additionally take shared locks for reads.

Because the exact acquire/release instants are hidden, the table reasons
over *feasible orders*: for two conflicting locks there are (at most) two
serial orders -- "t0 releases before t1 acquires" and the converse.  An
order is feasible iff the corresponding release interval can precede the
acquire interval (``Interval.can_precede``).  When neither is feasible the
locks necessarily overlapped: a genuine ME violation.  When exactly one is
feasible, the order is certain and a ``ww`` dependency is deduced
(Theorem 3).  When both remain feasible the pair stays *uncertain* -- this
happens only for near-identical intervals and is counted in the Fig. 13
uncertainty statistics.

Like the version chains, lock chains are index-maintained: each per-key
chain keeps a parallel sorted key list (``(acquire.ts_aft, seq)`` -- the
``seq`` tie-break makes the key a total order, so equal after-timestamps
keep insertion order exactly as the historical insertion sort did) driving
bisect insertion, plus per-key *finished* sublists in chain order so ME
pair enumeration walks only genuine candidates instead of filtering the
full chain, and a per-(key, txn) open-entry index so acquisition folding
is a dict hit instead of a chain scan (Section V-B).
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .intervals import Interval, UNFINISHED_INTERVAL
from .trace import Key

_lock_seq = itertools.count()


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


class OrderOutcome(enum.Enum):
    """Result of enumerating the feasible orders for one lock pair."""

    #: no serial order is feasible -- mutual exclusion was violated.
    VIOLATION = "violation"
    #: only "first releases before second acquires" is feasible.
    FIRST_BEFORE_SECOND = "first-before-second"
    #: only "second releases before first acquires" is feasible.
    SECOND_BEFORE_FIRST = "second-before-first"
    #: both serial orders remain feasible -- order cannot be deduced.
    UNCERTAIN = "uncertain"


@dataclass(eq=False, slots=True)
class LockEntry:
    """One lock acquisition observed in the traces.

    Entries compare by identity (as versions do): two acquisitions are
    distinct entries whatever their fields, and chain membership
    operations (``list.index`` / ``list.remove``) are C-level scans."""

    key: Key
    txn_id: str
    mode: LockMode
    acquire: Interval
    release: Interval = UNFINISHED_INTERVAL
    #: whether the owning transaction eventually committed (ww deduction
    #: only applies between committed transactions).
    committed: bool = False
    finished: bool = False
    #: process-wide acquisition sequence; breaks sort-key ties so chain
    #: order is total and bisect-searchable.
    seq: int = field(default_factory=_lock_seq.__next__)

    def close(self, release: Interval, committed: bool) -> None:
        self.release = release
        self.committed = committed
        self.finished = True


def lock_sort_key(entry: LockEntry) -> Tuple[float, int]:
    """Chain order for lock entries: acquire after-timestamp, with the
    acquisition sequence as a total-order tie-break (equal timestamps keep
    acquisition order, matching the historical insertion sort)."""
    return (entry.acquire.ts_aft, entry.seq)


def classify_pair(first: LockEntry, second: LockEntry) -> OrderOutcome:
    """Enumerate the feasible serial orders of two conflicting locks.

    Implements the case analysis of Fig. 7: an order ``A before B`` is
    feasible iff A's release interval can precede B's acquire interval.
    Unfinished locks have release interval (+inf, +inf), which makes
    "active txn before anything" infeasible and "anything before active
    txn" trivially feasible -- matching intuition that an in-flight
    transaction cannot yet have released its locks.
    """
    first_then_second = first.release.can_precede(second.acquire)
    second_then_first = second.release.can_precede(first.acquire)
    if first_then_second and second_then_first:
        return OrderOutcome.UNCERTAIN
    if first_then_second:
        return OrderOutcome.FIRST_BEFORE_SECOND
    if second_then_first:
        return OrderOutcome.SECOND_BEFORE_FIRST
    return OrderOutcome.VIOLATION


class LockTable:
    """All lock intervals per record, with index-maintained chains.

    The table retains finished locks until garbage collection decides they
    can no longer conflict with (or order against) anything still active,
    mirroring the pruning discussion of Section V-B.
    """

    def __init__(self) -> None:
        self._by_key: Dict[Key, List[LockEntry]] = {}
        #: parallel sorted :func:`lock_sort_key` list per key chain.
        self._key_sort: Dict[Key, List[Tuple[float, int]]] = {}
        self._by_txn: Dict[str, List[LockEntry]] = {}
        #: open (unfinished) entries per (key, txn) in chain order -- at
        #: most two in practice (a shared entry plus its upgrade).
        self._open: Dict[Tuple[Key, str], List[LockEntry]] = {}
        #: finished entries per key in chain order -- the only candidates
        #: ME pair enumeration has to walk.  Exclusive peers for a shared
        #: entry are filtered from this list on release (shared locks only
        #: exist under pure-2PL specs, so the filter rarely runs).
        self._finished: Dict[Key, List[LockEntry]] = {}

    # -- structure -----------------------------------------------------------

    def entries_for(self, key: Key) -> List[LockEntry]:
        return list(self._by_key.get(key, ()))

    def entries_of(self, txn_id: str) -> List[LockEntry]:
        return list(self._by_txn.get(txn_id, ()))

    def live_entry_count(self) -> int:
        return sum(len(chain) for chain in self._by_key.values())

    # -- mutation ---------------------------------------------------------------

    def acquire(
        self, txn_id: str, key: Key, mode: LockMode, interval: Interval
    ) -> LockEntry:
        """Record a lock acquisition.

        Repeated acquisitions by the same transaction on the same key are
        folded into the existing entry, with one exception: an S-to-X
        *upgrade* adds a second, exclusive entry anchored to the upgrading
        operation's interval.  The exclusive claim only begins inside that
        operation (another transaction's shared lock may have legitimately
        coexisted with the earlier shared phase), so back-dating the X to
        the original S acquire would produce false ME violations.
        """
        open_key = (key, txn_id)
        open_entries = self._open.get(open_key)
        if open_entries:
            # Fold into the first open entry in chain order -- unless this
            # is an S-to-X upgrade, which becomes its own exclusive entry.
            first = open_entries[0]
            if not (mode is LockMode.EXCLUSIVE and first.mode is LockMode.SHARED):
                return first
        entry = LockEntry(key=key, txn_id=txn_id, mode=mode, acquire=interval)
        sort_key = (interval.ts_aft, entry.seq)
        chain = self._by_key.get(key)
        if chain is None:
            chain = self._by_key[key] = []
            keys = self._key_sort[key] = []
        else:
            keys = self._key_sort[key]
        if not keys or sort_key > keys[-1]:
            # Acquisitions arrive roughly in timestamp order: tail append.
            keys.append(sort_key)
            chain.append(entry)
        else:
            position = bisect_left(keys, sort_key)
            keys.insert(position, sort_key)
            chain.insert(position, entry)
        txn_entries = self._by_txn.get(txn_id)
        if txn_entries is None:
            self._by_txn[txn_id] = [entry]
        else:
            txn_entries.append(entry)
        if open_entries is None:
            self._open[open_key] = [entry]
        else:
            _insert_open(open_entries, entry)
        return entry

    def release_all(
        self, txn_id: str, release: Interval, committed: bool
    ) -> List[Tuple[LockEntry, List[LockEntry]]]:
        """Close every lock of a finishing transaction and pair each with
        the conflicting locks of *other finished* transactions.

        Pairs where the peer is still active are deferred: they will be
        produced when the peer itself finishes, so every conflicting pair is
        examined exactly once (by whichever transaction finishes second).
        """
        results: List[Tuple[LockEntry, List[LockEntry]]] = []
        open_map = self._open
        finished_map = self._finished
        exclusive = LockMode.EXCLUSIVE
        for entry in self._by_txn.get(txn_id, ()):  # preserves acquire order
            if entry.finished:
                continue
            entry.release = release
            entry.committed = committed
            entry.finished = True
            key = entry.key
            open_entries = open_map.pop((key, txn_id), None)
            if open_entries is not None and len(open_entries) > 1:
                remaining = [e for e in open_entries if e is not entry]
                if remaining:
                    open_map[(key, txn_id)] = remaining
            # Only exclusive peers conflict with a shared lock; everything
            # conflicts with an exclusive one.  The finished sublist is
            # kept in chain order, so enumeration order matches a
            # full-chain scan.
            peers = finished_map.get(key)
            if peers is None:
                results.append((entry, []))
                finished_map[key] = [entry]
                continue
            if entry.mode is exclusive:
                conflicts = [o for o in peers if o.txn_id != txn_id]
            else:
                conflicts = [
                    o
                    for o in peers
                    if o.txn_id != txn_id and o.mode is exclusive
                ]
            results.append((entry, conflicts))
            # Inlined tail-append insert (transactions mostly finish in
            # acquisition order); out-of-order completions insort.
            last = peers[-1]
            aft = entry.acquire.ts_aft
            if aft > last.acquire.ts_aft or (
                aft == last.acquire.ts_aft and entry.seq > last.seq
            ):
                peers.append(entry)
            else:
                insort(peers, entry, key=lock_sort_key)
        return results

    # -- garbage collection ---------------------------------------------------------

    def drop_owner(self, txn_id: str) -> int:
        """Drop the finished locks of a transaction the collector retires;
        returns how many went.

        A lock is released in its owner's terminal interval, so "released
        definitely before the horizon by a releasable owner" is exactly the
        rule that retires the owner's metadata (Section V-B): such a lock
        can only produce FIRST_BEFORE_SECOND outcomes against any future
        lock (its release precedes every future acquire), so it can never
        witness a violation again, and the ``ww`` edges it ordered are
        covered by the dependency-graph rule (Theorem 5).  Entries never
        released (specs without a lock manager mirror acquisitions only)
        stay.  Each entry leaves by position -- one bisect on the chain's
        sort keys; the finished sublist has none, but a retired entry is
        among its oldest, so that identity scan stops near the front -- and
        a chain it empties goes whole.
        """
        entries = self._by_txn.pop(txn_id, None)
        if not entries:
            return 0
        by_key = self._by_key
        key_sort = self._key_sort
        finished_map = self._finished
        dropped = 0
        for entry in entries:
            if not entry.finished:
                continue
            dropped += 1
            key = entry.key
            chain = by_key[key]
            if len(chain) == 1:
                del by_key[key], key_sort[key], finished_map[key]
                continue
            keys = key_sort[key]
            position = bisect_left(keys, (entry.acquire.ts_aft, entry.seq))
            del chain[position], keys[position]
            finished = finished_map[key]
            if len(finished) == 1:
                del finished_map[key]
            else:
                finished.remove(entry)
        if dropped != len(entries):
            self._by_txn[txn_id] = [e for e in entries if not e.finished]
        return dropped


def _insert_open(open_entries: List[LockEntry], entry: LockEntry) -> None:
    """Keep the (at most two-element) open list in chain order."""
    sort_key = lock_sort_key(entry)
    for idx, existing in enumerate(open_entries):
        if sort_key < lock_sort_key(existing):
            open_entries.insert(idx, entry)
            return
    open_entries.append(entry)
