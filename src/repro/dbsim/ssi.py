"""Engine-side serializable snapshot isolation (SSI) certifier.

A simplified implementation of the PostgreSQL SSI rules (Ports & Grittner,
VLDB 2012): track rw anti-dependencies between concurrent transactions via
SIREAD records and abort any transaction observed with both an incoming and
an outgoing rw edge (the pivot of a dangerous structure).  The
simplification -- aborting on the pivot unconditionally rather than
checking commit orders -- only causes extra aborts, never an isolation
violation, which is exactly the conservatism the real engine also accepts.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Hashable, List, Optional

Key = Hashable


class SsiTracker:
    """SIREAD table plus rw-conflict flags.

    Each SIREAD is filed twice, as PostgreSQL links a SIREAD lock into
    both its target's and its owner's lists: under the key (the readers a
    writer must flag, in registration order) and under the reader (the
    keys its abort or retirement frees).  So a read and an abort cost
    what they touch; only the periodic :meth:`prune` walks the readers
    still filed.  Transactions are indexed by identity (``id``),
    which is what the SIREAD table compares by, and every index entry
    keeps its transaction alive, so an ``id`` is never reused while filed.
    """

    def __init__(self) -> None:
        #: key -> {id(reader): reader}, in registration order.
        self._readers: Dict[Key, Dict[int, object]] = {}
        #: id(reader) -> (reader, {key: None}) over the keys it read.
        self._reads_of: Dict[int, tuple] = {}
        #: predicate SIREADs: scans conflict with later writers *creating*
        #: matching rows (phantom-protection, as PostgreSQL's predicate
        #: locks provide).
        self._predicates: List[tuple] = []

    # -- reads ----------------------------------------------------------------

    def register_read(self, txn, key: Key) -> None:
        filed = self._reads_of.get(id(txn))
        if filed is None:
            filed = self._reads_of[id(txn)] = (txn, {})
        keys = filed[1]
        if key not in keys:
            keys[key] = None
            self._readers.setdefault(key, {})[id(txn)] = txn

    def on_read(self, txn, key: Key, newer_writers: List[object]) -> Optional[str]:
        """The reader observed a version that ``newer_writers`` have already
        overwritten (committed or staged): record ``txn --rw--> writer``
        edges.  Returns an abort reason when the reader itself becomes a
        dangerous pivot against an already-committed peer."""
        for writer in newer_writers:
            if writer is txn:
                continue
            txn.out_conflict = True
            writer.in_conflict = True
            if writer.committed and writer.out_conflict:
                # The committed writer is a pivot we can no longer abort;
                # the reader must die instead.
                return (
                    f"rw conflict with committed pivot {writer.txn_id}"
                )
        return None

    def register_predicate(self, txn, predicate) -> None:
        self._predicates.append((txn, predicate))

    # -- writes -----------------------------------------------------------------

    def on_write(self, txn, key: Key) -> Optional[str]:
        """The writer is creating a newer version of a record somebody
        read: record ``reader --rw--> txn`` edges.  Predicate SIREADs
        conflict when the written key matches a scanned range."""
        readers = self._readers.get(key)
        scanners = [
            scanner
            for scanner, predicate in self._predicates
            if predicate.matches(key)
        ]
        # includes committed readers
        for reader in chain(readers.values() if readers else (), scanners):
            if reader is txn or reader.aborted:
                continue
            if not self._concurrent(reader, txn):
                continue
            reader.out_conflict = True
            txn.in_conflict = True
            if reader.committed and reader.in_conflict:
                return (
                    f"rw conflict turning committed reader "
                    f"{reader.txn_id} into a pivot"
                )
        return None

    @staticmethod
    def _concurrent(a, b) -> bool:
        a_end = a.commit_ts if a.commit_ts is not None else float("inf")
        b_end = b.commit_ts if b.commit_ts is not None else float("inf")
        return a.begin_ts < b_end and b.begin_ts < a_end

    # -- commit ------------------------------------------------------------------

    def commit_check(self, txn) -> Optional[str]:
        if txn.in_conflict and txn.out_conflict:
            return "dangerous structure: pivot with in- and out-rw conflicts"
        return None

    # -- housekeeping ---------------------------------------------------------------

    def forget(self, txn) -> None:
        """Drop the SIREAD entries of an aborted transaction."""
        filed = self._reads_of.pop(id(txn), None)
        if filed is not None:
            self._unfile(txn, filed[1])
        self._predicates = [
            (scanner, predicate)
            for scanner, predicate in self._predicates
            if scanner is not txn
        ]

    def _unfile(self, txn, keys) -> None:
        for key in keys:
            readers = self._readers[key]
            del readers[id(txn)]
            if not readers:
                del self._readers[key]

    def prune(self, oldest_active_begin: float) -> int:
        """Release SIREAD entries of transactions that committed before any
        active transaction began (they can no longer be concurrent with
        anything)."""
        pruned = 0
        for ident, (reader, keys) in list(self._reads_of.items()):
            if self._retired(reader, oldest_active_begin):
                del self._reads_of[ident]
                self._unfile(reader, keys)
                pruned += len(keys)
        before = len(self._predicates)
        self._predicates = [
            (scanner, predicate)
            for scanner, predicate in self._predicates
            if not self._retired(scanner, oldest_active_begin)
        ]
        pruned += before - len(self._predicates)
        return pruned

    @staticmethod
    def _retired(txn, oldest_active_begin: float) -> bool:
        return (
            txn.committed
            and txn.commit_ts is not None
            and txn.commit_ts < oldest_active_begin
        )

    def siread_count(self) -> int:
        return sum(len(v) for v in self._readers.values())
