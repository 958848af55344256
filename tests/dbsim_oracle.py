"""Scan-based references for the simulated DBMS's two transaction indexes.

The engine files each SIREAD under its reader as well as its key
(:class:`repro.dbsim.ssi.SsiTracker`), and each lock waiter under its
transaction (:class:`repro.dbsim.locks.EngineLockManager`), so an abort
or a release visits only what its transaction touched.  The references
here keep no such index: they answer the same questions by scanning
every key, as the engine did before the indexes existed.  The model
tests in ``tests/test_dbsim_oracle.py`` drive both through the same
operation sequences and require every answer to agree -- conflict
flags, abort reasons, SIREAD counts, grants and their order.
"""

from collections import deque
from typing import Dict, List, Optional

from repro.dbsim.locks import EngineLockManager


class ScanSsiTracker:
    """The SIREAD table as one list of readers per key: a read scans the
    key's list for its reader, an abort and a prune rebuild every list."""

    def __init__(self) -> None:
        self._readers: Dict[object, List[object]] = {}
        self._predicates: List[tuple] = []

    def register_read(self, txn, key) -> None:
        readers = self._readers.setdefault(key, [])
        if not any(reader is txn for reader in readers):
            readers.append(txn)

    def register_predicate(self, txn, predicate) -> None:
        self._predicates.append((txn, predicate))

    def on_read(self, txn, key, newer_writers) -> Optional[str]:
        for writer in newer_writers:
            if writer is txn:
                continue
            txn.out_conflict = True
            writer.in_conflict = True
            if writer.committed and writer.out_conflict:
                return f"rw conflict with committed pivot {writer.txn_id}"
        return None

    def on_write(self, txn, key) -> Optional[str]:
        readers = list(self._readers.get(key, ()))
        readers.extend(
            scanner
            for scanner, predicate in self._predicates
            if predicate.matches(key)
        )
        for reader in readers:
            if reader is txn or reader.aborted:
                continue
            if not _concurrent(reader, txn):
                continue
            reader.out_conflict = True
            txn.in_conflict = True
            if reader.committed and reader.in_conflict:
                return (
                    f"rw conflict turning committed reader "
                    f"{reader.txn_id} into a pivot"
                )
        return None

    def commit_check(self, txn) -> Optional[str]:
        if txn.in_conflict and txn.out_conflict:
            return "dangerous structure: pivot with in- and out-rw conflicts"
        return None

    def forget(self, txn) -> None:
        self._keep_readers(lambda reader: reader is not txn)
        self._predicates = [
            (scanner, predicate)
            for scanner, predicate in self._predicates
            if scanner is not txn
        ]

    def prune(self, oldest_active_begin: float) -> int:
        def live(txn) -> bool:
            return not (
                txn.committed
                and txn.commit_ts is not None
                and txn.commit_ts < oldest_active_begin
            )

        pruned = self._keep_readers(live)
        before = len(self._predicates)
        self._predicates = [
            (scanner, predicate)
            for scanner, predicate in self._predicates
            if live(scanner)
        ]
        return pruned + before - len(self._predicates)

    def _keep_readers(self, keep) -> int:
        dropped = 0
        for key in list(self._readers):
            kept = [reader for reader in self._readers[key] if keep(reader)]
            dropped += len(self._readers[key]) - len(kept)
            if kept:
                self._readers[key] = kept
            else:
                del self._readers[key]
        return dropped

    def siread_count(self) -> int:
        return sum(len(readers) for readers in self._readers.values())


def _concurrent(a, b) -> bool:
    a_end = a.commit_ts if a.commit_ts is not None else float("inf")
    b_end = b.commit_ts if b.commit_ts is not None else float("inf")
    return a.begin_ts < b_end and b.begin_ts < a_end


class ScanLockManager(EngineLockManager):
    """The lock manager with the waiter index left unread: a release
    finds the transaction's queue entries by scanning every key's queue,
    in lock-table order."""

    def _remove_from_queues(self, txn_id: str) -> List:
        self._queued.pop(txn_id, None)
        affected = []
        for key, lock in self._locks.items():
            if any(waiter.txn_id == txn_id for waiter in lock.queue):
                lock.queue = deque(w for w in lock.queue if w.txn_id != txn_id)
                affected.append(key)
        return affected
