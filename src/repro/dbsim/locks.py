"""Engine-side two-phase-locking lock manager.

Implements strict 2PL with FIFO wait queues and wait-for-graph deadlock
detection.  Blocking is what stretches client-observed operation intervals
under contention, which in turn produces the overlapping traces whose
ratio Fig. 4 measures -- so the lock manager is load-bearing for the
realism of the whole trace substrate, not just for correctness.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Hashable, List, Optional, Set

Key = Hashable


class EngineLockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible(self, other: "EngineLockMode") -> bool:
        return self is EngineLockMode.SHARED and other is EngineLockMode.SHARED


@dataclass
class _Waiter:
    txn_id: str
    mode: EngineLockMode
    on_grant: Callable[[], None]


@dataclass
class _KeyLock:
    #: creation rank: orders keys as the lock table's insertion order does.
    rank: int
    owners: Dict[str, EngineLockMode] = field(default_factory=dict)
    queue: Deque[_Waiter] = field(default_factory=deque)


class DeadlockError(Exception):
    """Raised to the requesting transaction chosen as deadlock victim."""

    def __init__(self, txn_id: str, cycle: List[str]):
        super().__init__(f"deadlock: {' -> '.join(cycle)}")
        self.txn_id = txn_id
        self.cycle = cycle


class EngineLockManager:
    """Per-key lock state with blocking continuations.

    ``acquire`` either grants synchronously (returns True), enqueues the
    continuation (returns False), or raises :class:`DeadlockError` when
    granting could never happen because the requester closes a wait cycle.
    The deadlock victim is always the requester -- the policy most engines
    use for the transaction that detects the cycle.
    """

    def __init__(self) -> None:
        self._locks: Dict[Key, _KeyLock] = {}
        self._waits_for: Dict[str, Set[str]] = {}
        # Insertion-ordered (dict keys, not a set): release_all grants
        # blocked waiters key by key, so the iteration order here decides
        # which client resumes first -- it must be a function of the
        # acquisition history, never of the per-process hash salt
        # (PYTHONHASHSEED), or seeded workload runs stop being
        # reproducible across interpreters.
        self._held: Dict[str, Dict[Key, None]] = {}
        #: waiter -> {key: queue entries of it there}, so a release visits
        #: only the queues its transaction sits in.
        self._queued: Dict[str, Dict[Key, int]] = {}
        self._ranks = itertools.count()

    # -- acquisition -----------------------------------------------------------

    def acquire(
        self,
        txn_id: str,
        key: Key,
        mode: EngineLockMode,
        on_grant: Callable[[], None],
    ) -> bool:
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = _KeyLock(next(self._ranks))
        if self._grantable(lock, txn_id, mode):
            self._grant(lock, txn_id, mode, key)
            return True
        blockers = self._blockers(lock, txn_id, mode)
        cycle = self._find_deadlock(txn_id, blockers)
        if cycle is not None:
            raise DeadlockError(txn_id, cycle)
        self._waits_for[txn_id] = blockers
        lock.queue.append(_Waiter(txn_id, mode, on_grant))
        queued = self._queued.setdefault(txn_id, {})
        queued[key] = queued.get(key, 0) + 1
        return False

    def _grantable(self, lock: _KeyLock, txn_id: str, mode: EngineLockMode) -> bool:
        held = lock.owners.get(txn_id)
        if held is not None:
            if mode is EngineLockMode.SHARED or held is EngineLockMode.EXCLUSIVE:
                return True
            # Upgrade S -> X: only when sole owner and nobody queued ahead.
            return len(lock.owners) == 1 and not lock.queue
        if lock.queue:
            # FIFO fairness: no overtaking of queued waiters.
            return False
        return all(mode.compatible(m) for m in lock.owners.values())

    def _grant(self, lock: _KeyLock, txn_id: str, mode: EngineLockMode, key: Key) -> None:
        held = lock.owners.get(txn_id)
        if held is EngineLockMode.EXCLUSIVE:
            mode = EngineLockMode.EXCLUSIVE
        lock.owners[txn_id] = (
            EngineLockMode.EXCLUSIVE
            if EngineLockMode.EXCLUSIVE in (held, mode)
            else mode
        )
        self._held.setdefault(txn_id, {})[key] = None
        self._waits_for.pop(txn_id, None)

    def _blockers(self, lock: _KeyLock, txn_id: str, mode: EngineLockMode) -> Set[str]:
        blockers = {
            owner
            for owner, held in lock.owners.items()
            if owner != txn_id and not mode.compatible(held)
        }
        blockers.update(w.txn_id for w in lock.queue if w.txn_id != txn_id)
        return blockers

    def _find_deadlock(self, txn_id: str, blockers: Set[str]) -> Optional[List[str]]:
        """DFS over the wait-for graph: does any blocker (transitively)
        wait for the requester?"""
        stack = list(blockers)
        seen: Set[str] = set()
        parent: Dict[str, str] = {b: txn_id for b in blockers}
        while stack:
            node = stack.pop()
            if node == txn_id:
                cycle = [node]
                while cycle[-1] != txn_id or len(cycle) == 1:
                    nxt = parent.get(cycle[-1])
                    if nxt is None:
                        break
                    cycle.append(nxt)
                    if nxt == txn_id:
                        break
                return list(reversed(cycle))
            if node in seen:
                continue
            seen.add(node)
            for succ in self._waits_for.get(node, ()):
                parent.setdefault(succ, node)
                stack.append(succ)
        return None

    # -- release ----------------------------------------------------------------

    def release_all(self, txn_id: str) -> List[Callable[[], None]]:
        """Release every lock of a transaction and return the continuations
        of waiters that became grantable (the caller schedules them)."""
        granted: List[Callable[[], None]] = []
        keys = self._held.pop(txn_id, {})
        for key in self._remove_from_queues(txn_id):
            keys.setdefault(key, None)
        self._waits_for.pop(txn_id, None)
        for key in keys:
            lock = self._locks.get(key)
            if lock is None:
                continue
            lock.owners.pop(txn_id, None)
            granted.extend(self._drain_queue(lock, key))
            if not lock.owners and not lock.queue:
                del self._locks[key]
        return granted

    def _remove_from_queues(self, txn_id: str) -> List[Key]:
        """Remove a transaction from all wait queues; returns the keys whose
        queues changed (their heads may have become grantable), in lock-table
        insertion order (deterministic across hash seeds)."""
        affected = sorted(
            self._queued.pop(txn_id, ()), key=lambda key: self._locks[key].rank
        )
        for key in affected:
            lock = self._locks[key]
            lock.queue = deque(w for w in lock.queue if w.txn_id != txn_id)
        return affected

    def _drain_queue(self, lock: _KeyLock, key: Key) -> List[Callable[[], None]]:
        granted: List[Callable[[], None]] = []
        while lock.queue:
            waiter = lock.queue[0]
            held = lock.owners.get(waiter.txn_id)
            compatible = all(
                waiter.mode.compatible(m)
                for owner, m in lock.owners.items()
                if owner != waiter.txn_id
            )
            if held is EngineLockMode.EXCLUSIVE:
                compatible = len(lock.owners) == 1
            if not compatible:
                break
            lock.queue.popleft()
            self._dequeued(waiter.txn_id, key)
            self._grant(lock, waiter.txn_id, waiter.mode, key)
            granted.append(waiter.on_grant)
            if waiter.mode is EngineLockMode.EXCLUSIVE:
                break
        return granted

    def _dequeued(self, txn_id: str, key: Key) -> None:
        queued = self._queued[txn_id]
        if queued[key] > 1:
            queued[key] -= 1
        elif len(queued) > 1:
            del queued[key]
        else:
            del self._queued[txn_id]

    # -- introspection --------------------------------------------------------------

    def holds(self, txn_id: str, key: Key) -> Optional[EngineLockMode]:
        lock = self._locks.get(key)
        if lock is None:
            return None
        return lock.owners.get(txn_id)

    def held_keys(self, txn_id: str) -> Set[Key]:
        return set(self._held.get(txn_id, ()))

    def held_keys_ordered(self, txn_id: str) -> List[Key]:
        """Held keys in acquisition order (hash-seed independent)."""
        return list(self._held.get(txn_id, ()))

    def waiting_count(self) -> int:
        return sum(len(lock.queue) for lock in self._locks.values())
