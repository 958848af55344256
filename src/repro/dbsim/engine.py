"""The simulated multi-version DBMS engine.

A single-threaded, discrete-event transactional engine whose concurrency
control is assembled from the same four mechanisms the verifier checks
(Fig. 1): MVCC snapshots (CR), strict 2PL (ME), first-updater-wins (FUW)
and a pluggable commit certifier (SC: SSI, OCC-style validation, or
first-committer-wins).  Clients interact through asynchronous submit calls;
every operation spends sampled network and processing latency, may block on
locks, and mutates or reads the store atomically at one hidden instant
strictly inside its client-observed interval -- the property the whole
interval-based verification approach rests on.

Fault injection (see :mod:`repro.dbsim.faults`) perturbs exactly these code
paths to reproduce the paper's bug classes.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..core.spec import CertifierKind, IsolationSpec, PG_SERIALIZABLE
from ..core.trace import as_columns, is_tombstone, squash_delta
from .events import EventLoop
from .faults import CLEAN, FaultDice, FaultPlan
from .locks import DeadlockError, EngineLockManager, EngineLockMode
from .mvto import MvtoValidator
from .occ import FirstCommitterValidator, OccValidator
from .snapshots import SnapshotManager
from .ssi import SsiTracker
from .storage import INITIAL_TS, MultiVersionStore, StoredVersion

Key = Hashable
ResultCallback = Callable[["OpResult"], None]


@dataclass(frozen=True)
class LatencyModel:
    """Latency distribution of the simulated deployment (seconds).

    Exponential service times with a floor: long tails produce the interval
    overlaps the paper measures, the floor keeps intervals non-degenerate.
    """

    network_mean: float = 2e-4
    read_mean: float = 3e-4
    write_mean: float = 3e-4
    commit_mean: float = 6e-4
    floor: float = 5e-5

    def sample(self, rng: random.Random, mean: float) -> float:
        return max(self.floor, rng.expovariate(1.0 / mean))

    def network(self, rng: random.Random) -> float:
        return self.sample(rng, self.network_mean)


class TxnPhase(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class EngineTxn:
    """Engine-side transaction descriptor."""

    txn_id: str
    client_id: int
    begin_ts: float
    snapshot_ts: Optional[float] = None
    staged: Dict[Key, Dict[str, object]] = field(default_factory=dict)
    read_versions: Dict[Key, float] = field(default_factory=dict)
    in_conflict: bool = False
    out_conflict: bool = False
    phase: TxnPhase = TxnPhase.ACTIVE
    commit_ts: Optional[float] = None
    #: poisoned by a failed operation; only rollback is allowed afterwards.
    must_abort: Optional[str] = None

    @property
    def committed(self) -> bool:
        return self.phase is TxnPhase.COMMITTED

    @property
    def aborted(self) -> bool:
        return self.phase is TxnPhase.ABORTED


@dataclass
class OpResult:
    """What the client observes for one operation."""

    ok: bool
    values: Dict[Key, Optional[Dict[str, object]]] = field(default_factory=dict)
    error: Optional[str] = None


@dataclass
class EngineStats:
    begun: int = 0
    committed: int = 0
    aborted: int = 0
    deadlocks: int = 0
    serialization_failures: int = 0
    reads: int = 0
    writes: int = 0
    lock_waits: int = 0


class SimulatedDBMS:
    """The simulated engine; see module docstring."""

    _PRUNE_EVERY = 512

    def __init__(
        self,
        spec: IsolationSpec = PG_SERIALIZABLE,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        faults: FaultPlan = CLEAN,
        loop: Optional[EventLoop] = None,
        cc_protocol: str = "occ",
    ):
        """``cc_protocol`` selects the concrete engine protocol behind a
        CYCLE-certifier spec: ``"occ"`` (commit-time backward validation,
        FoundationDB/RocksDB-optimistic style) or ``"mvto"`` (write-time
        timestamp-ordering, CockroachDB style)."""
        if cc_protocol not in ("occ", "mvto"):
            raise ValueError(f"unknown cc_protocol {cc_protocol!r}")
        self.cc_protocol = cc_protocol
        self.spec = spec
        self.loop = loop or EventLoop()
        self.latency = latency or LatencyModel()
        self.rng = random.Random(seed)
        self.faults = faults
        self._dice = FaultDice(faults)
        self.store = MultiVersionStore()
        self.locks = EngineLockManager()
        self.snapshots = SnapshotManager(spec.cr)
        self.ssi = SsiTracker() if spec.certifier is CertifierKind.SSI else None
        is_cycle = spec.certifier is CertifierKind.CYCLE
        # Both lock-free protocols validate reads at commit (backward
        # validation); MVTO additionally enforces timestamp order at write
        # time, giving it the early-abort profile of a TO engine.
        self.occ = OccValidator() if is_cycle else None
        self.mvto = MvtoValidator() if is_cycle and cc_protocol == "mvto" else None
        self.fcw = (
            FirstCommitterValidator()
            if spec.certifier is CertifierKind.FIRST_COMMITTER
            else None
        )
        self.stats = EngineStats()
        self._txns: Dict[str, EngineTxn] = {}
        self._staged_by_key: Dict[Key, Dict[str, EngineTxn]] = {}
        self._txn_seq = itertools.count()
        self._commit_epsilon = 1e-9
        self._last_commit_ts = INITIAL_TS
        self._finishes_since_prune = 0
        self.initial_db: Dict[Key, Dict[str, object]] = {}

    # -- population --------------------------------------------------------------

    def load(self, initial: Mapping[Key, object]) -> Dict[Key, Dict[str, object]]:
        """Populate the store before the traced run; returns the normalised
        column images (pass them to the verifier's ``initial_db``)."""
        normalised = {key: as_columns(value) for key, value in initial.items()}
        self.store = MultiVersionStore(normalised)
        self.initial_db = normalised
        return normalised

    # -- transaction lifecycle -------------------------------------------------------

    def begin(self, client_id: int = 0, txn_id: Optional[str] = None) -> EngineTxn:
        if txn_id is None:
            txn_id = f"t{next(self._txn_seq)}"
        txn = EngineTxn(txn_id=txn_id, client_id=client_id, begin_ts=self.loop.now)
        self._txns[txn_id] = txn
        self.stats.begun += 1
        return txn

    # -- operation submission ------------------------------------------------------------

    def submit_read(
        self,
        txn: EngineTxn,
        keys: Sequence[Key],
        callback: ResultCallback,
        for_update: bool = False,
        columns: Optional[Sequence[str]] = None,
        predicate=None,
    ) -> None:
        keys = list(keys)
        self.stats.reads += 1

        def arrive() -> None:
            if not self._admit(txn, callback):
                return
            # Predicate scans resolve their key set at execution time, so
            # they take no per-key locks up front (index/gap locking is not
            # modelled; serializable engines cover scans via SSI/validation).
            plan = (
                []
                if predicate is not None
                else self._read_lock_plan(txn, keys, for_update)
            )
            self._with_locks(
                txn,
                plan,
                lambda: self._schedule_exec(
                    self.latency.read_mean,
                    lambda: self._exec_read(
                        txn, keys, columns, callback, predicate
                    ),
                ),
                lambda reason: self._fail(txn, callback, reason),
            )

        self.loop.schedule_after(self.latency.network(self.rng), arrive)

    def submit_write(
        self,
        txn: EngineTxn,
        writes: Mapping[Key, object],
        callback: ResultCallback,
    ) -> None:
        normalised = {key: as_columns(value) for key, value in writes.items()}
        self.stats.writes += 1

        def arrive() -> None:
            if not self._admit(txn, callback):
                return
            plan = self._write_lock_plan(txn, normalised)
            self._with_locks(
                txn,
                plan,
                lambda: self._schedule_exec(
                    self.latency.write_mean,
                    lambda: self._exec_write(txn, normalised, callback),
                ),
                lambda reason: self._fail(txn, callback, reason),
            )

        self.loop.schedule_after(self.latency.network(self.rng), arrive)

    def submit_commit(self, txn: EngineTxn, callback: ResultCallback) -> None:
        def arrive() -> None:
            if txn.phase is not TxnPhase.ACTIVE:
                callback(OpResult(ok=False, error="transaction not active"))
                return
            self._schedule_exec(
                self.latency.commit_mean, lambda: self._exec_commit(txn, callback)
            )

        self.loop.schedule_after(self.latency.network(self.rng), arrive)

    def submit_abort(self, txn: EngineTxn, callback: ResultCallback) -> None:
        def arrive() -> None:
            self._schedule_exec(
                self.latency.commit_mean, lambda: self._exec_abort(txn, callback)
            )

        self.loop.schedule_after(self.latency.network(self.rng), arrive)

    # -- lock planning --------------------------------------------------------------------

    def _read_lock_plan(
        self, txn: EngineTxn, keys: Sequence[Key], for_update: bool
    ) -> List[Tuple[Key, EngineLockMode]]:
        plan: List[Tuple[Key, EngineLockMode]] = []
        for key in keys:
            if for_update:
                if self._dice.fires(self.faults.forget_write_lock_prob):
                    continue  # Bug 3: the engine forgot the FOR UPDATE lock.
                plan.append((key, EngineLockMode.EXCLUSIVE))
            elif self.spec.me_read_locks:
                plan.append((key, EngineLockMode.SHARED))
        return plan

    def _write_lock_plan(
        self, txn: EngineTxn, writes: Mapping[Key, Dict[str, object]]
    ) -> List[Tuple[Key, EngineLockMode]]:
        if not self.spec.me or self.faults.disable_write_locks:
            return []
        plan: List[Tuple[Key, EngineLockMode]] = []
        for key, columns in writes.items():
            if self.faults.skip_lock_on_noop_update and self._is_noop_update(
                key, columns
            ):
                continue  # Bug 1: a no-op UPDATE acquired no lock.
            plan.append((key, EngineLockMode.EXCLUSIVE))
        return plan

    def _is_noop_update(self, key: Key, columns: Mapping[str, object]) -> bool:
        latest = self.store.latest(key)
        if latest is None:
            return False
        return all(latest.image.get(col) == val for col, val in columns.items())

    # -- lock acquisition driver ---------------------------------------------------------------

    def _with_locks(
        self,
        txn: EngineTxn,
        plan: List[Tuple[Key, EngineLockMode]],
        cont: Callable[[], None],
        on_deadlock: Callable[[str], None],
    ) -> None:
        def acquire(index: int) -> None:
            i = index
            while i < len(plan):
                key, mode = plan[i]
                next_i = i + 1
                try:
                    granted = self.locks.acquire(
                        txn.txn_id,
                        key,
                        mode,
                        on_grant=lambda n=next_i: self.loop.schedule_after(
                            self.latency.floor, lambda: acquire(n)
                        ),
                    )
                except DeadlockError as exc:
                    self.stats.deadlocks += 1
                    on_deadlock(str(exc))
                    return
                if not granted:
                    self.stats.lock_waits += 1
                    return  # resumed by on_grant when the lock frees up
                i = next_i
            cont()

        acquire(0)

    # -- execution ------------------------------------------------------------------------------

    def _schedule_exec(self, mean: float, fn: Callable[[], None]) -> None:
        self.loop.schedule_after(self.latency.sample(self.rng, mean), fn)

    def _admit(self, txn: EngineTxn, callback: ResultCallback) -> bool:
        if txn.phase is not TxnPhase.ACTIVE:
            callback(OpResult(ok=False, error="transaction not active"))
            return False
        if txn.must_abort is not None:
            callback(
                OpResult(
                    ok=False,
                    error=f"transaction must roll back: {txn.must_abort}",
                )
            )
            return False
        return True

    def _fail(self, txn: EngineTxn, callback: ResultCallback, reason: str) -> None:
        txn.must_abort = reason
        self._respond(callback, OpResult(ok=False, error=reason))

    def _respond(self, callback: ResultCallback, result: OpResult) -> None:
        self.loop.schedule_after(
            self.latency.network(self.rng), lambda: callback(result)
        )

    # -- reads ------------------------------------------------------------------------------------

    def _exec_read(
        self,
        txn: EngineTxn,
        keys: Sequence[Key],
        columns: Optional[Sequence[str]],
        callback: ResultCallback,
        predicate=None,
    ) -> None:
        if txn.phase is not TxnPhase.ACTIVE:
            callback(OpResult(ok=False, error="transaction not active"))
            return
        now = self.loop.now
        snapshot_ts = self.snapshots.snapshot_for(txn, now)
        if predicate is not None:
            keys = self._scan_keys(txn, predicate, snapshot_ts)
            if self.ssi is not None:
                self.ssi.register_predicate(txn, predicate)
        values: Dict[Key, Optional[Dict[str, object]]] = {}
        for key in keys:
            image, abort_reason = self._read_key(txn, key, snapshot_ts)
            if abort_reason is not None:
                self._fail(txn, callback, abort_reason)
                return
            if image is not None and columns is not None:
                image = {col: image.get(col) for col in columns}
            values[key] = image
        self._respond(callback, OpResult(ok=True, values=values))

    def _read_key(
        self, txn: EngineTxn, key: Key, snapshot_ts: float
    ) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
        plan = self.faults
        versions, index = self.store.chain_at(key, snapshot_ts)
        visible = version = versions[index] if index >= 0 else None
        # -- fault injections on the chosen base version -------------------
        if version is not None and self._dice.fires(plan.stale_read_prob):
            older = self.store.version_before(key, version.commit_ts)
            if older is not None:
                version = older  # Bug 2: served an already-superseded version.
        elif self._dice.fires(plan.future_read_prob):
            latest = self.store.latest(key)
            if latest is not None and latest.commit_ts > snapshot_ts:
                version = latest  # non-repeatable read under snapshot CR
        image = dict(version.image) if version is not None else None
        seen_ts = version.commit_ts if version is not None else INITIAL_TS
        if self._dice.fires(plan.dirty_read_prob):
            dirty = self._some_foreign_staged(txn, key)
            if dirty is not None:
                image = dict(image or {})
                image.update(dirty)  # dirty read of uncommitted data
        own = txn.staged.get(key)
        if own and not self._dice.fires(plan.ignore_own_write_prob):
            from ..core.trace import apply_delta

            image = dict(image or {})
            apply_delta(image, own)  # a txn sees its own earlier writes (Bug 4 off)
        if image is not None and is_tombstone(image):
            image = None  # deleted rows read as absent
        txn.read_versions[key] = seen_ts
        if visible is not None:
            visible.note_read(snapshot_ts)
        if self.ssi is not None:
            self.ssi.register_read(txn, key)
            reason = self.ssi.on_read(
                txn, key, self._newer_writers(txn, key, versions[index + 1:])
            )
            if reason is not None and not self.faults.disable_ssi:
                self.stats.serialization_failures += 1
                return image, f"serialization failure: {reason}"
        return image, None

    def _scan_keys(self, txn: EngineTxn, predicate, snapshot_ts: float):
        """Keys matching a predicate with a version visible at the
        snapshot, plus the transaction's own staged inserts.  The
        ``phantom_skip_prob`` fault silently drops matching rows."""
        matching = []
        for key in self.store.keys():
            if not predicate.matches(key):
                continue
            visible = self.store.version_at(key, snapshot_ts)
            if visible is None or is_tombstone(visible.image):
                continue
            if self._dice.fires(self.faults.phantom_skip_prob):
                continue  # result-set bug: a row goes missing
            matching.append(key)
        for key, delta in txn.staged.items():
            if not predicate.matches(key):
                continue
            # A pure staged tombstone hides the row; a squashed
            # delete+re-insert (marker plus columns) or plain write shows it.
            staged_dead = is_tombstone(delta) and len(delta) == 1
            if staged_dead and key in matching:
                matching.remove(key)
            elif not staged_dead and key not in matching:
                matching.append(key)
        return sorted(matching)

    def _some_foreign_staged(
        self, txn: EngineTxn, key: Key
    ) -> Optional[Dict[str, object]]:
        staged = self._staged_by_key.get(key)
        if not staged:
            return None
        for other_id, other in staged.items():
            if other is not txn and other.phase is TxnPhase.ACTIVE:
                return dict(other.staged.get(key, {}))
        return None

    def _newer_writers(
        self, txn: EngineTxn, key: Key, newer: Sequence[StoredVersion]
    ) -> List[EngineTxn]:
        """Transactions that have overwritten (``newer``: the versions
        committed after the reader's snapshot) or are overwriting (staged)
        the version the reader saw -- PostgreSQL's conflict-out check
        considers both."""
        writers: List[EngineTxn] = []
        for version in newer:
            writer = self._txns.get(version.txn_id)
            if writer is not None and writer is not txn:
                writers.append(writer)
        for other in self._staged_by_key.get(key, {}).values():
            if other is not txn and other.phase is TxnPhase.ACTIVE:
                writers.append(other)
        return writers

    # -- writes -------------------------------------------------------------------------------------

    def _exec_write(
        self,
        txn: EngineTxn,
        writes: Mapping[Key, Dict[str, object]],
        callback: ResultCallback,
    ) -> None:
        if txn.phase is not TxnPhase.ACTIVE:
            callback(OpResult(ok=False, error="transaction not active"))
            return
        now = self.loop.now
        snapshot_ts = self.snapshots.snapshot_for(txn, now)
        if self.spec.fuw and not self.faults.disable_fuw:
            for key in writes:
                if self.store.latest_commit_ts(key) > snapshot_ts:
                    self.stats.serialization_failures += 1
                    self._fail(
                        txn,
                        callback,
                        f"serialization failure: concurrent update on {key!r}",
                    )
                    return
        if self.mvto is not None:
            for key in writes:
                reason = self.mvto.check_write(txn, key, self.store)
                if reason is not None:
                    self.stats.serialization_failures += 1
                    self._fail(txn, callback, f"serialization failure: {reason}")
                    return
        for key, columns in writes.items():
            squash_delta(txn.staged.setdefault(key, {}), columns)
            self._staged_by_key.setdefault(key, {})[txn.txn_id] = txn
            if self.ssi is not None:
                reason = self.ssi.on_write(txn, key)
                if reason is not None and not self.faults.disable_ssi:
                    self.stats.serialization_failures += 1
                    self._fail(txn, callback, f"serialization failure: {reason}")
                    return
        self._respond(callback, OpResult(ok=True))

    # -- commit / abort --------------------------------------------------------------------------------

    def _exec_commit(self, txn: EngineTxn, callback: ResultCallback) -> None:
        if txn.phase is not TxnPhase.ACTIVE:
            callback(OpResult(ok=False, error="transaction not active"))
            return
        reason = txn.must_abort
        if reason is None and self.ssi is not None and not self.faults.disable_ssi:
            reason = self.ssi.commit_check(txn)
        if reason is None and self.occ is not None:
            reason = self.occ.validate(txn, self.store)
        if reason is None and self.fcw is not None:
            reason = self.fcw.validate(txn, self.store)
        if reason is not None:
            self.stats.serialization_failures += 1
            self._rollback(txn)
            self._respond(callback, OpResult(ok=False, error=reason))
            return
        now = self.loop.now
        commit_ts = max(now, self._last_commit_ts + self._commit_epsilon)
        self._last_commit_ts = commit_ts
        for key, columns in txn.staged.items():
            self.store.install(key, txn.txn_id, columns, commit_ts)
            staged = self._staged_by_key.get(key)
            if staged is not None:
                staged.pop(txn.txn_id, None)
                if not staged:
                    del self._staged_by_key[key]
        txn.commit_ts = commit_ts
        txn.phase = TxnPhase.COMMITTED
        self.stats.committed += 1
        self._release_locks(txn)
        self._maybe_prune()
        self._respond(callback, OpResult(ok=True))

    def _exec_abort(self, txn: EngineTxn, callback: ResultCallback) -> None:
        if txn.phase is TxnPhase.ACTIVE:
            self._rollback(txn)
        self._respond(callback, OpResult(ok=True))

    def _rollback(self, txn: EngineTxn) -> None:
        txn.phase = TxnPhase.ABORTED
        for key in txn.staged:
            staged = self._staged_by_key.get(key)
            if staged is not None:
                staged.pop(txn.txn_id, None)
                if not staged:
                    del self._staged_by_key[key]
        txn.staged.clear()
        if self.ssi is not None:
            self.ssi.forget(txn)
        self.stats.aborted += 1
        self._release_locks(txn)
        self._maybe_prune()

    def _release_locks(self, txn: EngineTxn) -> None:
        for continuation in self.locks.release_all(txn.txn_id):
            self.loop.schedule_after(self.latency.floor, continuation)

    # -- housekeeping -------------------------------------------------------------------------------------

    def _maybe_prune(self) -> None:
        self._finishes_since_prune += 1
        if self._finishes_since_prune < self._PRUNE_EVERY:
            return
        self._finishes_since_prune = 0
        active_begins = [
            t.begin_ts for t in self._txns.values() if t.phase is TxnPhase.ACTIVE
        ]
        horizon = min(active_begins) if active_begins else self.loop.now
        if self.ssi is not None:
            self.ssi.prune(horizon)
        for txn_id in list(self._txns):
            txn = self._txns[txn_id]
            if txn.phase is TxnPhase.ACTIVE:
                continue
            end = txn.commit_ts if txn.commit_ts is not None else txn.begin_ts
            if end < horizon:
                del self._txns[txn_id]
