"""Ordered record versions and candidate-version-set minimisation.

The CR and FUW mechanisms both reason over the *version evolution* of each
record, reconstructed purely from traces:

* each committed write contributes a :class:`Version` whose *installation
  interval* is the write operation's trace interval (Definition 1);
* versions of a record are kept in a list sorted by the after-timestamp of
  their installation interval.  The historical implementation maintained
  the order by insertion sort and classified by full linear scan (the
  baseline of Section V-A's complexity analysis); the default *indexed*
  chain keeps a parallel list of sort keys so insertion, position lookup
  and Fig. 6 classification all run by binary search instead
  (``REPRO_CR_INDEX=0`` restores the linear path -- see
  ``docs/architecture.md``);
* every version carries the *cumulative record image* at that point in the
  chain, so partial-column writes (TPC-C style) can be matched against
  reads that observe different column subsets.

Given a read's snapshot-generation interval (Definition 2), the chain
classifies versions into the five categories of Fig. 6 -- future, overlap,
pivot, pivot-overlap, garbage -- and returns the minimal candidate version
set of Theorem 2: exactly the versions possibly visible to that read.

Classification is memoised per chain (epoch-based): the Fig. 6 partition
is a pure function of the chain contents and the snapshot interval, so the
indexed chain caches it at two granularities -- per exact snapshot
endpoints, and per *before-boundary* (the prefix of versions definitely
before the snapshot, which determines pivot, pivot-overlap and garbage
regardless of where the snapshot ends).  Hits, misses and invalidations
are counted through the ``chain.memo.*`` metrics
(``docs/observability.md``).

On top of the index the default chain keeps a *committed-version frontier*
(the Vbox time-ordered idiom, see PAPERS.md): commits arrive in roughly
monotone timestamp order, so most reads carry snapshots that lie at or
beyond the last committed version's after-timestamp.  For those reads the
whole chain is the definitely-before prefix -- future and overlap are
empty by construction -- and the classification is a single cached object
resolved in O(1) (``chain.memo.frontier_hits``).  Mutations invalidate
*frontier-locally*: a version appended at the tail leaves every existing
boundary prefix intact, so only the exact-snapshot entries whose snapshot
the new version does not definitely postdate are dropped (counted via
``chain.memo.local_invalidations``); mid-chain inserts and GC prunes keep
the epoch-wide clear.  ``REPRO_CR_FRONTIER=0`` restores the plain indexed
path and ``REPRO_CR_INDEX=0`` the linear scan -- the two reference oracles
the equivalence tests pin byte-identical reports against.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from .intervals import INITIAL_INTERVAL, Interval
from .trace import ColumnMap, INIT_TXN, Key, apply_delta, reads_match

_version_seq = itertools.count()

_INF = math.inf

#: exact-snapshot memo entries kept per chain before a wholesale clear
#: (hot chains mutate often and self-clear; this bounds read-only chains).
#: Process default; tunable via ``REPRO_CR_SNAP_MEMO_CAP``.
_SNAP_MEMO_LIMIT = 128

#: chains at or below this length classify by direct scan even in indexed
#: mode: under steady-state GC most chains hold one or two versions, where
#: the boundary search plus memo bookkeeping costs more than the scan it
#: replaces.  The index still drives insertion, position lookup and the
#: O(1) GC pre-check at every length.  Process default; tunable via
#: ``REPRO_CR_DIRECT_SCAN_MAX`` (raising it disables the memo layers for
#: longer chains -- the low-contention escape valve, see
#: ``docs/architecture.md``).
_DIRECT_SCAN_MAX = 4


def chain_sort_key(version: "Version") -> Tuple[float, float, float, int]:
    """Chain order = installation order.  Section II-A: *a commit installs
    all versions created by a transaction*, so the true installation instant
    lies inside the commit trace interval; versions are ordered by it (the
    write-operation interval breaks ties for two versions committed in the
    same instantaneous batch, and ``seq`` -- the per-process staging
    counter -- breaks the remaining ties, making the key a *total* order:
    two versions staged by the same batch commit with identical intervals
    still order by staging sequence, so chain order is deterministic and
    the key can drive binary searches).  This is the one key function used
    by both the bisect-maintained index and the linear fallback."""
    effective = version.effective_install
    return (effective.ts_aft, effective.ts_bef, version.install.ts_aft, version.seq)


#: Backwards-compatible alias (the key was private before the index made it
#: part of the chain's contract).
_chain_sort_key = chain_sort_key

#: candidate tuples are ordered by staging sequence.
_seq_of = operator.attrgetter("seq")


def chain_index_enabled() -> bool:
    """Process-default for the indexed chain (``REPRO_CR_INDEX``, on unless
    set to ``0`` -- the equivalence-test escape hatch)."""
    return os.environ.get("REPRO_CR_INDEX", "1") != "0"


def chain_frontier_enabled() -> bool:
    """Process-default for the committed-version frontier fast path
    (``REPRO_CR_FRONTIER``, on unless set to ``0`` -- the second reference
    escape hatch: frontier off, index on, is exactly the PR 3 chain)."""
    return os.environ.get("REPRO_CR_FRONTIER", "1") != "0"


def snap_memo_cap() -> int:
    """Exact-snapshot memo cap (``REPRO_CR_SNAP_MEMO_CAP``, default
    ``_SNAP_MEMO_LIMIT``).  Non-numeric or non-positive values fall back
    to the default rather than erroring mid-run."""
    raw = os.environ.get("REPRO_CR_SNAP_MEMO_CAP")
    if raw is None:
        return _SNAP_MEMO_LIMIT
    try:
        value = int(raw)
    except ValueError:
        return _SNAP_MEMO_LIMIT
    return value if value > 0 else _SNAP_MEMO_LIMIT


def direct_scan_max() -> int:
    """Chain length at or below which classification bypasses the memo
    layers entirely (``REPRO_CR_DIRECT_SCAN_MAX``, default
    ``_DIRECT_SCAN_MAX``)."""
    raw = os.environ.get("REPRO_CR_DIRECT_SCAN_MAX")
    if raw is None:
        return _DIRECT_SCAN_MAX
    try:
        value = int(raw)
    except ValueError:
        return _DIRECT_SCAN_MAX
    return value if value >= 0 else _DIRECT_SCAN_MAX


#: positions in a metered chain's counter-handle tuple
#: (``chain.memo.*`` in docs/observability.md).  Unmetered chains carry
#: ``None`` and execute no counter call at all.
_C_HITS, _C_MISSES, _C_INVALIDATIONS, _C_LOCAL_INVALIDATIONS, _C_FRONTIER = range(5)

#: Optional oracle answering "is version a's txn known to precede version
#: b's txn (ww) on this key?" -- returns True/False when deduced, None when
#: unknown.  Supplied by the verifier from already-deduced dependencies.
OrderOracle = Callable[["Version", "Version"], Optional[bool]]


@dataclass(eq=False, slots=True)
class Version:
    """One installed version of a record.

    Versions compare (and hash) by identity: two staged writes are distinct
    versions even when byte-identical, and chain membership operations rely
    on object identity."""

    key: Key
    txn_id: str
    install: Interval
    #: columns this write set (the delta).
    columns: Dict[str, object]
    #: cumulative record image up to and including this version, under the
    #: chain's current order.
    image: Dict[str, object] = field(default_factory=dict)
    #: commit interval of the installing transaction (None while pending).
    commit: Optional[Interval] = None
    committed: bool = False
    #: transactions observed (via CR wr deduction) to have read this version.
    readers: Set[str] = field(default_factory=set)
    seq: int = field(default_factory=_version_seq.__next__)

    @property
    def effective_install(self) -> Interval:
        """The interval containing the instant the version became visible:
        the installing transaction's commit interval (Section II-A), falling
        back to the write-operation interval while uncommitted.  A derived
        property (single source of truth is ``commit``); the indexed chain
        avoids the call on its hot paths by reading the effective interval
        back out of its cached sort keys."""
        return self.commit if self.commit is not None else self.install

    @property
    def is_initial(self) -> bool:
        return self.txn_id == INIT_TXN

    def matches(self, observed: ColumnMap) -> bool:
        """Whether a read observing ``observed`` is consistent with the
        record image at this version."""
        return reads_match(observed, self.image)

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return f"V({self.key!r}:{self.txn_id}@{self.install} {self.columns!r})"


@dataclass(slots=True)
class CandidateClassification:
    """Fig. 6 classification of a chain against one snapshot interval.

    Treated as read-only by every consumer (instances are shared through
    the classification memos); not ``frozen`` because the frozen-dataclass
    ``__init__`` goes through ``object.__setattr__`` and this object is
    built once per checked read on the hot path."""

    candidates: Tuple[Version, ...]
    future: Tuple[Version, ...]
    garbage: Tuple[Version, ...]
    pivot: Optional[Version]


#: internal partition shape shared by the indexed and linear paths:
#: (future, overlap, pivot, pivot_overlap, garbage), all in chain order.
_Partition = Tuple[
    Tuple[Version, ...],
    Tuple[Version, ...],
    Optional[Version],
    Tuple[Version, ...],
    Tuple[Version, ...],
]


class VersionChain:
    """All observed versions of one record.

    Committed versions live in ``self._chain`` sorted by
    :func:`chain_sort_key`; uncommitted writes are staged per transaction
    until the commit trace arrives (mirroring how an MVCC engine installs
    versions at commit).  With ``use_index`` (the default, see
    :func:`chain_index_enabled`) a parallel sorted key list makes
    insertion, position lookup and classification binary searches, and the
    Fig. 6 partition is memoised per epoch.
    """

    __slots__ = (
        "key",
        "_chain",
        "_pending",
        "_aborted",
        "_use_index",
        "_use_frontier",
        "_snap_cap",
        "_scan_max",
        "_keys",
        "epoch",
        "_snap_memo",
        "_prefix_memo",
        "_single_memo",
        "_frontier_entry",
        "_counters",
    )

    def __init__(
        self,
        key: Key,
        initial_image: Optional[Mapping[str, object]] = None,
        use_index: Optional[bool] = None,
        counters=None,
        use_frontier: Optional[bool] = None,
        snap_cap: Optional[int] = None,
        scan_max: Optional[int] = None,
    ):
        self.key = key
        self._chain: List[Version] = []
        self._pending: Dict[str, List[Version]] = {}
        self._aborted: List[Version] = []
        self._use_index = (
            chain_index_enabled() if use_index is None else bool(use_index)
        )
        #: frontier fast path rides on the key index; linear chains never
        #: take it regardless of the flag.
        self._use_frontier = self._use_index and (
            chain_frontier_enabled() if use_frontier is None else bool(use_frontier)
        )
        self._snap_cap = snap_memo_cap() if snap_cap is None else int(snap_cap)
        self._scan_max = direct_scan_max() if scan_max is None else int(scan_max)
        #: parallel sorted :func:`chain_sort_key` list (indexed mode only).
        self._keys: List[Tuple[float, float, float, int]] = []
        #: memo epoch: bumped on every chain mutation.
        self.epoch = 0
        #: exact-snapshot memo: (ts_bef, ts_aft) -> the 5-part partition +
        #: (finished classification or None, chain length at creation --
        #: the anchor for the lazy frontier-local ``future`` fold).
        self._snap_memo: Dict[Tuple[float, float], tuple] = {}
        #: prefix memo: boundary index -> (pivot, pivot_overlap, garbage).
        self._prefix_memo: Dict[int, tuple] = {}
        #: single-version outcome memo: the three possible classifications
        #: of a length-1 chain (future / pivot / overlap), shared across
        #: every snapshot that lands in the same relation to the version.
        self._single_memo: Dict[int, CandidateClassification] = {}
        #: frontier cache: (prefix, finished-or-None) for the whole-chain
        #: boundary; rebuilt lazily once per mutation.
        self._frontier_entry: Optional[tuple] = None
        #: (hits, misses, invalidations, local_invalidations,
        #: frontier_hits) counter handles of an instrumented run, else None.
        self._counters: Optional[tuple] = counters
        if initial_image is not None:
            # One shared copy: neither the columns delta nor the image of a
            # version is ever mutated in place (images are rebuilt by
            # replacement in _recompute_images).
            image = dict(initial_image)
            initial = Version(
                key=key,
                txn_id=INIT_TXN,
                install=INITIAL_INTERVAL,
                columns=image,
                image=image,
                commit=INITIAL_INTERVAL,
                committed=True,
            )
            self._chain.append(initial)
            if self._use_index:
                self._keys.append(chain_sort_key(initial))

    # -- structure accessors -----------------------------------------------

    def __len__(self) -> int:
        return len(self._chain)

    @property
    def indexed(self) -> bool:
        return self._use_index

    def committed_versions(self) -> List[Version]:
        return list(self._chain)

    def iter_committed(self) -> List[Version]:
        """The committed chain itself, in chain order.  Read-only view for
        hot paths (FUW pairing, Fig. 9 derivation) -- callers must not
        mutate it."""
        return self._chain

    def pending_versions(self, txn_id: str) -> List[Version]:
        return list(self._pending.get(txn_id, ()))

    def aborted_versions(self) -> List[Version]:
        return list(self._aborted)

    def pending_count(self) -> int:
        return sum(len(v) for v in self._pending.values())

    def _position(self, version: Version) -> int:
        """Chain index of ``version`` (by identity).  Indexed chains find
        it by binary search on the (total-order) sort key once the chain
        is long enough for the bisect to beat ``list.index``'s C-level
        scan; the linear path always scans, as before."""
        chain = self._chain
        if not self._use_index or len(chain) <= 16:
            return chain.index(version)
        idx = bisect_left(self._keys, chain_sort_key(version))
        if idx < len(chain) and chain[idx] is version:
            return idx
        raise ValueError(f"{version} is not in chain")

    def index_of(self, version: Version) -> int:
        return self._position(version)

    def successor_of(self, version: Version) -> Optional[Version]:
        """The next committed version in chain order, or None for the tail."""
        idx = self._position(version)
        if idx + 1 < len(self._chain):
            return self._chain[idx + 1]
        return None

    def predecessor_of(self, version: Version) -> Optional[Version]:
        idx = self._position(version)
        if idx > 0:
            return self._chain[idx - 1]
        return None

    # -- mutation -------------------------------------------------------------

    def stage_write(
        self, txn_id: str, columns: Mapping[str, object], interval: Interval
    ) -> Version:
        """Record an uncommitted write (version installation interval =
        the write trace interval, Definition 1)."""
        # No defensive copy: write deltas come from immutable traces and no
        # consumer mutates Version.columns (images are rebuilt separately).
        version = Version(
            key=self.key,
            txn_id=txn_id,
            install=interval,
            columns=columns,
        )
        self._pending.setdefault(txn_id, []).append(version)
        return version

    def commit_txn(self, txn_id: str, commit_interval: Interval) -> List[Version]:
        """Install a transaction's staged versions into the committed chain
        (sorted by :func:`chain_sort_key`).  Returns the versions that
        became visible."""
        staged = self._pending.pop(txn_id, [])
        installed: List[Version] = []
        for version in staged:
            version.commit = commit_interval
            version.committed = True
            self._insert_sorted(version)
            installed.append(version)
        return installed

    def abort_txn(self, txn_id: str) -> List[Version]:
        dropped = self._pending.pop(txn_id, [])
        self._aborted.extend(dropped)
        return dropped

    def _invalidate(self) -> None:
        """Epoch bump: every cached classification is stale."""
        self.epoch += 1
        self._frontier_entry = None
        if self._snap_memo or self._prefix_memo or self._single_memo:
            self._snap_memo.clear()
            self._prefix_memo.clear()
            self._single_memo.clear()
            if self._counters is not None:
                self._counters[_C_INVALIDATIONS].inc()

    def _invalidate_local(self, sort_key: Tuple[float, float, float, int]) -> None:
        """Frontier-local invalidation for a tail append (``sort_key`` is
        the appended version's chain key; its second component is the
        effective installation before-timestamp).

        The appended version sorts after every committed version, so ``chain[0:b]``
        is unchanged for every existing boundary ``b``: the boundary-prefix
        memo stays valid wholesale (retaining it *is* the incremental
        maintenance).  Only classifications whose boundary the new version
        can cross are dropped: exact-snapshot entries whose snapshot does
        not definitely precede the new version's installation (for those,
        the version lands in overlap-or-before and the partition changes
        shape).  Entries whose snapshot the version definitely postdates
        stay valid with the version appended to their ``future`` tuple --
        exactly where the linear reference scan would have put it; that
        append is *lazy* (each entry records the chain length at creation,
        ``entry[6]``, and a hit folds in ``chain[n0:]``), so entries that
        are never re-read never pay for maintenance.
        """
        self.epoch += 1
        self._frontier_entry = None
        if self._single_memo:
            # Only populated while the chain had length 1; the length-1
            # fast path can no longer serve these, and the chain returns
            # to length 1 only through a prune (a full invalidation).
            self._single_memo.clear()
        snap_memo = self._snap_memo
        if snap_memo:
            v_bef = sort_key[1]
            stale = [key for key in snap_memo if key[1] > v_bef]
            if stale:
                for key in stale:
                    del snap_memo[key]
                if self._counters is not None:
                    self._counters[_C_LOCAL_INVALIDATIONS].inc(len(stale))

    def _insert_sorted(self, version: Version) -> None:
        sort_key = chain_sort_key(version)
        if self._use_index:
            keys = self._keys
            if not keys or sort_key > keys[-1]:
                # Commits arrive roughly in timestamp order, so the common
                # case is an append at the tail -- the mutation the
                # frontier-local invalidation covers.
                keys.append(sort_key)
                self._chain.append(version)
                if self._use_frontier:
                    self._invalidate_local(sort_key)
                else:
                    self._invalidate()
                self._recompute_images(len(self._chain) - 1)
                return
            position = bisect_left(keys, sort_key)
            keys.insert(position, sort_key)
        else:
            position = len(self._chain)
            for idx, existing in enumerate(self._chain):
                if sort_key < chain_sort_key(existing):
                    position = idx
                    break
        self._chain.insert(position, version)
        self._invalidate()
        self._recompute_images(position)

    def _recompute_images(self, start: int) -> None:
        """Rebuild cumulative images from ``start`` to the tail (deletion
        deltas replace; re-inserts start from an empty row)."""
        base: Dict[str, object] = (
            dict(self._chain[start - 1].image) if start > 0 else {}
        )
        for version in self._chain[start:]:
            apply_delta(base, version.columns)
            version.image = dict(base)

    # -- candidate version set (Fig. 6 / Theorem 2) -----------------------------

    def classify(
        self,
        snapshot: Interval,
        order_oracle: Optional[OrderOracle] = None,
    ) -> CandidateClassification:
        """Classify committed versions against a snapshot-generation
        interval and return the minimal candidate version set.

        * *future* versions (installation definitely after the snapshot) are
          excluded;
        * the *pivot* is the version definitely before the snapshot whose
          installation after-timestamp is the largest;
        * *pivot-overlap* versions overlap the pivot's installation interval
          and stay candidates;
        * *garbage* versions (definitely before the pivot) are excluded;
        * with an order oracle (deduced ``ww`` edges), pivot-overlap
          versions whose order w.r.t. the pivot is fully resolved collapse
          to just the latest of them, as described in Section V-A.

        The Fig. 6 partition is oracle-independent, so the indexed chain
        memoises it and applies the (cheap, small-set) oracle collapse per
        call -- cached classifications can therefore never go stale against
        newly deduced ``ww`` orders.
        """
        chain = self._chain
        counters = self._counters
        if self._use_index and len(chain) == 1:
            # Steady state under GC: one committed version.  It stands in
            # exactly one of three relations to the snapshot (future,
            # pivot, overlap), each with a fixed classification that is
            # oracle-independent (no pivot-overlap set to collapse), so
            # the three outcome objects are memoised per epoch and repeat
            # reads of a stable key cost two float comparisons.
            # The sort key caches the effective interval as plain floats
            # (key = (eff.ts_aft, eff.ts_bef, install.ts_aft, seq)), so the
            # relation test needs no Version attribute access at all.
            k = self._keys[0]
            if snapshot.ts_aft <= k[1]:
                outcome = 0  # snapshot precedes installation: future
            elif k[0] <= snapshot.ts_bef:
                outcome = 1  # definitely before the snapshot: the pivot
            else:
                outcome = 2  # overlap
            cached = self._single_memo.get(outcome)
            if cached is not None:
                if counters is not None:
                    counters[_C_HITS].inc()
                return cached
            if counters is not None:
                counters[_C_MISSES].inc()
            version = chain[0]
            if outcome == 0:
                cached = CandidateClassification((), (version,), (), None)
            elif outcome == 1:
                cached = CandidateClassification((version,), (), (), version)
            else:
                cached = CandidateClassification((version,), (), (), None)
            self._single_memo[outcome] = cached
            return cached
        if self._use_frontier and len(chain) > 1:
            keys = self._keys
            # Frontier fast path: the snapshot lies at or beyond the last
            # committed version's after-timestamp, so the whole chain is
            # the definitely-before prefix (future and overlap are empty
            # by the sort order) and the classification depends on the
            # snapshot not at all.  The zero-width tangency (snapshot and
            # tail after-timestamp coincide) is excluded exactly as in
            # :meth:`_partition_indexed` and falls through to the exact
            # paths below.
            if keys[-1][0] <= snapshot.ts_bef:
                snap_aft = snapshot.ts_aft
                if not (
                    snapshot.ts_bef == snap_aft and keys[-1][0] == snap_aft
                ):
                    entry = self._frontier_entry
                    if entry is None:
                        if counters is not None:
                            counters[_C_MISSES].inc()
                        boundary = len(keys)
                        prefix = self._prefix_memo.get(boundary)
                        if prefix is None:
                            prefix = self._prefix_memo[boundary] = (
                                self._compute_prefix(boundary)
                            )
                        final = (
                            self._finalize(
                                ((), (), prefix[0], (), prefix[2]), None
                            )
                            if not prefix[1]
                            else None
                        )
                        entry = self._frontier_entry = (prefix, final)
                    elif counters is not None:
                        counters[_C_FRONTIER].inc()
                    final = entry[1]
                    if final is not None:
                        return final
                    prefix = entry[0]
                    return self._finalize(
                        ((), (), prefix[0], prefix[1], prefix[2]), order_oracle
                    )
        if not self._use_index or len(chain) <= self._scan_max:
            # Linear mode, or a chain short enough that the direct scan is
            # cheaper than boundary search + memoisation.  The gate sits
            # *below* the frontier check on purpose: a beyond-frontier
            # snapshot resolves in O(1) regardless of chain length, and
            # under GC most steady-state chains are exactly this short.
            return self._finalize(self._partition_linear(snapshot), order_oracle)
        memo_key = (snapshot.ts_bef, snapshot.ts_aft)
        entry = self._snap_memo.get(memo_key)
        if entry is not None:
            if counters is not None:
                counters[_C_HITS].inc()
            n0 = entry[6]
            if n0 != len(chain):
                # The entry survived frontier-local invalidations: every
                # version committed since its creation is a tail append
                # that definitely postdates its snapshot (the drop rule in
                # :meth:`_invalidate_local` guarantees it), so the update
                # is to extend ``future`` with ``chain[n0:]`` -- exactly
                # where the linear reference scan would have put those
                # versions.  Folded in lazily here rather than eagerly per
                # append: entries that are never re-read never pay for it.
                parts = (entry[0] + tuple(chain[n0:]),) + entry[1:5]
                final = (
                    self._finalize(parts, None) if not entry[3] else None
                )
                entry = parts + (final, len(chain))
                self._snap_memo[memo_key] = entry
            final = entry[5]
            if final is not None:
                # Oracle-independent classification (no pivot-overlap set
                # to collapse): the finished object is served as-is.
                return final
            return self._finalize(entry[:5], order_oracle)
        parts = self._partition_indexed(snapshot)
        if parts is None:
            # Degenerate zero-width tangency: delegated to the linear scan
            # for exactness, not memoised (rare by construction).
            return self._finalize(self._partition_linear(snapshot), order_oracle)
        final = self._finalize(parts, order_oracle)
        if len(self._snap_memo) >= self._snap_cap:
            self._snap_memo.clear()
        # The finalisation is a pure function of the partition unless a
        # pivot-overlap set exists (the oracle may collapse it differently
        # as ww edges accrue), so cache the finished object when safe; the
        # trailing chain length supports the lazy frontier-local fold.
        self._snap_memo[memo_key] = parts + (
            (final if not parts[3] else None),
            len(chain),
        )
        return final

    def _finalize(
        self, parts: _Partition, order_oracle: Optional[OrderOracle]
    ) -> CandidateClassification:
        future, overlap, pivot, pivot_overlap, garbage = parts
        if not pivot_overlap:
            # Common shape: at most one pre-snapshot version, nothing for
            # the oracle to collapse.
            if pivot is None:
                pre_snapshot = []
            elif not overlap:
                return CandidateClassification(
                    candidates=(pivot,),
                    future=future,
                    garbage=garbage,
                    pivot=pivot,
                )
            else:
                pre_snapshot = [pivot]
        else:
            pre_snapshot = list(pivot_overlap)
            if pivot is not None:
                pre_snapshot.append(pivot)
            if order_oracle is not None and len(pre_snapshot) > 1:
                pre_snapshot = self._collapse_ordered(pre_snapshot, order_oracle)
        candidates = tuple(
            sorted(pre_snapshot + list(overlap), key=_seq_of)
        )
        return CandidateClassification(
            candidates=candidates,
            future=future,
            garbage=garbage,
            pivot=pivot,
        )

    def _partition_linear(self, snapshot: Interval) -> _Partition:
        """The original full-scan Fig. 6 partition (``REPRO_CR_INDEX=0``),
        kept verbatim as the reference implementation the indexed path is
        property-tested against."""
        future: List[Version] = []
        overlap: List[Version] = []
        before: List[Version] = []
        for version in self._chain:
            installed = version.effective_install
            if snapshot.precedes(installed):
                future.append(version)
            elif installed.precedes(snapshot):
                before.append(version)
            else:
                overlap.append(version)
        pivot: Optional[Version] = None
        pivot_overlap: List[Version] = []
        garbage: List[Version] = []
        if before:
            pivot = max(
                before, key=lambda v: (v.effective_install.ts_aft, v.seq)
            )
            for version in before:
                if version is pivot:
                    continue
                if version.effective_install.overlaps(pivot.effective_install):
                    pivot_overlap.append(version)
                else:
                    garbage.append(version)
        return (
            tuple(future),
            tuple(overlap),
            pivot,
            tuple(pivot_overlap),
            tuple(garbage),
        )

    def _partition_indexed(self, snapshot: Interval) -> Optional[_Partition]:
        """Boundary-search partition over the sorted key index.

        Chain order's primary key is ``effective_install.ts_aft``, so the
        versions *definitely before* the snapshot (``ts_aft <=
        snapshot.ts_bef``) are exactly a prefix of the chain, found by one
        boundary search; the suffix is split into future/overlap by
        scanning only the (small, recent) versions not definitely before.
        The prefix side -- pivot, pivot-overlap, garbage -- depends on the
        snapshot only through the prefix length, so it is memoised per
        boundary and shared across the many distinct snapshots that agree
        on it.

        Returns None for the degenerate zero-width tangency case: a
        zero-width snapshot touching a prefix version's boundary satisfies
        both precedence predicates at once and the linear scan resolves
        the tie (future first), so the caller delegates to it.  Rare by
        construction.
        """
        if self._counters is not None:
            self._counters[_C_MISSES].inc()
        keys = self._keys
        ts_bef = snapshot.ts_bef
        if len(keys) <= 16:
            # Short chains (the steady state under GC): a counting walk
            # over the first key component beats bisect's tuple-sentinel
            # construction.
            boundary = 0
            for key in keys:
                if key[0] <= ts_bef:
                    boundary += 1
                else:
                    break
        else:
            boundary = bisect_right(keys, (ts_bef, _INF, _INF, _INF))
        snap_aft = snapshot.ts_aft
        if boundary and ts_bef == snap_aft and keys[boundary - 1][0] == ts_bef:
            return None
        chain = self._chain
        if boundary == len(chain):
            future: Tuple[Version, ...] = ()
            overlap: Tuple[Version, ...] = ()
        else:
            future_acc: List[Version] = []
            overlap_acc: List[Version] = []
            for idx in range(boundary, len(chain)):
                # keys[idx][1] is the version's effective before-timestamp.
                if snap_aft <= keys[idx][1]:
                    future_acc.append(chain[idx])
                else:
                    overlap_acc.append(chain[idx])
            future = tuple(future_acc)
            overlap = tuple(overlap_acc)
        prefix = self._prefix_memo.get(boundary)
        if prefix is None:
            prefix = self._prefix_memo[boundary] = self._compute_prefix(boundary)
        return (future, overlap, prefix[0], prefix[1], prefix[2])

    def _compute_prefix(self, boundary: int) -> tuple:
        """Pivot / pivot-overlap / garbage for the ``boundary``-length
        prefix of definitely-before versions (chain order preserved)."""
        if not boundary:
            return (None, (), ())
        chain = self._chain
        if boundary == 1:
            return (chain[0], (), ())
        keys = self._keys
        # The pivot maximises (ts_aft, seq); the maximal-ts_aft run is the
        # tail of the prefix, found by one bisect.
        max_aft = keys[boundary - 1][0]
        run_start = bisect_left(keys, (max_aft,), 0, boundary)
        pivot = chain[run_start]
        for version in chain[run_start + 1 : boundary]:
            if version.seq > pivot.seq:
                pivot = version
        pivot_interval = pivot.effective_install
        # Versions whose ts_aft <= pivot.ts_bef definitely precede the
        # pivot: garbage without an overlap test.  Only the (short) run
        # after that split needs the exact interval check.
        split = bisect_right(
            keys, (pivot_interval.ts_bef, _INF, _INF, _INF), 0, boundary
        )
        garbage: List[Version] = []
        pivot_overlap: List[Version] = []
        for version in chain[:split]:
            if version is not pivot:
                garbage.append(version)
        for version in chain[split:boundary]:
            if version is pivot:
                continue
            if version.effective_install.overlaps(pivot_interval):
                pivot_overlap.append(version)
            else:
                garbage.append(version)
        return (pivot, tuple(pivot_overlap), tuple(garbage))

    @staticmethod
    def _collapse_ordered(
        versions: List[Version], oracle: OrderOracle
    ) -> List[Version]:
        """Drop pre-snapshot versions that are *known* (via deduced ww
        order) to be overwritten by another pre-snapshot version."""
        survivors: List[Version] = []
        for version in versions:
            overwritten = any(
                other is not version and oracle(version, other)
                for other in versions
            )
            if not overwritten:
                survivors.append(version)
        return survivors if survivors else versions

    def candidate_set(
        self,
        snapshot: Interval,
        order_oracle: Optional[OrderOracle] = None,
    ) -> Tuple[Version, ...]:
        return self.classify(snapshot, order_oracle).candidates

    # -- diagnosis helpers --------------------------------------------------------

    def find_matching_committed(self, observed: ColumnMap) -> List[Version]:
        return [v for v in self._chain if v.matches(observed)]

    def find_matching_pending(self, observed: ColumnMap) -> List[Version]:
        matches: List[Version] = []
        for versions in self._pending.values():
            matches.extend(v for v in versions if reads_match(observed, v.columns))
        matches.extend(
            v for v in self._aborted if reads_match(observed, v.columns)
        )
        return matches

    # -- garbage collection ----------------------------------------------------------

    def prune_garbage(
        self,
        horizon: Interval,
        can_prune_txn: Callable[[str], bool],
    ) -> int:
        """Drop versions that are *garbage* with respect to the earliest
        still-relevant snapshot interval (Section V-A GC).

        A version may be pruned when it is classified garbage against
        ``horizon`` (definitely overwritten before any live snapshot) and
        its installing transaction is releasable according to
        ``can_prune_txn`` (i.e. no other mechanism still needs it).  The
        cumulative images of surviving versions already fold in the pruned
        history, so reads verify identically afterwards.
        """
        if self._aborted:
            self._aborted.clear()
        # Garbage needs at least two versions definitely before the horizon
        # (a pivot and something it overwrote); most chains fail this cheap
        # test and are skipped without a full classification.  The key
        # index answers it in O(1): the prefix of definitely-before
        # versions has length >= 2 iff the second-smallest after-timestamp
        # clears the horizon.
        if self._use_index:
            keys = self._keys
            if len(keys) < 2 or keys[1][0] > horizon.ts_bef:
                return 0
            if len(keys) == 2:
                # The steady-state shape under GC: two versions, both
                # definitely before the horizon.  When the newer one's
                # after-timestamp is strictly larger it is unambiguously
                # the pivot, and the older version is garbage iff it
                # definitely precedes the pivot -- no classification
                # needed.  (An after-timestamp tie falls through: the
                # pivot then depends on the seq tie-break.)
                first, second = self._chain
                first_key, second_key = keys
                if first_key[0] < second_key[0]:
                    if first_key[0] <= second_key[1] and (
                        can_prune_txn(first.txn_id) or first.is_initial
                    ):
                        self._chain = [second]
                        self._keys = [chain_sort_key(second)]
                        self._invalidate()
                        return 1
                    return 0
        else:
            old_enough = 0
            for version in self._chain:
                if version.effective_install.precedes(horizon):
                    old_enough += 1
                    if old_enough >= 2:
                        break
            if old_enough < 2:
                return 0
        classification = self.classify(horizon)
        prunable = {
            v.seq
            for v in classification.garbage
            if can_prune_txn(v.txn_id) or v.is_initial
        }
        # Never prune the most recent garbage version if it would leave the
        # chain empty -- a read far in the future still needs one base image.
        if self._chain and len(prunable) >= len(self._chain):
            newest = max(self._chain, key=lambda v: v.seq)
            prunable.discard(newest.seq)
        if not prunable:
            return 0
        kept = [v for v in self._chain if v.seq not in prunable]
        pruned = len(self._chain) - len(kept)
        self._chain = kept
        if self._use_index:
            self._keys = [chain_sort_key(v) for v in kept]
        self._invalidate()
        self._aborted.clear()
        return pruned
