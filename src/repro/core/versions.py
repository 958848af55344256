"""Ordered record versions and candidate-version-set minimisation.

The CR and FUW mechanisms both reason over the *version evolution* of each
record, reconstructed purely from traces:

* each committed write contributes a :class:`Version` whose *installation
  interval* is the write operation's trace interval (Definition 1);
* versions of a record are kept in a list sorted by the after-timestamp of
  their installation interval, with a parallel list of sort keys so
  insertion and position lookup are binary searches and classification
  reads plain floats instead of ``Version`` attributes;
* every version carries the *cumulative record image* at that point in the
  chain, so partial-column writes (TPC-C style) can be matched against
  reads that observe different column subsets.

Given a read's snapshot-generation interval (Definition 2), the chain
classifies versions into the five categories of Fig. 6 -- future, overlap,
pivot, pivot-overlap, garbage -- and returns the minimal candidate version
set of Theorem 2: exactly the versions possibly visible to that read.

There is one classification path.  A chain holding a single committed
version (the steady state under GC) stands in one of three relations to
the snapshot; CR's read pass decides those itself
(:mod:`repro.core.consistent_read`), so only scans and own-write reads ask
here about such a chain.  Every longer chain is partitioned at the
*boundary* between the versions definitely before the snapshot and the
rest: chain order's primary key is
the effective after-timestamp, so that set is a prefix, and because
commits arrive in roughly timestamp order the boundary sits at or next to
the tail -- it is found by walking back from it.  The verbatim Fig. 6
linear scan is the specification; it lives under ``tests/`` as the oracle
the chain is property-tested against.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
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


def chain_sort_key(version: "Version") -> Tuple[float, float, float, int]:
    """Chain order = installation order.  Section II-A: *a commit installs
    all versions created by a transaction*, so the true installation instant
    lies inside the commit trace interval; versions are ordered by it (the
    write-operation interval breaks ties for two versions committed in the
    same instantaneous batch, and ``seq`` -- the per-process staging
    counter -- breaks the remaining ties, making the key a *total* order:
    two versions staged by the same batch commit with identical intervals
    still order by staging sequence, so chain order is deterministic and
    the key can drive binary searches)."""
    effective = version.effective_install
    return (effective.ts_aft, effective.ts_bef, version.install.ts_aft, version.seq)


#: candidate tuples are ordered by staging sequence.
_seq_of = operator.attrgetter("seq")

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
    #: transactions observed (via CR wr deduction) to have read this version.
    readers: Set[str] = field(default_factory=set)
    seq: int = field(default_factory=_version_seq.__next__)

    @property
    def effective_install(self) -> Interval:
        """The interval containing the instant the version became visible:
        the installing transaction's commit interval (Section II-A), falling
        back to the write-operation interval while uncommitted.  A derived
        property (single source of truth is ``commit``); the chain
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

    ``candidates`` is the minimal candidate version set of Theorem 2
    (overlap, pivot and pivot-overlap versions, ordered by staging
    sequence); ``future`` the versions definitely after the snapshot, in
    chain order.  The remaining category, garbage, is read only by the
    collector and built by :meth:`VersionChain.garbage` on demand.

    Treated as read-only by every consumer; not ``frozen`` because the
    frozen-dataclass ``__init__`` goes through ``object.__setattr__`` and
    this object is built once per classified read."""

    candidates: Tuple[Version, ...]
    future: Tuple[Version, ...]
    pivot: Optional[Version]


class VersionChain:
    """All observed versions of one record.

    Committed versions live in ``self._chain`` sorted by
    :func:`chain_sort_key`, with the keys themselves in the parallel list
    ``self._keys``; uncommitted writes are staged per transaction until
    the commit trace arrives (mirroring how an MVCC engine installs
    versions at commit).
    """

    __slots__ = (
        "key",
        "_chain",
        "_pending",
        "_aborted",
        "_keys",
    )

    def __init__(
        self,
        key: Key,
        initial_image: Optional[Mapping[str, object]] = None,
    ):
        self.key = key
        self._chain: List[Version] = []
        self._pending: Dict[str, List[Version]] = {}
        self._aborted: List[Version] = []
        #: ``chain_sort_key`` of every committed version, in chain order:
        #: ``(eff.ts_aft, eff.ts_bef, install.ts_aft, seq)``.
        self._keys: List[Tuple[float, float, float, int]] = []
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
            )
            self._chain.append(initial)
            self._keys.append(chain_sort_key(initial))

    # -- structure accessors -----------------------------------------------

    def __len__(self) -> int:
        return len(self._chain)

    def committed_versions(self) -> List[Version]:
        return list(self._chain)

    def iter_committed(self) -> List[Version]:
        """The committed chain itself, in chain order.  Read-only view for
        hot paths (FUW pairing, Fig. 9 derivation) -- callers must not
        mutate it."""
        return self._chain

    def aborted_versions(self) -> List[Version]:
        return list(self._aborted)

    def pending_count(self) -> int:
        return sum(len(v) for v in self._pending.values())

    def _position(self, version: Version) -> int:
        """Chain index of ``version`` (by identity): a binary search on
        the (total-order) sort key once the chain is long enough for the
        bisect to beat ``list.index``'s C-level scan."""
        chain = self._chain
        if len(chain) <= 16:
            return chain.index(version)
        idx = bisect_left(self._keys, chain_sort_key(version))
        if idx < len(chain) and chain[idx] is version:
            return idx
        raise ValueError(f"{version} is not in chain")

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
            self._insert_sorted(version)
            installed.append(version)
        return installed

    def abort_txn(self, txn_id: str) -> List[Version]:
        dropped = self._pending.pop(txn_id, [])
        self._aborted.extend(dropped)
        return dropped

    def _insert_sorted(self, version: Version) -> None:
        sort_key = chain_sort_key(version)
        keys = self._keys
        chain = self._chain
        if not keys or sort_key > keys[-1]:
            # Commits arrive roughly in timestamp order, so the common
            # case is an append at the tail: one image, built on a copy of
            # the predecessor's.
            image = dict(chain[-1].image) if chain else {}
            apply_delta(image, version.columns)
            version.image = image
            keys.append(sort_key)
            chain.append(version)
            return
        position = bisect_left(keys, sort_key)
        keys.insert(position, sort_key)
        chain.insert(position, version)
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
        """
        chain = self._chain
        keys = self._keys
        n = len(keys)
        if n == 1:
            # One committed version stands in exactly one of three
            # relations to the snapshot, each oracle-independent (no
            # pivot-overlap set to collapse).
            version = chain[0]
            aft, bef = keys[0][:2]
            if snapshot.ts_aft <= bef:
                return CandidateClassification((), (version,), None)
            pivot = version if aft <= snapshot.ts_bef else None
            return CandidateClassification((version,), (), pivot)
        boundary, pivot_idx = self._boundary(snapshot)
        future: List[Version] = []
        candidates: List[Version] = []
        snap_aft = snapshot.ts_aft
        for idx in range(boundary, n):
            # keys[idx][1] is the version's effective before-timestamp.
            if snap_aft <= keys[idx][1]:
                future.append(chain[idx])
            else:
                candidates.append(chain[idx])  # overlap
        if not boundary:
            pivot = None
        else:
            pivot = chain[pivot_idx]
            overlapping = self._pivot_overlap(boundary, pivot_idx)
            if overlapping:
                pre_snapshot = [chain[idx] for idx in overlapping]
                pre_snapshot.append(pivot)
                if order_oracle is not None:
                    pre_snapshot = self._collapse_ordered(
                        pre_snapshot, order_oracle
                    )
                candidates += pre_snapshot
            else:
                candidates.append(pivot)
        if len(candidates) > 1:
            candidates.sort(key=_seq_of)
        return CandidateClassification(tuple(candidates), tuple(future), pivot)

    def _boundary(self, snapshot: Interval) -> Tuple[int, int]:
        """``(boundary, pivot index)``: ``chain[:boundary]`` are the
        versions definitely before the snapshot, and the pivot is the one
        of them that maximises ``(ts_aft, seq)`` (-1 when there is none).

        Chain order's primary key is the effective after-timestamp, so the
        definitely-before versions (``ts_aft <= snapshot.ts_bef``) are a
        prefix.  Reads follow commits in time, so the walk starts at the
        tail and usually stops at once.  A zero-width snapshot touching a
        zero-width version satisfies both precedence predicates; Fig. 6
        tests *future* first, and those versions sort last in the prefix,
        so the same walk steps over them.
        """
        keys = self._keys
        ts_bef = snapshot.ts_bef
        snap_aft = snapshot.ts_aft
        boundary = len(keys)
        while boundary:
            key = keys[boundary - 1]
            if key[0] <= ts_bef and key[1] < snap_aft:
                break
            boundary -= 1
        if not boundary:
            return 0, -1
        # The maximal-ts_aft run is the tail of the prefix; seq picks the
        # pivot inside it.
        pivot_idx = idx = boundary - 1
        max_aft = keys[idx][0]
        while idx and keys[idx - 1][0] == max_aft:
            idx -= 1
            if keys[idx][3] > keys[pivot_idx][3]:
                pivot_idx = idx
        return boundary, pivot_idx

    def _pivot_overlap(self, boundary: int, pivot_idx: int) -> List[int]:
        """Chain indices, ascending, of the versions in ``chain[:boundary]``
        whose installation interval overlaps the pivot's.  Versions whose
        ts_aft does not clear the pivot's ts_bef definitely precede it, and
        they are a prefix: the walk back from the boundary stops at the
        first one."""
        keys = self._keys
        pivot_aft, pivot_bef = keys[pivot_idx][:2]
        found: List[int] = []
        idx = boundary
        while idx and keys[idx - 1][0] > pivot_bef:
            idx -= 1
            if idx != pivot_idx and keys[idx][1] < pivot_aft:
                found.append(idx)
        found.reverse()
        return found

    def garbage(self, snapshot: Interval) -> Tuple[Version, ...]:
        """Fig. 6 *garbage*: the versions definitely before the snapshot
        that do not overlap the pivot (definitely overwritten before the
        snapshot was taken), in chain order."""
        boundary, pivot_idx = self._boundary(snapshot)
        if boundary < 2:
            return ()
        keep = {pivot_idx, *self._pivot_overlap(boundary, pivot_idx)}
        chain = self._chain
        return tuple(chain[idx] for idx in range(boundary) if idx not in keep)

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

    def drop_prefix(self, count: int) -> None:
        """Drop the ``count`` oldest committed versions in place -- the
        collector's prefix rule (:meth:`GarbageCollector._prune_versions`),
        which has already established that they are garbage."""
        del self._chain[:count], self._keys[:count]

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

        This is the general form, for any chain shape.  The collector
        takes the steady state itself -- a lone pivot nothing overlaps,
        under which the garbage is a chain prefix it hands to
        :meth:`drop_prefix` (:meth:`GarbageCollector._prune_versions`) -- and comes here for
        pivot-overlap chains, tied pivots and pinned installers.
        """
        if self._aborted:
            self._aborted.clear()
        # Garbage needs at least two versions definitely before the horizon
        # (a pivot and something it overwrote); most chains fail this cheap
        # test and are skipped without a classification.  The key index
        # answers it in O(1): the prefix of definitely-before versions has
        # length >= 2 iff the second-smallest after-timestamp clears the
        # horizon.
        keys = self._keys
        if len(keys) < 2 or keys[1][0] > horizon.ts_bef:
            return 0
        # The pivot is never garbage, so at least one base image survives
        # for reads far in the future.
        prunable = {
            v
            for v in self.garbage(horizon)
            if can_prune_txn(v.txn_id) or v.is_initial
        }
        if not prunable:
            return 0
        self._keys = [
            key for key, v in zip(keys, self._chain) if v not in prunable
        ]
        self._chain = [v for v in self._chain if v not in prunable]
        return len(prunable)
