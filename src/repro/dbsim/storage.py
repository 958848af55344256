"""Multi-version record store of the simulated engine.

Every committed write appends a version stamped with its commit timestamp;
reads reconstruct the record image visible at a snapshot timestamp.  Images
are cumulative (column merges folded in at install time) so partial-column
updates -- the TPC-C pattern that Fig. 13 shows defeating dependency
deduction -- behave exactly as in a relational engine.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

Key = Hashable

#: Commit timestamp of pre-loaded data: before any simulated event.
INITIAL_TS = float("-inf")


@dataclass
class StoredVersion:
    """One committed version inside the engine."""

    commit_ts: float
    txn_id: str
    columns: Dict[str, object]
    image: Dict[str, object]
    #: largest snapshot timestamp that has read this version (MVTO/OCC aid).
    max_read_ts: float = INITIAL_TS

    def note_read(self, snapshot_ts: float) -> None:
        self.max_read_ts = max(self.max_read_ts, snapshot_ts)


class MultiVersionStore:
    """Append-mostly multi-version storage keyed by record id."""

    def __init__(self, initial: Optional[Mapping[Key, Mapping[str, object]]] = None):
        self._records: Dict[Key, List[StoredVersion]] = {}
        self._commit_keys: Dict[Key, List[float]] = {}
        if initial:
            for key, image in initial.items():
                version = StoredVersion(
                    commit_ts=INITIAL_TS,
                    txn_id="__init__",
                    columns=dict(image),
                    image=dict(image),
                )
                self._records[key] = [version]
                self._commit_keys[key] = [INITIAL_TS]

    # -- reads -----------------------------------------------------------------

    def chain_at(
        self, key: Key, snapshot_ts: float
    ) -> Tuple[Sequence[StoredVersion], int]:
        """The key's versions (oldest first; not a copy, do not mutate) and
        the index of the latest one committed at or before ``snapshot_ts``
        (-1 when none is): one lookup answers what a read sees and which
        versions overwrote it (``versions[index + 1:]``)."""
        versions = self._records.get(key)
        if not versions:
            return (), -1
        return versions, bisect.bisect_right(self._commit_keys[key], snapshot_ts) - 1

    def version_at(self, key: Key, snapshot_ts: float) -> Optional[StoredVersion]:
        """Latest version committed at or before ``snapshot_ts``."""
        versions, index = self.chain_at(key, snapshot_ts)
        return versions[index] if index >= 0 else None

    def image_at(self, key: Key, snapshot_ts: float) -> Optional[Dict[str, object]]:
        version = self.version_at(key, snapshot_ts)
        return None if version is None else dict(version.image)

    def latest(self, key: Key) -> Optional[StoredVersion]:
        versions = self._records.get(key)
        return versions[-1] if versions else None

    def latest_commit_ts(self, key: Key) -> float:
        version = self.latest(key)
        return INITIAL_TS if version is None else version.commit_ts

    def version_before(self, key: Key, commit_ts: float) -> Optional[StoredVersion]:
        """Latest version strictly older than ``commit_ts`` (used by the
        stale-read fault injector)."""
        versions = self._records.get(key)
        if not versions:
            return None
        idx = bisect.bisect_left(self._commit_keys[key], commit_ts) - 1
        if idx < 0:
            return None
        return versions[idx]

    # -- writes -----------------------------------------------------------------

    def install(
        self, key: Key, txn_id: str, columns: Mapping[str, object], commit_ts: float
    ) -> StoredVersion:
        """Install a committed version.  Commit timestamps are assigned by
        the single-threaded engine at distinct instants, so appends are
        always in order."""
        from ..core.trace import apply_delta

        versions = self._records.setdefault(key, [])
        keys = self._commit_keys.setdefault(key, [])
        if keys and commit_ts < keys[-1]:
            raise ValueError(
                f"out-of-order install on {key!r}: {commit_ts} after {keys[-1]}"
            )
        base = dict(versions[-1].image) if versions else {}
        apply_delta(base, dict(columns))
        version = StoredVersion(
            commit_ts=commit_ts,
            txn_id=txn_id,
            columns=dict(columns),
            image=base,
        )
        versions.append(version)
        keys.append(commit_ts)
        return version

    # -- bookkeeping -----------------------------------------------------------------

    def key_count(self) -> int:
        return len(self._records)

    def version_count(self) -> int:
        return sum(len(v) for v in self._records.values())

    def keys(self) -> List[Key]:
        return list(self._records)
