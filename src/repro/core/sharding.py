"""Key-partitioned verifier state for the parallel verification path.

Leopard's CR/ME/FUW checks are *per-record*: every candidate set, lock
pair and write-conflict pair involves versions of a single key.  Hash-
partitioning the key space therefore splits those checks into independent
shards that never need each other's version chains or lock tables; only
the serialization certifier is global (cycles cross keys), so the parallel
path (:mod:`repro.core.parallel`) runs it once over the merged dependency
stream.

This module provides the partitioning primitives, :func:`stable_hash` and
:class:`ShardRouter`: deterministic key-to-shard assignment (stable across
processes and runs, unlike the salted builtin ``hash``) and per-trace
routing -- data operations are *split* so each shard receives only its
keys, while terminals, predicate scans and keyless traces broadcast to
every shard.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Mapping, Optional, Tuple

from .trace import Key, OpKind, Trace


def _shard_part(trace: Trace, reads: Mapping, writes: Mapping) -> Trace:
    """``trace`` restricted to one shard's keys -- built with the
    constructor, positionally, like every other per-record construction."""
    return Trace(
        trace.interval,
        trace.kind,
        trace.txn_id,
        trace.client_id,
        reads,
        writes,
        trace.status,
        trace.for_update,
        trace.predicate,
        trace.op_index,
        trace.trace_id,
    )


def stable_hash(key: Key) -> int:
    """Process-stable hash of a record key.

    The builtin ``hash`` is salted per interpreter process (PYTHONHASHSEED),
    so it cannot be used to agree on a partition between the coordinator
    and its workers; CRC-32 over the key's repr is stable and fast, and the
    keys this repository produces (strings, ints, tuples of both) all have
    canonical reprs.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


class ShardRouter:
    """Deterministic key-to-shard assignment and trace routing."""

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.shards = shards
        #: key -> shard, filled on first routing (and warmed by
        #: :meth:`partition_initial_db`).  Bounded by the key space the
        #: shards already hold version chains for.
        self._owners: Dict[Key, int] = {}

    def shard_of(self, key: Key) -> int:
        shard = self._owners.get(key)
        if shard is None:
            shard = self._owners[key] = stable_hash(key) % self.shards
        return shard

    def partition_initial_db(
        self, initial_db: Optional[Mapping[Key, Mapping[str, object]]]
    ) -> List[Dict[Key, Mapping[str, object]]]:
        """Split the initial database image by key ownership."""
        parts: List[Dict[Key, Mapping[str, object]]] = [
            {} for _ in range(self.shards)
        ]
        for key, image in (initial_db or {}).items():
            parts[self.shard_of(key)][key] = image
        return parts

    def split(self, trace: Trace) -> Dict[int, Trace]:
        """Route one trace: shard index -> the trace that shard processes.

        * terminal traces broadcast unchanged -- every shard must close the
          transaction's locks and run its deferred checks;
        * predicate scans broadcast with the observed rows filtered to each
          shard's keys -- the scan-completeness check compares against the
          shard's own chains, so foreign observations are irrelevant there;
        * plain data operations are split by key ownership, and shards with
          no owned key do not see the trace at all;
        * keyless data traces (e.g. failed operations, which carry their
          interval but no read/write set) broadcast so every shard's
          dispatch watermark advances identically.

        With one shard every trace routes whole to shard 0 as the original
        object -- the single-shard parallel path replays exactly the serial
        stream.
        """
        if self.shards == 1:
            return {0: trace}
        kind = trace.kind
        if kind is OpKind.COMMIT or kind is OpKind.ABORT:
            return {shard: trace for shard in range(self.shards)}
        reads = trace.reads
        writes = trace.writes
        if trace.predicate is not None:
            shard_of = self.shard_of
            return {
                shard: _shard_part(
                    trace,
                    {k: obs for k, obs in reads.items() if shard_of(k) == shard},
                    writes,
                )
                for shard in range(self.shards)
            }
        if not reads and not writes:
            return {shard: trace for shard in range(self.shards)}
        if len(reads) + len(writes) == 1:
            # The dominant shape: one key, one owner, the original object.
            (key,) = reads or writes
            return {self.shard_of(key): trace}
        by_shard: Dict[int, Tuple[Dict, Dict]] = {}
        for key, obs in reads.items():
            by_shard.setdefault(self.shard_of(key), ({}, {}))[0][key] = obs
        for key, delta in writes.items():
            by_shard.setdefault(self.shard_of(key), ({}, {}))[1][key] = delta
        if len(by_shard) == 1:
            # Single-owner trace: forward the original object.
            return dict.fromkeys(by_shard, trace)
        return {
            shard: _shard_part(trace, part_reads, part_writes)
            for shard, (part_reads, part_writes) in by_shard.items()
        }
