"""Bug descriptors and verification reports.

Every mechanism that detects an inconsistency emits a :class:`Violation`
into the shared :class:`BugDescriptor`.  The descriptor is the paper's "bug
descriptor" output: a structured record of what was violated, by which
transactions, with enough interval evidence for a human to replay the
schedule against the DBMS.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple


class Mechanism(enum.Enum):
    """The four IL implementation mechanisms of Section II-B."""

    CONSISTENT_READ = "CR"
    MUTUAL_EXCLUSION = "ME"
    FIRST_UPDATER_WINS = "FUW"
    SERIALIZATION_CERTIFIER = "SC"


class ViolationKind(enum.Enum):
    """Fine-grained classification used in reports and tests."""

    # CR
    STALE_READ = "stale-read"          # read a version outside the candidate set
    FUTURE_READ = "future-read"        # read a version installed after the snapshot
    DIRTY_READ = "dirty-read"          # read an uncommitted/aborted version
    OWN_WRITE_LOST = "own-write-lost"  # failed to see an earlier write of the same txn
    UNKNOWN_VERSION = "unknown-version"  # read a value no write ever produced
    PHANTOM = "phantom"                # a scan missed a definitely-visible row
    # ME
    INCOMPATIBLE_LOCKS = "incompatible-locks"
    # FUW
    LOST_UPDATE = "lost-update"
    # SC
    DEPENDENCY_CYCLE = "dependency-cycle"
    DANGEROUS_STRUCTURE = "dangerous-structure"  # SSI: two consecutive rw edges
    CONTRADICTORY_DEPENDENCIES = "contradictory-dependencies"


@dataclass(frozen=True)
class Violation:
    """One detected isolation-level violation."""

    mechanism: Mechanism
    kind: ViolationKind
    txns: Tuple[str, ...]
    key: Optional[Any] = None
    details: str = ""
    evidence: Mapping[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        where = f" key={self.key!r}" if self.key is not None else ""
        return (
            f"[{self.mechanism.value}/{self.kind.value}] "
            f"txns={','.join(self.txns)}{where}: {self.details}"
        )


class BugDescriptor:
    """Accumulates violations during a verification run.

    Duplicate suppression: the same logical bug is often witnessed by many
    operation pairs (e.g. every later read of a corrupted version).  Each
    violation is deduplicated on ``(mechanism, kind, txns, key)`` so reports
    stay readable, while ``raw_count`` still exposes the witness count.
    """

    def __init__(self) -> None:
        #: append-only; ``violations_so_far()`` hands this very list to
        #: the online layer (read-only by convention, like every record).
        self._violations: List[Violation] = []
        self._seen: Dict[Tuple, int] = {}
        self.raw_count = 0

    def record(self, violation: Violation) -> None:
        self.raw_count += 1
        dedup_key = (
            violation.mechanism,
            violation.kind,
            violation.txns,
            violation.key,
        )
        if dedup_key in self._seen:
            self._seen[dedup_key] += 1
            return
        self._seen[dedup_key] = 1
        self._violations.append(violation)

    @property
    def violations(self) -> List[Violation]:
        return list(self._violations)

    def __len__(self) -> int:
        return len(self._violations)

    def __bool__(self) -> bool:
        return bool(self._violations)

    def __iter__(self):
        return iter(self._violations)


@dataclass
class VerificationStats:
    """Counters exported with each report (feed the Fig. 11/13 benches)."""

    traces_processed: int = 0
    txns_committed: int = 0
    txns_aborted: int = 0
    reads_checked: int = 0
    writes_checked: int = 0
    deps_wr: int = 0
    deps_ww: int = 0
    deps_rw: int = 0
    deps_so: int = 0
    #: conflicting operation pairs examined by the mechanisms
    conflict_pairs: int = 0
    #: conflicting operation pairs whose intervals overlapped
    overlapped_pairs: int = 0
    #: overlapped pairs whose order a mechanism still managed to deduce
    deduced_overlapped_pairs: int = 0
    gc_versions_pruned: int = 0
    gc_locks_pruned: int = 0
    gc_txns_pruned: int = 0

    @property
    def deps_total(self) -> int:
        return self.deps_wr + self.deps_ww + self.deps_rw

    @property
    def uncertain_overlapped_pairs(self) -> int:
        return self.overlapped_pairs - self.deduced_overlapped_pairs

    @property
    def beta(self) -> float:
        """Fig. 4's overlap ratio: overlapped conflicting pairs over all
        conflicting pairs examined."""
        if self.conflict_pairs == 0:
            return 0.0
        return self.overlapped_pairs / self.conflict_pairs


@dataclass
class VerificationReport:
    """Final output of a verification run."""

    descriptor: BugDescriptor
    stats: VerificationStats
    isolation_level: str = ""

    @property
    def ok(self) -> bool:
        """Whether the history is consistent with the claimed IL."""
        return not self.descriptor

    @property
    def violations(self) -> List[Violation]:
        return self.descriptor.violations

    def summary(self) -> str:
        lines = [
            f"isolation level : {self.isolation_level or '(unspecified)'}",
            f"traces          : {self.stats.traces_processed}",
            f"committed txns  : {self.stats.txns_committed}",
            f"aborted txns    : {self.stats.txns_aborted}",
            f"dependencies    : wr={self.stats.deps_wr} "
            f"ww={self.stats.deps_ww} rw={self.stats.deps_rw}",
            f"violations      : {len(self.descriptor)} "
            f"({self.descriptor.raw_count} witnesses)",
        ]
        for violation in self.descriptor:
            lines.append(f"  - {violation}")
        return "\n".join(lines)


def report_fingerprint(report: VerificationReport) -> str:
    """Canonical digest of a verification outcome.

    Two runs over the same logical trace stream must fingerprint
    identically no matter how the traces were delivered -- offline files,
    the online service, any arrival interleaving -- which is the
    equivalence the service's drain contract and the offline-vs-online
    tests pin down.  The stats are counts of the history only (timings
    live in the run's metrics registry).  Violations are compared by their
    rendered form and sorted, so backend-dependent discovery order does
    not leak into the digest.
    """
    doc = {
        "isolation_level": report.isolation_level,
        "ok": report.ok,
        "violations": sorted(str(v) for v in report.violations),
        "witnesses": report.descriptor.raw_count,
        "stats": dataclasses.asdict(report.stats),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    # Imported here, not at module top: only fingerprints hash, and
    # hashlib maps OpenSSL (~3.6 MB resident) into every process that
    # imports it -- ``repro verify`` and its shard workers need none of it.
    import hashlib

    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
