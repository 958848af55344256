"""Adya-style anomaly catalogue and report classification.

The paper speaks the language of *mechanism violations* (a CR stale read,
an ME lock overlap, ...), while most of the isolation literature -- and the
Elle baseline -- speaks Adya's anomaly taxonomy (G0, G1a, ...).  This
module maps between the two: every :class:`~repro.core.report.Violation`
kind is assigned the anomalies it witnesses, and a report can be summarised
as the set of classic anomalies it exposes together with the strongest
isolation level that still tolerates the history.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from .report import VerificationReport, ViolationKind
from .spec import IsolationLevel


class Anomaly(enum.Enum):
    """Classic isolation anomalies (Adya / Berenson et al.)."""

    DIRTY_WRITE = "G0"          # write cycle / overlapping writes
    DIRTY_READ = "G1a"          # read of an aborted or uncommitted write
    INTERMEDIATE_READ = "G1b"   # read of a non-final version of a txn
    CIRCULAR_INFO_FLOW = "G1c"  # ww/wr dependency cycle
    NON_REPEATABLE_READ = "fuzzy-read"
    LOST_UPDATE = "P4"
    READ_SKEW = "A5A"
    WRITE_SKEW = "A5B"
    SERIALIZATION_FAILURE = "G2"
    PHANTOM = "P3"

    @property
    def description(self) -> str:
        return _DESCRIPTIONS[self]


_DESCRIPTIONS: Dict[Anomaly, str] = {
    Anomaly.DIRTY_WRITE: "two transactions wrote the same record concurrently",
    Anomaly.DIRTY_READ: "a transaction read data that was never committed",
    Anomaly.INTERMEDIATE_READ: "a transaction read a non-final version",
    Anomaly.CIRCULAR_INFO_FLOW: "committed information flow forms a cycle",
    Anomaly.NON_REPEATABLE_READ: "a re-read returned a different committed value",
    Anomaly.LOST_UPDATE: "a committed update was silently overwritten",
    Anomaly.READ_SKEW: "a transaction observed an inconsistent mix of versions",
    Anomaly.WRITE_SKEW: "disjoint writes based on overlapping reads broke an invariant",
    Anomaly.SERIALIZATION_FAILURE: "no serial order explains the history",
    Anomaly.PHANTOM: "a re-evaluated predicate returned an inconsistent row set",
}

#: which anomalies each violation kind witnesses.
VIOLATION_ANOMALIES: Dict[ViolationKind, Tuple[Anomaly, ...]] = {
    ViolationKind.STALE_READ: (Anomaly.READ_SKEW,),
    ViolationKind.FUTURE_READ: (Anomaly.NON_REPEATABLE_READ,),
    ViolationKind.DIRTY_READ: (Anomaly.DIRTY_READ,),
    ViolationKind.OWN_WRITE_LOST: (Anomaly.INTERMEDIATE_READ,),
    ViolationKind.UNKNOWN_VERSION: (Anomaly.DIRTY_READ,),
    ViolationKind.PHANTOM: (Anomaly.PHANTOM,),
    ViolationKind.INCOMPATIBLE_LOCKS: (Anomaly.DIRTY_WRITE,),
    ViolationKind.LOST_UPDATE: (Anomaly.LOST_UPDATE,),
    ViolationKind.DEPENDENCY_CYCLE: (Anomaly.SERIALIZATION_FAILURE,),
    ViolationKind.DANGEROUS_STRUCTURE: (
        Anomaly.WRITE_SKEW,
        Anomaly.SERIALIZATION_FAILURE,
    ),
    ViolationKind.CONTRADICTORY_DEPENDENCIES: (Anomaly.CIRCULAR_INFO_FLOW,),
}

#: anomalies *tolerated* by each isolation level (ANSI + Berenson et al.
#: reading; an anomaly not listed must never appear under that level).
TOLERATED: Dict[IsolationLevel, FrozenSet[Anomaly]] = {
    IsolationLevel.READ_COMMITTED: frozenset(
        {
            Anomaly.PHANTOM,
            Anomaly.NON_REPEATABLE_READ,
            Anomaly.LOST_UPDATE,
            Anomaly.READ_SKEW,
            Anomaly.WRITE_SKEW,
            Anomaly.SERIALIZATION_FAILURE,
        }
    ),
    IsolationLevel.REPEATABLE_READ: frozenset(
        {
            Anomaly.PHANTOM,  # ANSI RR permits phantoms
            Anomaly.LOST_UPDATE,  # InnoDB-style RR (no FUW)
            Anomaly.WRITE_SKEW,
            Anomaly.SERIALIZATION_FAILURE,
        }
    ),
    IsolationLevel.SNAPSHOT_ISOLATION: frozenset(
        {Anomaly.WRITE_SKEW, Anomaly.SERIALIZATION_FAILURE}
    ),
    IsolationLevel.SERIALIZABLE: frozenset(),
}

#: strongest-to-weakest level order used by :func:`strongest_level_satisfied`.
_LEVEL_ORDER = (
    IsolationLevel.SERIALIZABLE,
    IsolationLevel.SNAPSHOT_ISOLATION,
    IsolationLevel.REPEATABLE_READ,
    IsolationLevel.READ_COMMITTED,
)


def anomalies_of(report: VerificationReport) -> Set[Anomaly]:
    """The classic anomalies a verification report witnesses."""
    found: Set[Anomaly] = set()
    for violation in report.violations:
        found.update(VIOLATION_ANOMALIES.get(violation.kind, ()))
    return found


def strongest_level_satisfied(report: VerificationReport) -> Optional[IsolationLevel]:
    """The strongest ANSI-ish level whose tolerated-anomaly set covers
    everything the report witnessed, or ``None`` when even read committed
    is violated (dirty reads/writes present).

    Note this judges only the anomalies a *particular run* exposed -- it is
    evidence, not proof, that the engine provides that level.
    """
    witnessed = anomalies_of(report)
    strongest: Optional[IsolationLevel] = None
    for level in reversed(_LEVEL_ORDER):  # weakest to strongest
        if witnessed <= TOLERATED[level]:
            strongest = level
        else:
            break  # tolerated sets only shrink from here on
    return strongest


@dataclass(frozen=True)
class AnomalySummary:
    """Human-facing classification of a verification report."""

    anomalies: Tuple[Anomaly, ...]
    strongest_level: Optional[IsolationLevel]

    def render(self) -> str:
        if not self.anomalies:
            return "no anomalies witnessed"
        lines = [
            f"{a.value:12s} {a.name.lower().replace('_', ' ')}: {a.description}"
            for a in self.anomalies
        ]
        level = (
            self.strongest_level.value
            if self.strongest_level is not None
            else "none (dirty reads/writes present)"
        )
        lines.append(f"strongest level consistent with this run: {level}")
        return "\n".join(lines)


def classify(report: VerificationReport) -> AnomalySummary:
    """Summarise a report in anomaly-taxonomy terms."""
    witnessed = sorted(anomalies_of(report), key=lambda a: a.value)
    return AnomalySummary(
        anomalies=tuple(witnessed),
        strongest_level=strongest_level_satisfied(report),
    )
