"""The Fig. 6 classification as a full linear scan: the specification
``VersionChain.classify`` / ``VersionChain.garbage`` are tested against.

This is the chain's original classification path, moved here verbatim when
``core/versions.py`` was reduced to one production path.  It reads nothing
but ``Version`` objects and ``Interval`` predicates -- no key index, no
cache -- so it cannot share a defect with the code under test.
"""

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.intervals import Interval
from repro.core.versions import Version


class Fig6(NamedTuple):
    candidates: Tuple[Version, ...]
    future: Tuple[Version, ...]
    garbage: Tuple[Version, ...]
    pivot: Optional[Version]


def partition(versions: Sequence[Version], snapshot: Interval):
    """(future, overlap, pivot, pivot_overlap, garbage), each in the order
    of ``versions``."""
    future: List[Version] = []
    overlap: List[Version] = []
    before: List[Version] = []
    for version in versions:
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
    return future, overlap, pivot, pivot_overlap, garbage


def classify(
    versions: Sequence[Version],
    snapshot: Interval,
    order_oracle: Optional[Callable[[Version, Version], Optional[bool]]] = None,
) -> Fig6:
    """Theorem 2's minimal candidate set over ``versions`` (any order):
    overlap + pivot + pivot-overlap, the last collapsed through the deduced
    ww order when an oracle is given (Section V-A), sorted by staging
    sequence."""
    future, overlap, pivot, pivot_overlap, garbage = partition(versions, snapshot)
    pre_snapshot = list(pivot_overlap)
    if pivot is not None:
        pre_snapshot.append(pivot)
    if order_oracle is not None and len(pre_snapshot) > 1:
        survivors = [
            version
            for version in pre_snapshot
            if not any(
                other is not version and order_oracle(version, other)
                for other in pre_snapshot
            )
        ]
        pre_snapshot = survivors or pre_snapshot
    candidates = sorted(pre_snapshot + overlap, key=lambda v: v.seq)
    return Fig6(tuple(candidates), tuple(future), tuple(garbage), pivot)


def assert_same(got, want: Fig6) -> None:
    """A chain's classification against the scan's: same objects, same
    order."""
    assert got.candidates == want.candidates
    assert got.future == want.future
    assert got.pivot is want.pivot


def check(chain, snapshot: Interval, order_oracle=None) -> None:
    """Assert that ``chain`` classifies ``snapshot`` exactly as the scan
    does: same candidates, future, garbage and pivot."""
    want = classify(chain.committed_versions(), snapshot, order_oracle)
    assert_same(chain.classify(snapshot, order_oracle), want)
    assert chain.garbage(snapshot) == want.garbage
