"""Interval algebra for black-box isolation verification.

Every quantity Leopard reasons about -- version installation, snapshot
generation, lock acquisition and release, transaction commit -- is observed
only as a *time interval* ``(ts_bef, ts_aft)`` recorded at the client: the
true instant at which the database acted lies somewhere strictly inside the
interval, but is never known exactly.

This module provides the small algebra the verification mechanisms are built
on: precedence ("does every point of A precede every point of B?"),
overlap, and *feasibility* ("is there any choice of hidden instants for
which A's instant precedes B's?").  All mechanism theorems in the paper
(Theorems 2-4) reduce to compositions of these predicates.

Intervals are treated as **open**: the hidden instant satisfies
``ts_bef < t < ts_aft``.  With open intervals, ``a.ts_aft == b.ts_bef``
still means "A definitely before B", which matches how client-side
timestamps are taken (before the request is sent / after the response is
received).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Timestamp used for versions that exist before any traced operation
#: (initial database population).  Using -inf keeps all comparison
#: predicates total without special cases.
NEG_INF = -math.inf

#: Timestamp for events that have not happened yet (e.g. the release time of
#: a lock held by a still-active transaction).
POS_INF = math.inf


@dataclass(order=True, slots=True, unsafe_hash=True)
class Interval:
    """An open time interval ``(ts_bef, ts_aft)`` observed at a client.

    The default ordering (``order=True``) sorts by ``ts_bef`` first, which is
    the sort key used throughout the two-level pipeline and the verifier.
    ``slots=True`` because intervals are the single most-allocated object in
    a verification run and every mechanism predicate reads their fields.

    Immutable by convention, not ``frozen``: one is built per decoded trace
    on every hop, and the frozen-dataclass ``__init__`` stores each field
    through ``object.__setattr__``.  Nothing may assign to an interval
    after construction -- they are shared between traces, versions, lock
    entries and reports, and hashed (``unsafe_hash``) by value.
    """

    ts_bef: float
    ts_aft: float

    def __post_init__(self) -> None:
        # Written as a negation so that NaN, which compares false with
        # everything, is refused too: a NaN timestamp sorts nowhere, and
        # the dispatch order would silently never release its trace.
        if not self.ts_bef <= self.ts_aft:
            raise ValueError(
                f"interval ({self.ts_bef!r}, {self.ts_aft!r}) refused: end "
                "precedes start, or a timestamp is not a number"
            )

    # -- basic predicates -------------------------------------------------

    def precedes(self, other: "Interval") -> bool:
        """Definitely-before: every point of self precedes every point of
        ``other``.  Open intervals make the boundary case unambiguous."""
        return self.ts_aft <= other.ts_bef

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two intervals share at least one instant, i.e. the
        relative order of the hidden instants cannot be determined."""
        return not self.precedes(other) and not other.precedes(self)

    # -- feasibility ------------------------------------------------------

    def can_precede(self, other: "Interval") -> bool:
        """Whether there exists a choice of hidden instants ``a`` in self
        and ``b`` in ``other`` with ``a < b``.

        This is the building block of the "possible orders" enumeration in
        the ME and FUW mechanisms: an order is *feasible* iff every
        happens-before constraint it imposes satisfies ``can_precede``.
        """
        return self.ts_bef < other.ts_aft

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return f"({self.ts_bef:.6f}, {self.ts_aft:.6f})"


#: The interval of the initial (pre-loaded) database state.
INITIAL_INTERVAL = Interval(NEG_INF, NEG_INF)

#: The interval of an event that has not been observed yet.
UNFINISHED_INTERVAL = Interval(POS_INF, POS_INF)
