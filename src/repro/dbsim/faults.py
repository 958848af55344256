"""Fault injection: reproducing the bug classes of Section VI-F.

The paper found 17 real bugs in commercial engines; we cannot run those
engines, so each bug *class* is reproduced as a switchable fault in the
simulated engine.  Running a faulty engine while claiming the clean spec
produces traces carrying the same dependency/interval signature the real
bug produced, which is what the verification mechanisms consume.

Mapping to the paper's bug cases:

=========================  ====================================================
Fault                      Paper bug case
=========================  ====================================================
skip_lock_on_noop_update   Bug 1 -- TiDB acquired no lock when the first
                           UPDATE did not change the record, allowing a
                           dirty write (ME violation).
stale_read_prob            Bug 2 -- a read returned the first update but
                           not the second, violating linearizable reads
                           (CR violation).
forget_write_lock_prob     Bug 3 -- a FOR UPDATE read reached a record
                           through a join and TiDB forgot the lock
                           acquisition (ME violation).
ignore_own_write_prob      Bug 4 -- a query returned the deleted/old
                           version instead of the transaction's own write
                           (CR own-write violation).
dirty_read_prob            classic G1a/G1b: reads observing uncommitted or
                           later-aborted data (CR violation).
future_read_prob           non-repeatable reads under a claimed
                           transaction-level snapshot (CR violation).
disable_fuw                lost update while claiming SI (FUW violation).
disable_ssi                write skew while claiming serializable
                           (SC violation).
disable_write_locks        systematic dirty writes (ME violation).
=========================  ====================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class FaultPlan:
    """Switchboard of injectable engine defects (all off by default)."""

    skip_lock_on_noop_update: bool = False
    stale_read_prob: float = 0.0
    forget_write_lock_prob: float = 0.0
    ignore_own_write_prob: float = 0.0
    dirty_read_prob: float = 0.0
    future_read_prob: float = 0.0
    #: probability a predicate scan silently drops a matching row (a
    #: phantom-style result-set bug).
    phantom_skip_prob: float = 0.0
    disable_fuw: bool = False
    disable_ssi: bool = False
    disable_write_locks: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "stale_read_prob",
            "forget_write_lock_prob",
            "ignore_own_write_prob",
            "dirty_read_prob",
            "future_read_prob",
            "phantom_skip_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")


CLEAN = FaultPlan()


class FaultDice:
    """Seeded sampler deciding when probabilistic faults fire."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)

    def fires(self, probability: float) -> bool:
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability
