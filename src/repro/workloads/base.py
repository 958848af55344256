"""Workload interfaces and key-choice distributions.

A workload supplies two things: the initial database population and a
stream of *transaction programs* (generators of :class:`ReadOp` /
:class:`WriteOp`, see :mod:`repro.dbsim.session`).  The runner drives the
programs against the simulated engine; the workload never sees the engine,
mirroring the paper's requirement that tracing not change application
logic.
"""

from __future__ import annotations

import abc
import itertools
import random
from typing import Dict, Hashable, List, Sequence

from ..dbsim.session import Program

Key = Hashable


class ZipfGenerator:
    """Zipfian key sampler (the YCSB 'scrambled-less' variant).

    Implements the rejection-free method of Gray et al. used by YCSB: draws
    ranks with probability proportional to ``1 / rank**theta``.  ``theta``
    close to 0 is uniform; the YCSB default hotspot skew is 0.99.
    """

    def __init__(self, n: int, theta: float, rng: random.Random):
        if n < 1:
            raise ValueError("n must be positive")
        if not 0.0 <= theta < 1.0:
            raise ValueError("theta must be in [0, 1)")
        self._n = n
        self._theta = theta
        self._rng = rng
        if theta == 0.0:
            self._zetan = float(n)
        else:
            self._zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        self._alpha = 1.0 / (1.0 - theta) if theta else 1.0
        zeta2 = 1.0 + (0.5 ** theta if theta else 1.0)
        # For n <= 2 the closed form degenerates (zeta(2) == zeta(n));
        # sample those tiny keyspaces by direct cumulative weights.
        if theta and n > 2:
            self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
                1.0 - zeta2 / self._zetan
            )
        else:
            self._eta = 0.0

    def sample(self) -> int:
        """Return a rank in ``[0, n)``; rank 0 is the hottest key."""
        if self._theta == 0.0:
            return self._rng.randrange(self._n)
        if self._n <= 2:
            point = self._rng.random() * self._zetan
            return 0 if point < 1.0 or self._n == 1 else 1
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self._theta:
            return 1
        return int(
            self._n * (self._eta * u - self._eta + 1.0) ** self._alpha
        ) % self._n

    def sample_distinct(self, count: int) -> List[int]:
        """Draw ``count`` distinct ranks (count must be << n)."""
        if count > self._n:
            raise ValueError("cannot draw more distinct keys than exist")
        chosen: List[int] = []
        seen = set()
        while len(chosen) < count:
            rank = self.sample()
            if rank not in seen:
                seen.add(rank)
                chosen.append(rank)
        return chosen


class Workload(abc.ABC):
    """Base class for all benchmark workloads."""

    #: human-readable workload name used by the bench harness.
    name: str = "workload"

    @abc.abstractmethod
    def populate(self) -> Dict[Key, object]:
        """Initial database contents (key -> scalar or column mapping)."""

    @abc.abstractmethod
    def transaction(self, rng: random.Random) -> Program:
        """Build one transaction program."""


class UniqueValues:
    """Monotone unique value generator shared by the key-value workloads.

    BlindW pads values to 140 characters (the paper's fixed-length string
    payload); enabling ``pad`` reproduces that, while the compact form keeps
    tests fast.
    """

    def __init__(self, prefix: str = "v", pad: int = 0):
        self._counter = itertools.count()
        self._prefix = prefix
        self._pad = pad

    def next(self) -> str:
        raw = f"{self._prefix}{next(self._counter)}"
        if self._pad and len(raw) < self._pad:
            raw = raw + "." * (self._pad - len(raw))
        return raw


def weighted_choice(
    rng: random.Random, weighted: Sequence[tuple]
) -> object:
    """Pick ``item`` from ``[(item, weight), ...]``."""
    total = sum(weight for _, weight in weighted)
    point = rng.random() * total
    acc = 0.0
    for item, weight in weighted:
        acc += weight
        if point <= acc:
            return item
    return weighted[-1][0]
