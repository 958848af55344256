"""Measurement utilities for the experiment harness.

The paper measures wall-clock verification time and process memory.  We
measure wall-clock time of the Python implementation directly, and for
memory we count *live verifier structures* (versions, locks, graph nodes
and edges, buffered traces) -- the quantity Leopard's garbage collection
controls, and the one whose growth curve Figs. 10 and 14 plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List


@dataclass
class MemorySeries:
    """Periodic samples of a structure-count callable."""

    sample_every: int = 256
    samples: List[int] = field(default_factory=list)
    _since: int = 0

    def observe(self, probe: Callable[[], int]) -> None:
        self._since += 1
        if self._since >= self.sample_every:
            self._since = 0
            self.samples.append(probe())

    def finish(self, probe: Callable[[], int]) -> None:
        self.samples.append(probe())

    @property
    def peak(self) -> int:
        return max(self.samples) if self.samples else 0

    @property
    def final(self) -> int:
        return self.samples[-1] if self.samples else 0
