"""Discrete-event loop driving the simulated DBMS and its clients.

The paper's experiments run real client threads against a real DBMS; here
both sides are simulated on a deterministic event loop (see DESIGN.md's
substitution table).  Events are ``(time, seq, callback)`` triples ordered
by simulated time; ties resolve in scheduling order, which keeps runs
reproducible for a fixed seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple

Callback = Callable[[], None]


class EventLoop:
    """A minimal single-threaded discrete-event scheduler."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callback]] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self._stopped = False

    def schedule_at(self, time: float, callback: Callback) -> None:
        """Run ``callback`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        heapq.heappush(self._queue, (time, next(self._seq), callback))

    def schedule_after(self, delay: float, callback: Callback) -> None:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.schedule_at(self.now + delay, callback)

    def stop(self) -> None:
        """Request the loop to stop before the next event."""
        self._stopped = True

    def run(self, max_events: int = 50_000_000) -> int:
        """Process events until the queue drains or :meth:`stop` is
        called.  Returns the number of events processed."""
        processed = 0
        self._stopped = False
        while self._queue and not self._stopped:
            time, _, callback = heapq.heappop(self._queue)
            self.now = time
            callback()
            processed += 1
            if processed >= max_events:
                raise RuntimeError(
                    f"event budget exceeded ({max_events}); likely a livelock"
                )
        return processed

    @property
    def pending(self) -> int:
        return len(self._queue)
