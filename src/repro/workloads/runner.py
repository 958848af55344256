"""Workload runner: drives N simulated clients against the engine.

This is the experiment half of the paper's setup: the runner populates the
database, spawns one :class:`ClientSession` per simulated thread, issues
transaction programs with think time until the target transaction count (or
simulated duration) is reached, and returns the per-client trace streams --
exactly what the Tracer's local buffers ingest.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..core.pipeline import sorted_traces
from ..core.trace import Trace
from ..dbsim.clock import make_client_clocks
from ..dbsim.engine import EngineStats, SimulatedDBMS
from ..dbsim.session import ClientSession
from .base import Workload


@dataclass
class RunResult:
    """Everything a verification experiment needs from a workload run."""

    workload: str
    client_streams: Dict[int, List[Trace]]
    initial_db: Mapping[object, Mapping[str, object]]
    committed: int
    aborted: int
    sim_duration: float
    wall_time: float
    engine_stats: EngineStats

    @property
    def issued(self) -> int:
        return self.committed + self.aborted

    @property
    def trace_count(self) -> int:
        return sum(len(stream) for stream in self.client_streams.values())

    @property
    def throughput(self) -> float:
        """Committed transactions per simulated second (the DBMS throughput
        axis of Fig. 12)."""
        if self.sim_duration <= 0:
            return 0.0
        return self.committed / self.sim_duration

    def all_traces_sorted(self) -> List[Trace]:
        return sorted_traces(self.client_streams)


class WorkloadRunner:
    """Runs a workload on a simulated DBMS and collects traces.

    Parameters
    ----------
    db:
        The engine to run against (its spec decides the isolation level).
    workload:
        Any :class:`~repro.workloads.base.Workload`.
    clients:
        Thread scale: number of concurrent client sessions.
    think_mean:
        Mean think time between transactions of one client (seconds).
    clock_skew / clock_jitter:
        Client clock imperfection passed to
        :func:`~repro.dbsim.clock.make_client_clocks`.
    """

    def __init__(
        self,
        db: SimulatedDBMS,
        workload: Workload,
        clients: int = 8,
        think_mean: float = 5e-4,
        clock_skew: float = 0.0,
        clock_jitter: float = 0.0,
        seed: int = 0,
    ):
        if clients < 1:
            raise ValueError("need at least one client")
        self.db = db
        self.workload = workload
        self.clients = clients
        self.think_mean = think_mean
        self._seed = seed
        clocks = make_client_clocks(
            clients, max_offset=clock_skew, jitter=clock_jitter, seed=seed
        )
        self._sessions = [
            ClientSession(client_id, db, clock=clock)
            for client_id, clock in enumerate(clocks)
        ]
        self._rngs = [
            random.Random(f"{seed}/{client_id}") for client_id in range(clients)
        ]

    def run(
        self,
        txns: Optional[int] = 2000,
        duration: Optional[float] = None,
    ) -> RunResult:
        """Run until ``txns`` transactions were issued (committed or
        aborted) or ``duration`` simulated seconds elapsed, whichever comes
        first (pass ``txns=None`` for duration-only runs)."""
        if txns is None and duration is None:
            raise ValueError("need a transaction target or a duration")
        initial_db = self.db.load(self.workload.populate())
        issued = {"count": 0}
        loop = self.db.loop
        start_time = loop.now

        def want_more() -> bool:
            if txns is not None and issued["count"] >= txns:
                return False
            if duration is not None and loop.now - start_time >= duration:
                return False
            return True

        def launch(session: ClientSession) -> None:
            if not want_more():
                return
            issued["count"] += 1
            rng = self._rngs[session.client_id]
            program = self.workload.transaction(rng)
            session.run_program(program, on_done)

        def on_done(session: ClientSession, committed: bool) -> None:
            if want_more():
                rng = self._rngs[session.client_id]
                think = max(0.0, rng.expovariate(1.0 / self.think_mean)) if self.think_mean else 0.0
                loop.schedule_after(think, lambda: launch(session))

        wall_start = time.perf_counter()
        for session in self._sessions:
            rng = self._rngs[session.client_id]
            loop.schedule_after(rng.random() * 1e-3, lambda s=session: launch(s))
        loop.run()
        wall_time = time.perf_counter() - wall_start
        committed = sum(s.committed for s in self._sessions)
        aborted = sum(s.aborted for s in self._sessions)
        return RunResult(
            workload=self.workload.name,
            client_streams={s.client_id: s.traces for s in self._sessions},
            initial_db=initial_db,
            committed=committed,
            aborted=aborted,
            sim_duration=loop.now - start_time,
            wall_time=wall_time,
            engine_stats=self.db.stats,
        )


def run_workload(
    workload: Workload,
    spec,
    clients: int = 8,
    txns: int = 2000,
    seed: int = 0,
    faults=None,
    duration: Optional[float] = None,
    **runner_kwargs,
) -> RunResult:
    """Convenience wrapper: build an engine, run a workload, return traces."""
    from ..dbsim.engine import SimulatedDBMS
    from ..dbsim.faults import CLEAN

    db = SimulatedDBMS(spec=spec, seed=seed, faults=faults or CLEAN)
    runner = WorkloadRunner(db, workload, clients=clients, seed=seed, **runner_kwargs)
    return runner.run(txns=txns, duration=duration)
