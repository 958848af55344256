"""The naive cycle-searching verifier (Fig. 11 comparison).

Uses the same interval-based dependency deduction as Leopard but replaces
the mechanism-mirrored certifier with the textbook approach: after every
commit, run a full DFS cycle search over the accumulated dependency graph.
No garbage collection, no incremental oracle -- per-commit cost grows with
the whole graph, which is exactly the superlinear curve Fig. 11a plots
against Leopard's linear one.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..core.report import (
    Mechanism,
    VerificationReport,
    Violation,
    ViolationKind,
)
from ..core.spec import IsolationSpec, PG_SERIALIZABLE
from ..core.trace import Key, OpKind, Trace
from ..core.verifier import Verifier


class NaiveCycleSearchChecker:
    """Dependency graph + whole-graph cycle search per committed txn."""

    def __init__(
        self,
        spec: IsolationSpec = PG_SERIALIZABLE,
        initial_db: Optional[Mapping[Key, Mapping[str, object]]] = None,
        check_every: int = 1,
    ):
        if check_every < 1:
            raise ValueError("check_every must be positive")
        # The certifier is stripped: this checker supplies its own SC step.
        # Garbage collection is disabled -- the naive approach retains the
        # complete graph, which is also what makes it slow.
        self._verifier = Verifier(
            spec=spec.without("SC"),
            initial_db=initial_db,
            gc_every=0,
            incremental_graph=False,
        )
        self._check_every = check_every
        self._commits_since_check = 0
        self._cycle_found = False

    @property
    def graph(self):
        return self._verifier.state.graph

    def process(self, trace: Trace) -> None:
        self.process_batch((trace,))

    def process_batch(self, traces: Iterable[Trace]) -> None:
        """Feed the deduction in runs that end at a commit, searching the
        whole graph after each (every ``check_every``-th) one."""
        run = []
        for trace in traces:
            run.append(trace)
            if trace.kind is OpKind.COMMIT:
                self._verifier.process_batch(run)
                run = []
                self._after_commit()
        self._verifier.process_batch(run)

    def _after_commit(self) -> None:
        if self._cycle_found:
            return
        self._commits_since_check += 1
        if self._commits_since_check < self._check_every:
            return
        self._commits_since_check = 0
        cycle = self.graph.find_cycle()
        if cycle is not None:
            self._cycle_found = True
            self._verifier.state.descriptor.record(
                Violation(
                    mechanism=Mechanism.SERIALIZATION_CERTIFIER,
                    kind=ViolationKind.DEPENDENCY_CYCLE,
                    txns=tuple(sorted(set(cycle))),
                    details=f"cycle found by full-graph search: {cycle}",
                )
            )

    def process_all(self, traces: Iterable[Trace]) -> "NaiveCycleSearchChecker":
        self.process_batch(traces)
        return self

    def finish(self) -> VerificationReport:
        report = self._verifier.finish()
        cycle = self.graph.find_cycle()
        if cycle is not None and not self._cycle_found:
            report.descriptor.record(
                Violation(
                    mechanism=Mechanism.SERIALIZATION_CERTIFIER,
                    kind=ViolationKind.DEPENDENCY_CYCLE,
                    txns=tuple(sorted(set(cycle))),
                    details=f"cycle found by final full-graph search: {cycle}",
                )
            )
        return report

    def live_structure_count(self) -> int:
        return self._verifier.state.live_structure_count()
