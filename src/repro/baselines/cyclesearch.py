"""The naive cycle-searching verifier (Fig. 11 comparison).

Uses the same interval-based dependency deduction as Leopard but replaces
the mechanism-mirrored certifier with the textbook approach: after every
commit, run a full DFS cycle search over the accumulated dependency graph.
No garbage collection, no incremental oracle -- per-commit cost grows with
the whole graph, which is exactly the superlinear curve Fig. 11a plots
against Leopard's linear one.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from ..core.dependencies import Dependency, DepType
from ..core.report import (
    Mechanism,
    VerificationReport,
    Violation,
    ViolationKind,
)
from ..core.spec import IsolationSpec, PG_SERIALIZABLE
from ..core.trace import Key, OpKind, Trace
from ..core.verifier import Verifier
from .cobra import _Graph


class RawDependencyGraph(_Graph):
    """What the deduction asks of ``VerifierState.graph`` -- transaction
    nodes, and typed edges for the ww-order oracle -- over plain adjacency
    sets.  No topological order is kept: an edge that closes a cycle goes
    in like any other, and :meth:`find_cycle` (the DFS this checker runs
    after every commit) is the only thing that would notice."""

    def __init__(self) -> None:
        super().__init__()
        #: the node table the bus guard tests membership on -- with no
        #: order to keep, the adjacency map itself.
        self._ord = self.succ
        #: (src, dst) -> set of DepType
        self._edge_types: Dict[Tuple[str, str], Set[DepType]] = {}
        self.edge_count = 0

    def add_txn(self, txn_id: str) -> None:
        self.add_node(txn_id)

    def __contains__(self, txn_id: str) -> bool:
        return txn_id in self.succ

    def __len__(self) -> int:
        return len(self.succ)

    def has_edge_type(self, src: str, dst: str, dep_type: DepType) -> bool:
        return dep_type in self._edge_types.get((src, dst), ())

    def add_dependency(self, dep: Dependency) -> None:
        """Record the typed edge; never refuses one (the certifier's
        "closed a cycle" answer is always ``None`` here)."""
        if dep.src == dep.dst:
            return
        self.add_txn(dep.src)
        self.add_txn(dep.dst)
        types = self._edge_types.setdefault((dep.src, dep.dst), set())
        if dep.dep_type not in types:
            types.add(dep.dep_type)
            self.edge_count += 1
        self.add_edge(dep.src, dep.dst)


class _RawGraphVerifier(Verifier):
    """The serial assembly over a :class:`RawDependencyGraph`: the same
    deductions, none of the incremental oracle's cost."""

    def _build_state(self, initial_db):
        state = super()._build_state(initial_db)
        state.graph = RawDependencyGraph()
        return state


class NaiveCycleSearchChecker:
    """Dependency graph + whole-graph cycle search per committed txn."""

    def __init__(
        self,
        spec: IsolationSpec = PG_SERIALIZABLE,
        initial_db: Optional[Mapping[Key, Mapping[str, object]]] = None,
    ):
        # The certifier is stripped: this checker supplies its own SC step.
        # Garbage collection is disabled -- the naive approach retains the
        # complete graph, which is also what makes it slow.
        self._verifier = _RawGraphVerifier(
            spec=spec.without("SC"), initial_db=initial_db, gc_every=0
        )
        self._cycle_found = False

    @property
    def graph(self):
        return self._verifier.state.graph

    def process(self, trace: Trace) -> None:
        self.process_batch((trace,))

    def process_batch(self, traces: Iterable[Trace]) -> None:
        """Feed the deduction in runs that end at a commit, searching the
        whole graph after each one."""
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
