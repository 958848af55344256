"""Serialization-certifier verification (Algorithm 2, lines 27-31).

The SC mechanism maintains the dependency graph built from the edges all
mechanisms deduce and mirrors the *certifier* the DBMS claims to run:

* ``SSI`` (PostgreSQL serializable): two consecutive rw anti-dependencies
  between concurrent transactions form the dangerous structure the engine
  must have aborted -- observing one among committed transactions is a
  violation, and so is any dependency cycle.
* ``CYCLE`` (OCC validation, timestamp ordering): committed histories are
  conflict-serializable by construction, so any cycle is a violation.
* ``FIRST_COMMITTER`` (Percolator-style SI): concurrent committed writers
  on the same record are prohibited.
* ``NONE``: no serializability claim; only *time-contradictory* cycles are
  flagged -- a cycle whose every edge is ww or wr asserts a circular
  happens-before order of real events, which no bug-free engine of any
  isolation level can produce.
"""

from __future__ import annotations

from typing import List, Optional, Set

from .dependencies import Dependency, DepType
from .mechanism import MechanismVerifier
from .report import Mechanism, Violation, ViolationKind
from .spec import CertifierKind, IsolationSpec
from .state import VerifierState


class SerializationCertifier(MechanismVerifier):
    """Mirrors the certifier of the DBMS under test.

    Unlike the other mechanisms the certifier consumes no traces directly:
    it is first on the dependency bus's delivery line and certifies the
    graph the exchange builds.
    """

    name = "SC"

    def __init__(self, state: VerifierState, spec: IsolationSpec, metrics=None):
        from .metrics import NULL_REGISTRY

        self._state = state
        self._spec = spec
        self._kind = spec.certifier
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._metered = registry.enabled
        #: dependencies certified (graph insertions driven by the bus).
        self._m_certified = registry.counter("sc.deps.certified")
        self._m_cycles = registry.counter("sc.cycles.reported")
        self._m_dangerous = registry.counter("sc.dangerous_structures.reported")
        #: transactions with an incoming/outgoing rw edge whose endpoints
        #: were *necessarily concurrent* -- the precondition for the SSI
        #: dangerous structure.  Sticky: once observed, the fact remains
        #: true even if the peer transaction is later pruned.
        self._in_crw: Set[str] = set()
        self._out_crw: Set[str] = set()

    # -- dependency intake ---------------------------------------------------------

    def on_dependency(self, dep: Dependency) -> None:
        if self._metered:
            self._m_certified.inc()
        graph = self._state.graph
        cycle = graph.add_dependency(dep)
        if cycle is not None:
            self._report_cycle(dep, cycle)
        if dep.dep_type is DepType.RW:
            self._check_dangerous_structure(dep)
        elif dep.dep_type is DepType.WW and self._kind is CertifierKind.FIRST_COMMITTER:
            self._check_first_committer(dep)

    # -- cycles ---------------------------------------------------------------------

    def _report_cycle(self, dep: Dependency, cycle: List[str]) -> None:
        """Classify a cycle closed by ``dep`` (path ``dep.dst .. dep.src``
        through the graph, closed by the new edge)."""
        contradictory = self._cycle_is_time_contradictory(dep, cycle)
        prohibits_cycles = self._kind in (CertifierKind.SSI, CertifierKind.CYCLE)
        if not contradictory and not prohibits_cycles:
            return
        kind = (
            ViolationKind.CONTRADICTORY_DEPENDENCIES
            if contradictory
            else ViolationKind.DEPENDENCY_CYCLE
        )
        self._m_cycles.inc()
        self._state.descriptor.record(
            Violation(
                mechanism=Mechanism.SERIALIZATION_CERTIFIER,
                kind=kind,
                txns=tuple(sorted(set(cycle))),
                key=dep.key,
                details=(
                    f"dependency {dep} closes the cycle {' -> '.join(cycle)}"
                    f" -> {cycle[0]}"
                ),
            )
        )

    def _cycle_is_time_contradictory(
        self, dep: Dependency, cycle: List[str]
    ) -> bool:
        """Whether every edge of the cycle carries a ww or wr type.

        ww and wr dependencies order real events (version installations and
        the reads of them), so such a cycle contradicts physical time and is
        a bug under *any* isolation level.  rw edges carry no time
        implication (a reader may commit after the overwriter), so cycles
        through them are only judged by the claimed certifier.
        """
        time_types = {DepType.WW, DepType.WR, DepType.SO}
        if dep.dep_type not in time_types:
            return False
        graph = self._state.graph
        edges = list(zip(cycle, cycle[1:]))
        return all(graph.edge_types(src, dst) & time_types for src, dst in edges)

    # -- SSI dangerous structure --------------------------------------------------------

    def _check_dangerous_structure(self, dep: Dependency) -> None:
        if self._kind is not CertifierKind.SSI:
            return
        if not self._necessarily_concurrent(dep.src, dep.dst):
            return
        structure: Optional[tuple] = None
        if dep.src in self._in_crw:
            structure = ("?", dep.src, dep.dst)
        elif dep.dst in self._out_crw:
            structure = (dep.src, dep.dst, "?")
        self._out_crw.add(dep.src)
        self._in_crw.add(dep.dst)
        if structure is None:
            return
        self._m_dangerous.inc()
        self._state.descriptor.record(
            Violation(
                mechanism=Mechanism.SERIALIZATION_CERTIFIER,
                kind=ViolationKind.DANGEROUS_STRUCTURE,
                txns=tuple(sorted((dep.src, dep.dst))),
                key=dep.key,
                details=(
                    "two consecutive rw anti-dependencies between concurrent "
                    f"transactions around {dep}: the SSI certifier must have "
                    "aborted one of them"
                ),
            )
        )

    # -- first committer wins --------------------------------------------------------------

    def _check_first_committer(self, dep: Dependency) -> None:
        if self._necessarily_concurrent(dep.src, dep.dst):
            self._state.descriptor.record(
                Violation(
                    mechanism=Mechanism.SERIALIZATION_CERTIFIER,
                    kind=ViolationKind.LOST_UPDATE,
                    txns=tuple(sorted((dep.src, dep.dst))),
                    key=dep.key,
                    details=(
                        f"concurrent committed writers {dep.src} and "
                        f"{dep.dst}: the first-committer-wins certifier must "
                        "have aborted the later one"
                    ),
                )
            )

    # -- helpers --------------------------------------------------------------------------------

    def _necessarily_concurrent(self, a: str, b: str) -> bool:
        """Whether no serial order of the two transactions is feasible:
        each one's snapshot was definitely generated before the other's
        commit completed."""
        txn_a = self._state.get_txn(a)
        txn_b = self._state.get_txn(b)
        if txn_a is None or txn_b is None:
            return False
        if (
            txn_a.first_interval is None
            or txn_b.first_interval is None
            or txn_a.terminal_interval is None
            or txn_b.terminal_interval is None
        ):
            return False
        a_first = txn_a.terminal_interval.can_precede(txn_b.first_interval)
        b_first = txn_b.terminal_interval.can_precede(txn_a.first_interval)
        return not a_first and not b_first

    # -- garbage collection hook -------------------------------------------------------------------

    def on_gc(self, txn_id: str) -> None:
        self._in_crw.discard(txn_id)
        self._out_crw.discard(txn_id)
