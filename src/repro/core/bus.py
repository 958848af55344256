"""Dependency-exchange bus (Section V-A, Fig. 9).

The four mechanisms continuously exchange the dependencies they deduce:
CR produces ``wr``, ME/FUW produce ``ww``, and ``rw`` anti-dependencies are
derived from the two (Fig. 9); everything flows into the serialization
certifier.  The :class:`DependencyBus` is the single choke point of that
exchange:

* **guard** -- dependencies whose endpoints were already pruned as garbage
  (Definition 4) are dropped at publication: by Theorem 5 they cannot join
  any future cycle, and inserting them would resurrect zombie graph nodes;
* **one delivery per edge** -- a dependency whose ``(src, dst)`` pair
  already carries its type in the graph is a repeat (ME and FUW deduce the
  same ww edges on a spec claiming both; the Fig. 9 triggers meet on the
  same rw edges) and is dropped too: the graph's edge-type table, which
  the certifier fills, answers "is this a new dependency?";
* **counters** -- accepted dependencies are tallied per type in the
  ``deps_*`` fields of :class:`~repro.core.report.VerificationStats`, and,
  on an instrumented run only, per producing mechanism and edge type in the
  run's :class:`~repro.core.metrics.MetricsRegistry` (``bus.deps.accepted``
  / ``bus.deps.dropped``), so both count distinct typed edges;
* **one delivery line** -- fixed once, at assembly
  (:meth:`DependencyBus.connect`): a shard's journal (if any), then the
  certifier.  A re-entrant publication from inside a delivery is fully
  processed before the outer one returns.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from .dependencies import Dependency, DepType
from .mechanism import MechanismVerifier
from .metrics import NULL_REGISTRY, MetricsRegistry
from .report import Mechanism
from .trace import INIT_TXN
from .versions import Version

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .state import VerifierState

DeliverFn = Callable[[Dependency], None]


def _deliver_nowhere(dep: Dependency) -> None:
    """The delivery line of a bus nothing was connected to."""


class DependencyBus:
    """Single choke point for the inter-mechanism dependency exchange."""

    def __init__(
        self,
        state: "VerifierState",
        count_stats: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self._state = state
        #: direct references to the graph's node table (its order map) and
        #: the transaction table: the garbage guard runs four membership
        #: tests per published dependency, and dict containment is C-level
        #: where the graph's ``__contains__`` is a Python call.  Both
        #: structures are mutated in place only, so the references stay
        #: valid for the bus lifetime.
        self._graph_nodes = state.graph._ord
        self._txns = state.txns
        #: the graph's ``(src, dst) -> {types}`` table (same lifetime): a
        #: dependency already in it is a repeat.  GC prunes it with the
        #: graph, so the test costs no memory of its own.
        self._edge_types = state.graph._edge_types
        #: whether accepted dependencies update ``state.stats.deps_*``
        #: (the merge path of the parallel verifier re-publishes already
        #: counted dependencies and disables this).
        self._count_stats = count_stats
        #: the delivery line (:meth:`connect`).
        self._deliver: DeliverFn = _deliver_nowhere
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        #: whether the run is instrumented: only then does a publication
        #: touch a counter or the certifier's delivery read a clock.
        self._metered = self.metrics.enabled
        #: counter handles resolved once per (metric, mechanism, type).
        #: Keyed by ``(metric, id(mechanism), id(type))``: enum members are
        #: process singletons, and identity keys hash at C level where enum
        #: ``__hash__`` is a Python call.
        self._handles: Dict[Tuple[str, int, int], object] = {}

    # -- wiring ------------------------------------------------------------

    def connect(
        self, certifier: MechanismVerifier, journal: Optional[DeliverFn] = None
    ) -> None:
        """Fix the delivery line: ``journal`` (a shard's record of what its
        bus accepted), then the certifier.  On an instrumented run the
        certifier's delivery is timed into
        ``mechanism.seconds{mechanism=<certifier.name>}``."""
        certify = certifier.on_dependency
        if self._metered:
            certify = self._timed(
                self.metrics.histogram("mechanism.seconds", mechanism=certifier.name),
                certify,
            )
        if journal is None:
            self._deliver = certify
            return

        def journal_then_certify(dep: Dependency) -> None:
            journal(dep)
            certify(dep)

        self._deliver = journal_then_certify

    @staticmethod
    def _timed(hist, callback: DeliverFn) -> DeliverFn:
        def deliver_timed(dep: Dependency) -> None:
            start = time.perf_counter()
            try:
                callback(dep)
            finally:
                hist.observe(time.perf_counter() - start)

        return deliver_timed

    # -- registry-backed counters ------------------------------------------

    def _count(self, metric: str, dep: Dependency) -> None:
        """Bump ``<metric>{mechanism=...,type=...}`` (instrumented runs
        only), caching the counter handle per (metric, mechanism, type)."""
        key = (metric, id(dep.source), id(dep.dep_type))
        handle = self._handles.get(key)
        if handle is None:
            source = dep.source.value if dep.source is not None else "?"
            handle = self._handles[key] = self.metrics.counter(
                metric, mechanism=source, type=dep.dep_type.value
            )
        handle.value += 1

    # -- publication -------------------------------------------------------

    def publish(self, dep: Dependency) -> bool:
        """Publish one dependency with immediate (depth-first) delivery.

        Re-entrant publications from inside a delivery are fully
        processed before the outer publication returns -- the exchange
        semantics of Section V-A.  Returns whether the dependency was
        delivered: it survived the garbage guard and is not a repeat of a
        typed edge the graph already holds.
        """
        nodes = self._graph_nodes
        txns = self._txns
        src = dep.src
        dst = dep.dst
        if (src not in nodes and src not in txns) or (
            dst not in nodes and dst not in txns
        ):
            if self._metered:
                self._count("bus.deps.dropped", dep)
            return False
        dep_type = dep.dep_type
        types = self._edge_types.get((src, dst))
        if types is not None and dep_type in types:
            return False
        if self._count_stats:
            stats = self._state.stats
            if dep_type is DepType.WR:
                stats.deps_wr += 1
            elif dep_type is DepType.WW:
                stats.deps_ww += 1
            elif dep_type is DepType.SO:
                stats.deps_so += 1
            else:
                stats.deps_rw += 1
        if self._metered:
            self._count("bus.deps.accepted", dep)
        self._deliver(dep)
        return True

    def publish_many(self, deps) -> int:
        """Publish dependencies in order (the parallel merge replay hands
        over whole deduction groups); returns how many were delivered."""
        return sum(map(self.publish, deps))


class VersionOrderDeriver(MechanismVerifier):
    """Fig. 9: derive ``rw`` anti-dependencies from reads and ``ww`` edges.

    Two triggers derive every rw edge: a reader uniquely matched to a
    version anti-depends on the version's confirmed successor
    (:meth:`on_read_matches`, fed by CR), and a commit that installs a
    version whose predecessor is now confirmed makes the predecessor's
    readers anti-depend on it (:meth:`on_terminal`).  A deduced ww edge
    needs no trigger of its own.  ME and FUW publish it at the terminal of
    the later of its two transactions, before this hook runs.  If that
    transaction wrote the later version, the terminal hook derives the
    edge's rw edges from the now-confirmed predecessor.  Otherwise the
    earlier version was installed by this very terminal: it has no readers
    yet, and its later readers derive their rw edges on matching.

    Assembled between FUW and CR so that newly confirmed version
    adjacencies are materialised as anti-dependencies before the CR checks
    of the same terminal trace run -- the order the exchange of Section V-A
    prescribes.  The deriver is not one of the paper's four mechanisms; it
    is the exchange rule connecting them, so it owns no verifier state and
    is not on the bus's delivery line, and its only timed section is the
    drain of CR's matches (``mechanism.seconds{mechanism=RW-DERIVE}``).
    """

    name = "RW-DERIVE"

    def __init__(self, state: "VerifierState", bus: DependencyBus):
        self._state = state
        self._bus = bus
        #: the bus guard's endpoint tables.  A version outlives its
        #: installer's metadata, and an edge with a pruned endpoint is
        #: dropped by the guard anyway (Theorem 5), so :meth:`on_read_matches`
        #: tests the installer's liveness *before* constructing the
        #: dependency -- same outcome, no allocation or publication for
        #: edges that cannot survive.  Readers need no such test: metadata
        #: GC takes a transaction out of the reader sets it joined in the
        #: step that retires it (``TxnState.matched_versions``).
        self._graph_nodes = bus._graph_nodes
        self._txns = bus._txns

    def _live(self, txn_id: str) -> bool:
        return txn_id in self._graph_nodes or txn_id in self._txns

    # -- confirmation oracle ----------------------------------------------

    def _order_confirmed(self, earlier: Version, later: Version) -> bool:
        """Whether the chain adjacency ``earlier -> later`` reflects a
        certain installation order: non-overlapping installation intervals,
        or a deduced ww dependency between the installers."""
        if earlier.effective_install.precedes(later.effective_install):
            return True
        return self._state.ww_order(earlier, later) is True

    # -- CR hook: reads were uniquely matched to versions -------------------

    def on_read_matches(self, matches) -> None:
        """For each ``(version, reader)`` pair, in order: record the
        reader, emit the wr dependency, and derive the rw anti-dependency
        towards the version's confirmed successor.  The rw derivation also
        applies to reads of the initial database state, which produce no wr
        edge but still anti-depend on the first overwriter.  CR hands over
        one finished transaction's matches per call."""
        txns = self._txns
        nodes = self._graph_nodes
        chains_get = self._state.chains.get
        publish = self._bus.publish
        wr = DepType.WR
        deduced_by = Mechanism.CONSISTENT_READ
        for version, reader in matches:
            readers = version.readers
            if readers is None:
                version.readers = {reader}
            else:
                readers.add(reader)
            txns[reader].matched_versions.append(version)
            installer = version.txn_id
            key = version.key
            if installer != INIT_TXN and (installer in nodes or installer in txns):
                publish(Dependency(installer, reader, wr, key, deduced_by))
            chain = chains_get(key)
            if chain is None or chain.iter_committed()[-1] is version:
                # The version is its chain's tail: nothing overwrote it yet.
                continue
            successor = chain.successor_of(version)
            if (
                successor.txn_id != reader
                and self._live(successor.txn_id)
                and self._order_confirmed(version, successor)
            ):
                publish(
                    Dependency(
                        src=reader,
                        dst=successor.txn_id,
                        dep_type=DepType.RW,
                        key=key,
                        source=Mechanism.SERIALIZATION_CERTIFIER,
                    )
                )

    def on_read_match(self, version: Version, reader: str) -> None:
        """One unique match: a batch of one."""
        self.on_read_matches(((version, reader),))

    # -- terminal hook: versions installed by a commit -----------------------

    def on_terminal(self, txn, trace, installed) -> None:
        """When versions land in their chains at commit, readers of each
        now-confirmed predecessor anti-depend on the installer."""
        if not txn.committed:
            return
        for version in installed:
            chain = self._state.chains.get(version.key)
            if chain is None:
                continue
            predecessor = chain.predecessor_of(version)
            if (
                predecessor is None
                or predecessor.readers is None
                or not self._order_confirmed(predecessor, version)
            ):
                continue
            for reader in predecessor.readers:
                if reader == version.txn_id:
                    continue
                self._bus.publish(
                    Dependency(
                        src=reader,
                        dst=version.txn_id,
                        dep_type=DepType.RW,
                        key=version.key,
                        source=Mechanism.SERIALIZATION_CERTIFIER,
                    )
                )
