"""The assembly and the exchange: five mechanisms in Algorithm 2's order,
one delivery line that passes each typed edge once, one seam for
subclasses."""

from __future__ import annotations

import pytest

from repro import PG_SERIALIZABLE, Trace, Verifier, pipeline_from_client_streams
from repro.core.bus import DependencyBus, VersionOrderDeriver
from repro.core.certifier import SerializationCertifier
from repro.core.dependencies import Dependency, DepType
from repro.core.mechanism import MechanismVerifier
from repro.core.metrics import NULL_REGISTRY, MetricsRegistry
from repro.core.parallel import GraphOnlyCertifier, ShardVerifier
from repro.core.report import Mechanism, report_fingerprint
from repro.core.spec import DBMS_PROFILES, IsolationLevel
from repro.core.state import VerifierState
from repro.workloads import TpcC, run_workload
from tests.test_invariance import CASES, case_run, report_key

ASSEMBLY = ["ME", "FUW", "RW-DERIVE", "CR", "SC"]


class TestAssembly:
    @pytest.mark.parametrize(
        "spec", DBMS_PROFILES.values(), ids=[f"{d}-{l.value}" for d, l in DBMS_PROFILES]
    )
    def test_five_mechanisms_in_order_for_every_profile(self, spec):
        """What varies per Fig. 1 row is the spec the five read, never
        which five are assembled or their order."""
        verifier = Verifier(spec=spec)
        assert [m.name for m in verifier.mechanisms] == ASSEMBLY
        assert isinstance(verifier.mechanisms[4], SerializationCertifier)

    def test_shard_certifies_nothing_locally(self):
        shard = ShardVerifier(spec=PG_SERIALIZABLE)
        assert [m.name for m in shard.mechanisms] == ASSEMBLY
        assert isinstance(shard.mechanisms[4], GraphOnlyCertifier)


# -- the delivery line ---------------------------------------------------------


class _Sink(MechanismVerifier):
    """Something on the delivery line that records what reaches it.  It
    inserts nothing into the graph, so the bus passes it repeats too."""

    def __init__(self, name, log, react=None):
        self.name = name
        self._log = log
        self._react = react

    def on_dependency(self, dep):
        self._log.append((self.name, dep.dep_type))
        if self._react is not None:
            self._react(dep)


def _timed_sections(metrics):
    """``{mechanism: observations}`` of the ``mechanism.seconds``
    histograms a registry holds."""
    return {
        key[len("mechanism.seconds{mechanism=") : -1]: summary["count"]
        for key, summary in metrics.snapshot()["histograms"].items()
        if key.startswith("mechanism.seconds{")
    }


def _bus_fixture(**kwargs):
    state = VerifierState()
    state.ensure_txn("t1", 0)
    state.ensure_txn("t2", 0)
    return state, DependencyBus(state, **kwargs)


def _dep(src="t1", dst="t2", dep_type=DepType.WW, key="k"):
    return Dependency(
        src=src,
        dst=dst,
        dep_type=dep_type,
        key=key,
        source=Mechanism.FIRST_UPDATER_WINS,
    )


class TestDeliveryLine:
    def test_counters_per_type_and_source(self):
        """``stats.deps_*`` always; per (mechanism, type) in the run's
        registry when there is one."""
        metrics = MetricsRegistry()
        state, bus = _bus_fixture(metrics=metrics)
        assert bus.publish(_dep(dep_type=DepType.WW))
        assert bus.publish(_dep(dep_type=DepType.WR))
        assert state.stats.deps_ww == 1
        assert state.stats.deps_wr == 1
        assert bus.metrics is metrics
        assert metrics.counters_with_name("bus.deps.accepted") == {
            "bus.deps.accepted{mechanism=FUW,type=ww}": 1,
            "bus.deps.accepted{mechanism=FUW,type=wr}": 1,
        }

    def test_zombie_endpoints_dropped(self):
        """The garbage guard covers both endpoints, and a dropped
        dependency reaches nobody -- not even the journal."""
        metrics = MetricsRegistry()
        state, bus = _bus_fixture(metrics=metrics)
        log = []
        bus.connect(
            _Sink("certifier", log),
            journal=lambda dep: log.append(("journal", dep.dep_type)),
        )
        assert not bus.publish(_dep(src="ghost"))
        assert not bus.publish(_dep(dst="ghost"))
        assert log == []
        assert state.stats.deps_ww == 0
        assert metrics.counters_with_name("bus.deps.accepted") == {}
        assert metrics.counter_value(
            "bus.deps.dropped", mechanism="FUW", type="ww"
        ) == 2

    def test_journal_then_certifier(self):
        _, bus = _bus_fixture()
        log = []
        bus.connect(
            _Sink("certifier", log),
            journal=lambda dep: log.append(("journal", dep.dep_type)),
        )
        assert bus.publish(_dep())
        assert [who for who, _ in log] == ["journal", "certifier"]

    def test_reentrant_publication_is_depth_first(self):
        """A delivery that publishes (an rw edge in reaction to a ww
        edge): the inner edge is journaled and certified before the outer
        delivery goes on."""
        _, bus = _bus_fixture()
        log = []

        def react(dep):
            if dep.dep_type is DepType.WW:
                bus.publish(_dep(dep_type=DepType.RW))
                log.append(("after", dep.dep_type))

        bus.connect(
            _Sink("certifier", log, react),
            journal=lambda dep: log.append(("journal", dep.dep_type)),
        )
        bus.publish(_dep(dep_type=DepType.WW))
        assert log == [
            ("journal", DepType.WW),
            ("certifier", DepType.WW),
            ("journal", DepType.RW),
            ("certifier", DepType.RW),
            ("after", DepType.WW),
        ]

    def test_each_typed_edge_is_delivered_once(self):
        """A repeat of a typed edge the graph holds (another key, another
        producer) reaches nobody and counts nowhere; another type on the
        same pair is a new edge; once GC prunes an endpoint, the guard
        drops the repeat."""
        metrics = MetricsRegistry()
        state, bus = _bus_fixture(metrics=metrics)
        certifier = SerializationCertifier(state, PG_SERIALIZABLE)
        journal = []
        bus.connect(certifier, journal=journal.append)
        assert bus.publish(_dep())
        assert not bus.publish(_dep(key="other"))
        assert not bus.publish(
            Dependency("t1", "t2", DepType.WW, "k", Mechanism.MUTUAL_EXCLUSION)
        )
        assert bus.publish(_dep(dep_type=DepType.WR))
        assert [(dep.dep_type, dep.key) for dep in journal] == [
            (DepType.WW, "k"), (DepType.WR, "k"),
        ]
        assert (state.stats.deps_ww, state.stats.deps_wr) == (1, 1)
        assert metrics.counters_with_name("bus.deps.accepted") == {
            "bus.deps.accepted{mechanism=FUW,type=ww}": 1,
            "bus.deps.accepted{mechanism=FUW,type=wr}": 1,
        }
        state.graph.remove_txn("t1")
        del state.txns["t1"]
        assert not bus.publish(_dep())
        assert len(journal) == 2
        assert metrics.counter_value(
            "bus.deps.dropped", mechanism="FUW", type="ww"
        ) == 1

    def test_count_stats_opt_out(self):
        state, _ = _bus_fixture()
        log = []
        quiet = DependencyBus(state, count_stats=False)
        quiet.connect(_Sink("certifier", log))
        assert quiet.publish(_dep())
        assert state.stats.deps_ww == 0
        assert log == [("certifier", DepType.WW)]

    def test_certifier_delivery_is_timed_only_when_instrumented(self):
        for metrics, timed in ((None, {}), (MetricsRegistry(), {"SC": 1})):
            _, bus = _bus_fixture(metrics=metrics)
            bus.connect(_Sink("SC", []))
            bus.publish(_dep())
            assert _timed_sections(bus.metrics) == timed


# -- extension by subclass -----------------------------------------------------


class _RecordingCertifier(SerializationCertifier):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def on_dependency(self, dep):
        self.seen.append(dep)
        super().on_dependency(dep)


class _RecordingVerifier(Verifier):
    """The documented way to change the assembly: override its two
    steps -- here a recording certifier, and a journal in front of it."""

    def __init__(self, **kwargs):
        self.journal = []
        super().__init__(**kwargs)

    def _build_certifier(self):
        return _RecordingCertifier(self.state, self.spec, metrics=self.metrics)

    def _connect_bus(self, certifier):
        self.bus.connect(certifier, journal=self.journal.append)


@pytest.fixture(scope="module")
def tpcc_run():
    return run_workload(
        TpcC(scale_factor=0.2), PG_SERIALIZABLE, clients=6, txns=300, seed=11
    )


def _verify(verifier, run):
    for batch in pipeline_from_client_streams(run.client_streams).iter_batches():
        verifier.process_batch(batch)
    return verifier.finish()


class TestExtensionBySubclass:
    def test_swapped_certifier_sees_every_dependency_in_order(self, tpcc_run):
        verifier = _RecordingVerifier(
            spec=PG_SERIALIZABLE, initial_db=tpcc_run.initial_db
        )
        stats = _verify(verifier, tpcc_run).stats
        certifier = verifier.mechanisms[4]
        assert isinstance(certifier, _RecordingCertifier)
        assert len(certifier.seen) == (
            stats.deps_wr + stats.deps_ww + stats.deps_rw + stats.deps_so
        ) > 1000
        # The journal is first on the line, so it holds publication order
        # (delivery is depth first: completion order would differ).
        assert [id(dep) for dep in certifier.seen] == [
            id(dep) for dep in verifier.journal
        ]

    def test_report_is_otherwise_unchanged(self, tpcc_run):
        plain = _verify(
            Verifier(spec=PG_SERIALIZABLE, initial_db=tpcc_run.initial_db), tpcc_run
        )
        swapped = _verify(
            _RecordingVerifier(spec=PG_SERIALIZABLE, initial_db=tpcc_run.initial_db),
            tpcc_run,
        )
        assert report_fingerprint(swapped) == report_fingerprint(plain)
        assert swapped.summary() == plain.summary()


# -- off means off, for the bus ------------------------------------------------

#: ``bus.deps.accepted`` of an instrumented serial run over ``tpcc_run``:
#: distinct typed edges, each under the mechanism that delivered it first.
#: ME runs before FUW at a terminal and deduces every ww edge FUW does
#: here, so FUW delivers none.
TPCC_ACCEPTED = {
    "bus.deps.accepted{mechanism=SC,type=so}": 99,
    "bus.deps.accepted{mechanism=SC,type=rw}": 108,
    "bus.deps.accepted{mechanism=CR,type=wr}": 510,
    "bus.deps.accepted{mechanism=ME,type=ww}": 629,
}


class TestBusOffMeansOff:
    def test_uninstrumented_run_keeps_no_bus_counters(self, tpcc_run):
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=tpcc_run.initial_db)
        report = _verify(verifier, tpcc_run)
        assert report.stats.deps_ww == 629  # the run did publish
        assert verifier.bus.metrics is NULL_REGISTRY
        assert verifier.metrics.counters_with_name("bus.deps.accepted") == {}
        assert verifier.bus._handles == {}
        assert verifier.metrics.snapshot()["histograms"] == {}

    def test_instrumented_run_prints_the_same_numbers(self, tpcc_run):
        metrics = MetricsRegistry()
        verifier = Verifier(
            spec=PG_SERIALIZABLE, initial_db=tpcc_run.initial_db, metrics=metrics
        )
        report = _verify(verifier, tpcc_run)
        assert {
            key: value
            for key, value in metrics.snapshot()["counters"].items()
            if key.startswith("bus.")
        } == TPCC_ACCEPTED
        assert report.stats.deps_total + report.stats.deps_so == sum(
            TPCC_ACCEPTED.values()
        )
        timed = _timed_sections(metrics)
        assert set(timed) == set(ASSEMBLY)
        # One observation per terminal for the four hooks and the drain;
        # SC also times every delivery to the certifier.
        terminals = report.stats.txns_committed + report.stats.txns_aborted
        assert {m: timed[m] for m in ASSEMBLY if m != "SC"} == dict.fromkeys(
            ["ME", "FUW", "RW-DERIVE", "CR"], terminals
        )
        assert timed["SC"] == terminals + report.stats.deps_total + report.stats.deps_so


# -- the Fig. 9 deriver --------------------------------------------------------


class TestFig9Deriver:
    def test_deriver_shared_with_cr(self):
        verifier = Verifier(spec=PG_SERIALIZABLE)
        _, _, deriver, cr, _ = verifier.mechanisms
        assert isinstance(deriver, VersionOrderDeriver)
        # CR's unique-match hook is wired to the deriver's batch form.
        assert cr._on_read_matches == deriver.on_read_matches

    def test_rw_derived_for_read_overwrite(self):
        # gc_every=0: keep the graph intact so the edge can be inspected
        # after finish (the final collection would prune it).
        verifier = Verifier(spec=PG_SERIALIZABLE, gc_every=0)
        # t1 installs, t2 reads it, t3 overwrites after t2's read: the
        # Fig. 9 derivation must produce rw(t2 -> t3).
        verifier.process(Trace.write(1.0, 2.0, "t1", {"a": 1}))
        verifier.process(Trace.commit(3.0, 4.0, "t1"))
        verifier.process(Trace.read(5.0, 6.0, "t2", {"a": {"v": 1}}))
        verifier.process(Trace.commit(7.0, 8.0, "t2"))
        verifier.process(Trace.write(9.0, 10.0, "t3", {"a": 2}))
        verifier.process(Trace.commit(11.0, 12.0, "t3"))
        report = verifier.finish()
        assert report.ok
        assert report.stats.deps_rw >= 1
        assert DepType.RW in verifier.state.graph.edge_types("t2", "t3")


# -- one edge, one delivery ------------------------------------------------------


class _WwTriggeredDeriver(VersionOrderDeriver):
    """The Fig. 9 deriver plus a third trigger, on the delivery line: a
    delivered ww edge between two adjacent versions makes every reader of
    the earlier one anti-depend on the later installer."""

    def on_dependency(self, dep):
        if dep.dep_type is not DepType.WW or dep.key is None:
            return
        chain = self._state.chains.get(dep.key)
        if chain is None:
            return
        versions = chain.iter_committed()
        for earlier, later in zip(versions, versions[1:]):
            if earlier.txn_id != dep.src or later.txn_id != dep.dst:
                continue
            for reader in earlier.readers or ():
                if reader not in (dep.src, dep.dst):
                    self._bus.publish(
                        Dependency(
                            reader, dep.dst, DepType.RW, dep.key,
                            Mechanism.SERIALIZATION_CERTIFIER,
                        )
                    )


class _CertifyThenDerive(MechanismVerifier):
    name = "SC"

    def __init__(self, certifier, deriver):
        self._certifier = certifier
        self._deriver = deriver

    def on_dependency(self, dep):
        self._certifier.on_dependency(dep)
        self._deriver.on_dependency(dep)


class _PublicationVerifier(_RecordingVerifier):
    """The reference exchange: every publication that survives the guard
    is delivered (the bus reads an edge-type table nothing fills), and the
    ww trigger follows the certifier on the line."""

    def _connect_bus(self, certifier):
        self.bus._edge_types = {}
        self.bus.connect(
            _CertifyThenDerive(certifier, _WwTriggeredDeriver(self.state, self.bus)),
            journal=self.journal.append,
        )


#: ME and FUW claimed (postgresql/SR), ME without FUW (innodb/RR; FUW still
#: deduces ww orders there, it reports no lost update), no lock manager
#: (tidb/SI, cockroachdb/SR), and a lock-based row with a cycle certifier
#: (sqlite/SR).
DELIVERY_ROWS = (
    ("postgresql", IsolationLevel.SERIALIZABLE),
    ("innodb", IsolationLevel.REPEATABLE_READ),
    ("tidb", IsolationLevel.SNAPSHOT_ISOLATION),
    ("cockroachdb", IsolationLevel.SERIALIZABLE),
    ("sqlite", IsolationLevel.SERIALIZABLE),
)


@pytest.fixture(scope="module")
def case_runs():
    return {name: case_run(name) for name in CASES}


def _edges(journal):
    return [(dep.src, dep.dst, dep.dep_type) for dep in journal]


class TestOneEdgeOneDelivery:
    @pytest.mark.parametrize("gc_every", [0, 512])
    @pytest.mark.parametrize(
        "row", DELIVERY_ROWS, ids=[f"{d}-{l.value}" for d, l in DELIVERY_ROWS]
    )
    def test_two_triggers_deliver_the_publications_graph_once(
        self, case_runs, row, gc_every
    ):
        """Over the clean case and every fault case: the edges delivered
        are the distinct edges the reference delivers, each once, and the
        report is the reference's."""
        for name, run in case_runs.items():
            verifiers = [
                cls(spec=DBMS_PROFILES[row], initial_db=run.initial_db, gc_every=gc_every)
                for cls in (_RecordingVerifier, _PublicationVerifier)
            ]
            once, reference = [_verify(v, run) for v in verifiers]
            edges = _edges(verifiers[0].journal)
            assert len(edges) == len(set(edges)), name
            assert set(edges) == set(_edges(verifiers[1].journal)), name
            assert report_key(once) == report_key(reference), name
            assert once.descriptor.raw_count == reference.descriptor.raw_count, name
            stats = once.stats
            assert [
                sum(dep_type is t for _, _, dep_type in edges)
                for t in (DepType.WR, DepType.WW, DepType.RW, DepType.SO)
            ] == [stats.deps_wr, stats.deps_ww, stats.deps_rw, stats.deps_so], name
