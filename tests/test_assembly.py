"""The assembly and the exchange: five mechanisms in Algorithm 2's order,
one delivery line, one seam for subclasses."""

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
from repro.core.spec import DBMS_PROFILES
from repro.core.state import VerifierState
from repro.workloads import TpcC, run_workload

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
        assert isinstance(verifier.mechanism("SC"), SerializationCertifier)

    def test_shard_certifies_nothing_locally(self):
        shard = ShardVerifier(spec=PG_SERIALIZABLE)
        assert [m.name for m in shard.mechanisms] == ASSEMBLY
        assert isinstance(shard.mechanisms[4], GraphOnlyCertifier)

    def test_mechanism_lookup(self):
        verifier = Verifier(spec=PG_SERIALIZABLE)
        assert verifier.mechanism("CR").name == "CR"
        with pytest.raises(KeyError):
            verifier.mechanism("nope")


# -- the delivery line ---------------------------------------------------------


class _Sink(MechanismVerifier):
    """Something on the delivery line that records what reaches it."""

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
        assert bus.counts == {"FUW": {"ww": 1, "wr": 1}}

    def test_zombie_endpoints_dropped(self):
        """The garbage guard covers both endpoints, and a dropped
        dependency reaches nobody -- not even the journal."""
        metrics = MetricsRegistry()
        state, bus = _bus_fixture(metrics=metrics)
        log = []
        bus.connect(
            _Sink("certifier", log),
            _Sink("deriver", log),
            journal=lambda dep: log.append(("journal", dep.dep_type)),
        )
        assert not bus.publish(_dep(src="ghost"))
        assert not bus.publish(_dep(dst="ghost"))
        assert log == []
        assert state.stats.deps_ww == 0
        assert bus.counts == {}
        assert metrics.counter_value(
            "bus.deps.dropped", mechanism="FUW", type="ww"
        ) == 2

    def test_journal_then_certifier_then_deriver(self):
        _, bus = _bus_fixture()
        log = []
        bus.connect(
            _Sink("certifier", log),
            _Sink("deriver", log),
            journal=lambda dep: log.append(("journal", dep.dep_type)),
        )
        assert bus.publish(_dep())
        assert [who for who, _ in log] == ["journal", "certifier", "deriver"]

    def test_reentrant_publication_is_depth_first(self):
        """The deriver reacting to a ww edge publishes an rw edge: it is
        journaled, certified and derived from before the outer publication
        returns."""
        _, bus = _bus_fixture()
        log = []

        def react(dep):
            if dep.dep_type is DepType.WW:
                bus.publish(_dep(dep_type=DepType.RW))

        bus.connect(
            _Sink("certifier", log),
            _Sink("deriver", log, react),
            journal=lambda dep: log.append(("journal", dep.dep_type)),
        )
        bus.publish(_dep(dep_type=DepType.WW))
        assert log == [
            ("journal", DepType.WW),
            ("certifier", DepType.WW),
            ("deriver", DepType.WW),
            ("journal", DepType.RW),
            ("certifier", DepType.RW),
            ("deriver", DepType.RW),
        ]

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
            bus.connect(_Sink("SC", []), _Sink("RW-DERIVE", []))
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

    def _connect_bus(self, certifier, deriver):
        self.bus.connect(certifier, deriver, journal=self.journal.append)


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
        certifier = verifier.mechanism("SC")
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

#: ``bus.counts`` of an instrumented serial run over ``tpcc_run``, as the
#: commit before the bus lost its private registry printed it.
TPCC_ACCEPTED = {
    "SC": {"so": 99, "rw": 463},
    "CR": {"wr": 849},
    "ME": {"ww": 1080},
    "FUW": {"ww": 1080},
}


class TestBusOffMeansOff:
    def test_uninstrumented_run_keeps_no_bus_counters(self, tpcc_run):
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=tpcc_run.initial_db)
        report = _verify(verifier, tpcc_run)
        assert report.stats.deps_ww == 2 * 1080  # the run did publish
        assert verifier.bus.metrics is NULL_REGISTRY
        assert verifier.bus.counts == {}
        assert verifier.bus._handles == {}
        assert verifier.metrics.snapshot()["histograms"] == {}

    def test_instrumented_run_prints_the_same_numbers(self, tpcc_run):
        metrics = MetricsRegistry()
        verifier = Verifier(
            spec=PG_SERIALIZABLE, initial_db=tpcc_run.initial_db, metrics=metrics
        )
        report = _verify(verifier, tpcc_run)
        assert verifier.bus.counts == TPCC_ACCEPTED
        assert {
            key for key in metrics.snapshot()["counters"] if key.startswith("bus.")
        } == {
            f"bus.deps.accepted{{mechanism={mechanism},type={dep_type}}}"
            for mechanism, types in TPCC_ACCEPTED.items()
            for dep_type in types
        }
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
        deriver = verifier.mechanism("RW-DERIVE")
        assert isinstance(deriver, VersionOrderDeriver)
        # CR's unique-match hook is wired to the deriver's batch form.
        cr = verifier.mechanism("CR")
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

    def test_ww_edges_derive_rw_per_adjacent_pair_in_chain_order(self):
        """A deduced ww edge confirms a version adjacency: every reader of
        the earlier version anti-depends on the later installer.  Two ww
        edges on one key, three readers: publications follow chain order,
        then the version's reader set; a ww edge between non-adjacent
        versions, a reader that is the overwriter itself and a keyless
        edge derive nothing."""
        from repro.core.intervals import Interval

        state = VerifierState()
        for txn_id in ("a", "b", "c", "r1", "r2", "r3"):
            state.ensure_txn(txn_id, 0)
        bus = DependencyBus(state)
        deriver = VersionOrderDeriver(state, bus)
        chain = state.chain("k")
        # Overlapping commits: nothing but a ww edge orders them.
        for at, txn_id in enumerate(("a", "b", "c")):
            chain.stage_write(txn_id, {"v": txn_id}, Interval(at, at + 1))
            chain.commit_txn(txn_id, Interval(10 + at, 20 + at))
        by_a, by_b, _ = chain.committed_versions()
        # A version's reader set is created by its first reader.
        by_a.readers = {"r1", "r2", "b"}
        by_b.readers = {"r3"}
        derived = []
        bus.connect(
            _Sink("certifier", []),
            journal=lambda dep: derived.append(
                (dep.src, dep.dep_type, dep.dst, dep.key)
            ),
        )

        deriver.on_dependency(_dep("a", "c"))           # not adjacent
        deriver.on_dependency(_dep("a", "b", key=None))  # no key
        deriver.on_dependency(_dep("a", "b", dep_type=DepType.WR))
        assert derived == []
        deriver.on_dependency(_dep("a", "b"))
        deriver.on_dependency(_dep("b", "c"))
        assert derived == [
            (reader, DepType.RW, "b", "k") for reader in by_a.readers if reader != "b"
        ] + [("r3", DepType.RW, "c", "k")]
        assert len(derived) == 3
