"""The mechanism plugin layer and the dependency-exchange bus."""

from __future__ import annotations

import pytest

from repro import PG_SERIALIZABLE, Trace, Verifier
from repro.core.bus import DependencyBus, VersionOrderDeriver
from repro.core.dependencies import Dependency, DepType
from repro.core.mechanism import (
    MechanismVerifier,
    register_mechanism,
    registered_mechanisms,
    unregister_mechanism,
)
from repro.core.report import Mechanism
from repro.core.state import VerifierState


class TestRegistry:
    def test_builtin_assembly_in_dispatch_order(self):
        names = registered_mechanisms()
        assert names == ["ME", "FUW", "RW-DERIVE", "CR", "SC"]

    def test_verifier_builds_from_registry(self):
        verifier = Verifier(spec=PG_SERIALIZABLE)
        assert [m.name for m in verifier.mechanisms] == registered_mechanisms()

    def test_mechanism_lookup(self):
        verifier = Verifier(spec=PG_SERIALIZABLE)
        assert verifier.mechanism("CR").name == "CR"
        with pytest.raises(KeyError):
            verifier.mechanism("nope")

    def test_custom_mechanism_plugs_in(self):
        events = []

        @register_mechanism("TEST-AUDIT", order=45)
        class AuditMechanism(MechanismVerifier):
            name = "TEST-AUDIT"
            subscribes = True
            timed = False

            def __init__(self, ctx):
                pass

            def on_terminal(self, txn, trace, installed):
                events.append(("terminal", txn.txn_id))

            def on_dependency(self, dep):
                events.append(("dep", dep.dep_type))

        try:
            verifier = Verifier(spec=PG_SERIALIZABLE)
            assert "TEST-AUDIT" in [m.name for m in verifier.mechanisms]
            verifier.process(Trace.write(1.0, 2.0, "t1", {"a": 1}))
            verifier.process(Trace.commit(3.0, 4.0, "t1"))
            verifier.process(Trace.read(5.0, 6.0, "t2", {"a": {"v": 1}}))
            verifier.process(Trace.commit(7.0, 8.0, "t2"))
            verifier.finish()
        finally:
            unregister_mechanism("TEST-AUDIT")
        assert ("terminal", "t1") in events
        # Subscribed: saw the wr dependency CR deduced for t2's read.
        assert ("dep", DepType.WR) in events

    def test_applies_predicate_gates_assembly(self):
        @register_mechanism(
            "TEST-NEVER", order=99, applies=lambda spec: False
        )
        class NeverMechanism(MechanismVerifier):
            name = "TEST-NEVER"

            def __init__(self, ctx):
                pass

        try:
            verifier = Verifier(spec=PG_SERIALIZABLE)
            assert "TEST-NEVER" not in [m.name for m in verifier.mechanisms]
        finally:
            unregister_mechanism("TEST-NEVER")

    def test_unknown_override_rejected(self):
        with pytest.raises(KeyError, match="unregistered"):
            Verifier(
                spec=PG_SERIALIZABLE,
                mechanism_overrides={"NOPE": lambda ctx: None},
            )

    def test_override_swaps_factory(self):
        class NullCertifier(MechanismVerifier):
            name = "SC"
            subscribes = True

            def on_dependency(self, dep):
                pass

        verifier = Verifier(
            spec=PG_SERIALIZABLE,
            mechanism_overrides={"SC": lambda ctx: NullCertifier()},
        )
        assert isinstance(verifier.mechanism("SC"), NullCertifier)


def _bus_fixture():
    state = VerifierState()
    state.ensure_txn("t1", 0)
    state.ensure_txn("t2", 0)
    return state, DependencyBus(state)


def _dep(src="t1", dst="t2", dep_type=DepType.WW, key="k"):
    return Dependency(
        src=src,
        dst=dst,
        dep_type=dep_type,
        key=key,
        source=Mechanism.FIRST_UPDATER_WINS,
    )


class TestDependencyBus:
    def test_counters_per_type_and_source(self):
        state, bus = _bus_fixture()
        assert bus.publish(_dep(dep_type=DepType.WW))
        assert bus.publish(_dep(dep_type=DepType.WR))
        assert state.stats.deps_ww == 1
        assert state.stats.deps_wr == 1
        assert bus.accepted == 2
        assert bus.counts["FUW"] == {"ww": 1, "wr": 1}

    def test_zombie_endpoints_dropped(self):
        state, bus = _bus_fixture()
        delivered = []
        bus.subscribe("sink", delivered.append)
        assert not bus.publish(_dep(src="ghost"))
        assert bus.dropped == 1
        assert delivered == []
        assert state.stats.deps_ww == 0

    def test_delivery_priority_order(self):
        _, bus = _bus_fixture()
        order = []
        bus.subscribe("late", lambda dep: order.append("late"), priority=10)
        bus.subscribe("early", lambda dep: order.append("early"), priority=0)
        bus.publish(_dep())
        assert order == ["early", "late"]

    def test_reentrant_publication_is_depth_first(self):
        _, bus = _bus_fixture()
        seen = []

        def chain(dep):
            seen.append(dep.dep_type)
            if dep.dep_type is DepType.WW:
                bus.publish(_dep(dep_type=DepType.RW))

        bus.subscribe("chain", chain)
        bus.publish(_dep(dep_type=DepType.WW))
        assert seen == [DepType.WW, DepType.RW]

    def test_taps_observe_accepted_only(self):
        _, bus = _bus_fixture()
        tapped = []
        bus.tap(tapped.append)
        bus.publish(_dep())
        bus.publish(_dep(src="ghost"))
        assert len(tapped) == 1

    def test_count_stats_opt_out(self):
        state, bus_state = _bus_fixture()
        quiet = DependencyBus(state, count_stats=False)
        quiet.publish(_dep())
        assert state.stats.deps_ww == 0
        assert quiet.accepted == 1


class TestVersionOrderDeriver:
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
        by_a.readers.update(("r1", "r2", "b"))
        by_b.readers.add("r3")
        derived = []
        bus.tap(lambda dep: derived.append((dep.src, dep.dep_type, dep.dst, dep.key)))

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
