"""Every collection against the sweeps (``tests/gc_oracle.py``).

The indexed collector -- frontier worklist, version prefixes, terminal heap
retiring metadata and locks together -- must retire, at every collection
of every in-process backend, exactly the structures the exhaustive sweeps
retire: same sets, same ``gc_*`` stats, same ``live_structure_count()``.
Hypothesis drives it with simulated-DBMS histories (aborts, hot keys,
out-of-order commits, S-to-X upgrades under lock-based profiles) and with
histories on an integer time grid, where tied after-timestamps,
pivot-overlap chains and zero-width intervals are the common case rather
than the exception.  Hand-built histories pin each special case, and two
mutants show the comparison has teeth.
"""

import inspect
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro import PG_SERIALIZABLE, Trace, Verifier
from repro.core.gc import GarbageCollector
from repro.core.locktable import LockTable
from repro.core.online import OnlineVerifier
from repro.core.parallel import ParallelVerifier
from repro.core.pipeline import pipeline_from_client_streams
from repro.core.spec import (
    IsolationLevel,
    PG_READ_COMMITTED,
    PG_REPEATABLE_READ,
    profile,
)
from repro.core.versions import VersionChain
from repro.workloads import BlindW, SmallBank, TpcC, run_workload

from tests import gc_oracle

#: pure two-phase locking: reads take shared locks, so read-then-write is
#: an S-to-X upgrade (two entries of one owner on one key).
INNODB_SR = profile("innodb", IsolationLevel.SERIALIZABLE)
#: no lock manager claimed: acquisitions are mirrored, never released.
NO_LOCKS = PG_SERIALIZABLE.without("ME")
SPECS = [PG_SERIALIZABLE, PG_REPEATABLE_READ, PG_READ_COMMITTED, INNODB_SR, NO_LOCKS]

WORKLOADS = [
    lambda: BlindW.rw(keys=8),  # hot keys: aborts, long lock chains
    lambda: BlindW.rw(keys=64),
    lambda: BlindW.rw_plus(keys=16),
    lambda: SmallBank(scale_factor=0.02),
    lambda: TpcC(scale_factor=1),  # partial-column writes, hot rows
]


# -- the three in-process ways to run a history ------------------------------------


def run_serial(streams, spec, initial_db, gc_every):
    verifier = Verifier(spec=spec, initial_db=initial_db, gc_every=gc_every)
    for batch in pipeline_from_client_streams(streams).iter_batches():
        verifier.process_batch(batch)
    return verifier.finish()


def run_sharded(streams, spec, initial_db, gc_every):
    """Two inline shards (a collector each) plus the merge replay's
    collector, which prunes at coordinator-supplied horizons."""
    verifier = ParallelVerifier(
        spec=spec,
        initial_db=initial_db,
        shards=2,
        backend="inline",
        gc_every=gc_every,
        segment_events=16,
    )
    for batch in pipeline_from_client_streams(streams).iter_batches():
        verifier.process_batch(batch)
    return verifier.finish()


def run_online(streams, spec, initial_db, gc_every):
    online = OnlineVerifier(spec=spec, initial_db=initial_db, gc_every=gc_every)
    for client_id in streams:
        online.register_client(client_id)
    cursors = {client_id: 0 for client_id in streams}
    while cursors:
        for client_id in list(cursors):
            lo = cursors[client_id]
            frame = streams[client_id][lo : lo + 7]
            if not frame:
                del cursors[client_id]
                continue
            online.feed_batch(client_id, frame)
            cursors[client_id] = lo + 7
    return online.finish()


BACKENDS = {"serial": run_serial, "inline-2": run_sharded, "online": run_online}


def check_history(backend, streams, spec, initial_db, gc_every):
    with gc_oracle.checked() as totals:
        BACKENDS[backend](streams, spec, initial_db, gc_every)
    return totals[0]


# -- simulated-DBMS histories ----------------------------------------------------


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(max_examples=30, deadline=None)
@given(
    workload=st.sampled_from(range(len(WORKLOADS))),
    spec=st.sampled_from(range(len(SPECS))),
    clients=st.integers(2, 8),
    seed=st.integers(0, 2**16),
    gc_every=st.sampled_from([5, 16, 64]),
)
def test_dbsim_histories(backend, workload, spec, clients, seed, gc_every):
    run = run_workload(
        WORKLOADS[workload](), SPECS[spec], clients=clients, txns=60, seed=seed
    )
    streams = {c: list(s) for c, s in run.client_streams.items()}
    retired = check_history(
        backend, streams, SPECS[spec], run.initial_db, gc_every
    )
    assert retired.collections


def test_dbsim_histories_reach_every_rule(monkeypatch):
    """The generator above is not vacuous: one fixed draw per profile
    retires transactions, versions, locks and metadata, the lock-based one
    through upgraded owners."""
    upgrades = []
    plain = LockTable.drop_owner

    def drop_owner(table, txn_id):
        keys = [e.key for e in table.entries_of(txn_id)]
        upgrades.append(len(keys) - len(set(keys)))
        return plain(table, txn_id)

    monkeypatch.setattr(LockTable, "drop_owner", drop_owner)
    draws = [
        (BlindW.rw(keys=8), PG_SERIALIZABLE),
        # read-modify-write under shared read locks: S-to-X upgrades.
        (SmallBank(scale_factor=0.02), INNODB_SR),
    ]
    for workload, spec in draws:
        run = run_workload(workload, spec, clients=6, txns=120, seed=3)
        streams = {c: list(s) for c, s in run.client_streams.items()}
        retired = check_history("serial", streams, spec, run.initial_db, 16)
        assert min(retired) > 0, retired
    assert any(upgrades)


# -- integer-grid histories --------------------------------------------------------

GRID_KEYS = ["a", "b", "c"]


@st.composite
def grid_streams(draw):
    """Per-client monotone streams on an integer grid: widths 0..3, so
    intervals tie, touch and overlap constantly; some transactions abort,
    some never terminate (they pin the horizon)."""
    clients = draw(st.integers(1, 4))
    clock = [0] * clients
    streams = {client: [] for client in range(clients)}
    op = st.tuples(st.sampled_from("rwu"), st.sampled_from(GRID_KEYS), st.integers(0, 3))
    for index in range(draw(st.integers(2, 16))):
        client = draw(st.integers(0, clients - 1))
        txn_id = f"g{index}"
        t = clock[client] + draw(st.integers(0, 2))
        ops = draw(st.lists(op, min_size=1, max_size=3))
        for position, (kind, key, width) in enumerate(ops):
            if kind == "w":
                trace = Trace.write(
                    t, t + width, txn_id, {key: index},
                    client_id=client, op_index=position,
                )
            else:
                trace = Trace.read(
                    t, t + width, txn_id, {key: 0}, client_id=client,
                    op_index=position, for_update=kind == "u",
                )
            streams[client].append(trace)
            t += width + draw(st.integers(0, 1))
        fate = draw(st.sampled_from(["commit", "commit", "commit", "abort", "open"]))
        if fate != "open":
            end = Trace.commit if fate == "commit" else Trace.abort
            width = draw(st.integers(0, 3))
            streams[client].append(
                end(t, t + width, txn_id, client_id=client, op_index=len(ops))
            )
            t += width
        clock[client] = t
    return streams


GRID_INITIAL = {"a": {"v": 0}, "b": {"v": 0}}  # "c" has no initial image


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(max_examples=150, deadline=None)
@given(
    streams=grid_streams(),
    spec=st.sampled_from([PG_SERIALIZABLE, INNODB_SR]),
    gc_every=st.integers(1, 6),
)
def test_grid_histories(backend, streams, spec, gc_every):
    check_history(backend, streams, spec, GRID_INITIAL, gc_every)


# -- each special case, by hand ------------------------------------------------------


def writer(txn_id, key, write, commit, client_id=0):
    return [
        Trace.write(*write, txn_id, {key: txn_id}, client_id=client_id),
        Trace.commit(*commit, txn_id, client_id=client_id, op_index=1),
    ]


def advance(to, client_id=9):
    """A late, unrelated transaction that moves the horizon past ``to``."""
    return writer(f"late{to}", "elsewhere", (to, to + 1), (to + 2, to + 3), client_id)


def collect_serially(monkeypatch, traces, spec=PG_SERIALIZABLE, initial_db=None):
    """One collection at the end of the stream, checked; returns the
    verifier and how often the general version prune ran."""
    general = []
    plain = VersionChain.prune_garbage

    def prune_garbage(chain, horizon, can_prune_txn):
        general.append(plain(chain, horizon, can_prune_txn))
        return general[-1]

    monkeypatch.setattr(VersionChain, "prune_garbage", prune_garbage)
    verifier = Verifier(spec=spec, initial_db=initial_db, gc_every=10**9)
    for trace in sorted(traces, key=Trace.sort_key):
        verifier.process(trace)
    with gc_oracle.checked() as totals:
        verifier.finish()
    return verifier, totals[0], general


class TestSpecialCases:
    def test_steady_state_prefix(self, monkeypatch):
        """Three versions installed one after another: the two under the
        pivot leave as one slice, without the general path."""
        traces = (
            writer("t1", "x", (0, 1), (2, 3))
            + writer("t2", "x", (10, 11), (12, 13))
            + writer("t3", "x", (20, 21), (22, 23))
            + advance(100)
        )
        verifier, retired, general = collect_serially(monkeypatch, traces)
        assert retired.versions == 2 and not general
        assert [v.txn_id for v in verifier.state.chains["x"].committed_versions()] == ["t3"]

    def test_initial_image_version_is_garbage_too(self, monkeypatch):
        traces = writer("t1", "x", (0, 1), (2, 3)) + advance(100)
        verifier, retired, general = collect_serially(
            monkeypatch, traces, initial_db={"x": {"v": 0}}
        )
        assert retired.versions == 1 and not general
        assert verifier.state.chains["x"].committed_versions()[0].txn_id == "t1"

    def test_pivot_overlap_takes_the_general_path(self, monkeypatch):
        """t2's commit interval overlaps the pivot's (t3): only t1 is
        garbage, and the slice rule must not fire."""
        traces = (
            writer("t1", "x", (0, 1), (2, 3))
            + writer("t2", "x", (10, 11), (12, 20), client_id=1)
            + writer("t3", "x", (14, 15), (16, 21), client_id=2)
            + advance(100)
        )
        verifier, retired, general = collect_serially(monkeypatch, traces)
        assert retired.versions == 1 and general == [1]
        assert len(verifier.state.chains["x"]) == 2

    def test_tied_after_timestamps_take_the_general_path(self, monkeypatch):
        """Two zero-width commits at the same instant tie the pivot's
        after-timestamp; the later-staged one is the pivot."""
        traces = (
            writer("t1", "x", (0, 1), (2, 3))
            + writer("t2", "x", (10, 11), (20, 20), client_id=1)
            + writer("t3", "x", (12, 13), (20, 20), client_id=2)
            + advance(100)
        )
        _, retired, general = collect_serially(monkeypatch, traces)
        assert general and retired.versions == sum(general)

    def test_pinned_owner_under_the_pivot(self, monkeypatch):
        """A garbage-classified version whose installer still has a node
        in the graph stays; the rest of the prefix goes, by the general
        path."""
        traces = (
            writer("t1", "x", (0, 1), (2, 3))
            + writer("t2", "x", (10, 11), (12, 13))
            + writer("t3", "x", (20, 21), (22, 23))
            + advance(100)
        )
        verifier = Verifier(spec=PG_SERIALIZABLE, gc_every=10**9)
        for trace in sorted(traces, key=Trace.sort_key):
            verifier.process(trace)
        state = verifier.state
        # Pin t2: an open transaction precedes it in the graph.
        state.graph.add_txn("pin")
        state.ensure_txn("pin", client_id=7)
        from repro.core.dependencies import Dependency, DepType

        state.graph.add_dependency(Dependency("pin", "t2", DepType.WW))
        collector = GarbageCollector(state)
        retired = gc_oracle.check_collection(
            collector, GarbageCollector.collect, horizon_ts=50.0
        )
        assert retired.versions == 1
        assert [v.txn_id for v in state.chains["x"].committed_versions()] == ["t2", "t3"]

    def test_upgraded_owner_leaves_with_both_entries(self, monkeypatch):
        traces = [
            Trace.read(0, 1, "t1", {"x": 0}),
            Trace.write(2, 3, "t1", {"x": 1}, op_index=1),
            Trace.commit(4, 5, "t1", op_index=2),
            Trace.read(6, 7, "t2", {"x": 1}, client_id=1),
            Trace.commit(8, 9, "t2", client_id=1, op_index=1),
        ] + advance(100)
        verifier = Verifier(spec=INNODB_SR, initial_db={"x": {"v": 0}}, gc_every=10**9)
        for trace in sorted(traces, key=Trace.sort_key):
            verifier.process(trace)
        assert len(verifier.state.locks.entries_of("t1")) == 2
        with gc_oracle.checked() as totals:
            verifier.finish()
        assert totals[0].locks >= 3
        assert verifier.state.locks.entries_for("x") == []

    def test_unreleased_locks_stay_when_the_owner_goes(self, monkeypatch):
        """A spec that claims no lock manager mirrors acquisitions only:
        the entries are never released, so never garbage."""
        traces = writer("t1", "x", (0, 1), (2, 3)) + advance(100)
        verifier, retired, _ = collect_serially(monkeypatch, traces, spec=NO_LOCKS)
        state = verifier.state
        assert "t1" not in state.txns and retired.metadata
        assert [e.txn_id for e in state.locks.entries_for("x")] == ["t1"]
        assert state.locks.entries_of("t1") and retired.locks == 0


# -- the comparison has teeth ----------------------------------------------------------


def mutant(function, old, new):
    """``function`` recompiled with one source fragment replaced."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[function.__name__]


class TestMutants:
    def test_prefix_rule_without_the_overlap_test(self, monkeypatch):
        """Slicing under the pivot without asking whether its neighbour
        overlaps it retires a version a live snapshot could still read."""
        monkeypatch.setattr(
            GarbageCollector,
            "_prune_versions",
            mutant(
                GarbageCollector._prune_versions,
                "if below <= pivot[1] and below < pivot[0]:",
                "if True:",
            ),
        )
        with pytest.raises(AssertionError):
            TestSpecialCases().test_pivot_overlap_takes_the_general_path(monkeypatch)

    def test_owner_drop_that_forgets_the_second_entry_on_a_key(self, monkeypatch):
        monkeypatch.setattr(
            LockTable,
            "drop_owner",
            mutant(
                LockTable.drop_owner,
                "for entry in entries:",
                "for entry in {e.key: e for e in entries}.values():",
            ),
        )
        with pytest.raises(AssertionError):
            TestSpecialCases().test_upgraded_owner_leaves_with_both_entries(monkeypatch)

    def test_unmutated_copies_pass(self, monkeypatch):
        """The recompilation itself changes nothing."""
        monkeypatch.setattr(
            GarbageCollector,
            "_prune_versions",
            mutant(GarbageCollector._prune_versions, "if not candidates:", "if not candidates:"),
        )
        TestSpecialCases().test_pivot_overlap_takes_the_general_path(monkeypatch)
