"""Every read pass against the per-read reference (``tests/cr_oracle.py``).

The pass -- one loop per finished transaction, one-version chains read
directly, unique matches handed over as one batch -- must conclude, at
every terminal of every in-process backend, exactly what checking each
read on its own concludes: the same matched versions in the same order,
the same violations with the same witness counts, the same pair counters
and, on an instrumented run, the same candidate-set samples.  Hand-built
histories pin each branch of the check, Hypothesis drives all of them
together on an integer time grid (few keys, few values, so ties, overlaps,
duplicates and misses are the common case), simulated-DBMS histories with
injected faults reach the diagnosed kinds the way an engine produces
them, and two mutants show the comparison has teeth.
"""

import inspect
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    PG_READ_COMMITTED,
    PG_REPEATABLE_READ,
    PG_SERIALIZABLE,
    Trace,
    Verifier,
    ViolationKind,
)
from repro.core.consistent_read import ConsistentReadVerifier
from repro.core.metrics import MetricsRegistry
from repro.core.online import OnlineVerifier
from repro.core.parallel import ParallelVerifier
from repro.core.pipeline import pipeline_from_client_streams
from repro.core.trace import KeyRange, tombstone
from repro.dbsim import FaultPlan
from repro.workloads import BlindW, InsertScanWorkload, SmallBank, TpcC, run_workload

from tests import cr_oracle

# -- the three in-process ways to run a history ------------------------------------


def run_serial(streams, spec, initial_db, **options):
    verifier = Verifier(spec=spec, initial_db=initial_db, **options)
    for batch in pipeline_from_client_streams(streams).iter_batches():
        verifier.process_batch(batch)
    return verifier.finish()


def run_sharded(streams, spec, initial_db, **options):
    verifier = ParallelVerifier(
        spec=spec, initial_db=initial_db, shards=2, backend="inline",
        segment_events=16, **options,
    )
    for batch in pipeline_from_client_streams(streams).iter_batches():
        verifier.process_batch(batch)
    return verifier.finish()


def run_online(streams, spec, initial_db, **options):
    online = OnlineVerifier(spec=spec, initial_db=initial_db, **options)
    for client_id in streams:
        online.register_client(client_id)
    cursors = {client_id: 0 for client_id in streams}
    while cursors:
        for client_id in list(cursors):
            lo = cursors[client_id]
            frame = streams[client_id][lo : lo + 5]
            if not frame:
                del cursors[client_id]
                continue
            online.feed_batch(client_id, frame)
            cursors[client_id] = lo + 5
    return online.finish()


BACKENDS = {"serial": run_serial, "inline-2": run_sharded, "online": run_online}


def check_history(backend, streams, spec, initial_db, **options):
    with cr_oracle.checked() as decided:
        report = BACKENDS[backend](streams, spec, initial_db, **options)
    return report, decided


def check_traces(traces, spec=PG_SERIALIZABLE, initial_db=None, **options):
    """A hand-built history through the serial verifier, checked."""
    streams = {}
    for trace in traces:
        streams.setdefault(trace.client_id, []).append(trace)
    return check_history("serial", streams, spec, initial_db, **options)


def kinds(report):
    return sorted(v.kind.value for v in report.violations)


# -- each branch of the check, by hand -----------------------------------------------

INIT = {"x": {"v": 0}, "y": {"v": 0}}


def writer(txn, key, value, at, client=0, width=0.1):
    """A committed single-write transaction occupying [at, at + 3 width]."""
    return [
        Trace.write(at, at + width, txn, {key: value}, client_id=client),
        Trace.commit(at + 2 * width, at + 3 * width, txn, client_id=client, op_index=1),
    ]


def reader(txn, reads, at, client=1, end=Trace.commit, **kwargs):
    return [
        Trace.read(at, at + 0.1, txn, reads, client_id=client, **kwargs),
        end(at + 0.2, at + 0.3, txn, client_id=client, op_index=1),
    ]


class TestEveryBranch:
    def test_one_version_chain_is_read_without_classify(self, monkeypatch):
        from repro.core.versions import VersionChain

        calls = []
        plain = VersionChain.classify
        monkeypatch.setattr(
            VersionChain, "classify",
            lambda chain, *args: calls.append(chain.key) or plain(chain, *args),
        )
        report, decided = check_traces(
            reader("r1", {"x": 0}, 1.0) + reader("r2", {"x": 0, "y": 0}, 2.0),
            initial_db=INIT,
        )
        assert report.ok and not calls
        assert decided["unique"] == decided["one_version"] == 3

    def test_longer_chains_are_classified(self):
        report, decided = check_traces(
            writer("w1", "x", 1, 0.0) + reader("r1", {"x": 1}, 1.0),
            initial_db=INIT, gc_every=0,
        )
        assert report.ok and report.stats.deps_wr == 1
        assert decided["unique"] == 1 and not decided["one_version"]

    def test_own_write_covered_partly_covered_and_lost(self):
        traces = [
            Trace.write(0.0, 0.1, "t1", {"x": {"a": 1}}),
            # covered and right; covered and wrong; one column of two
            # covered (falls through to the chain with the delta applied).
            Trace.read(0.2, 0.3, "t1", {"x": {"a": 1}}, op_index=1),
            Trace.read(0.4, 0.5, "t1", {"x": {"a": 2}}, op_index=2),
            Trace.read(0.6, 0.7, "t1", {"x": {"a": 1, "b": 7}}, op_index=3),
            Trace.read(0.8, 0.9, "t1", {"x": {"a": 1, "b": 8}}, op_index=4),
            Trace.commit(1.0, 1.1, "t1", op_index=5),
        ]
        report, decided = check_traces(traces, initial_db={"x": {"a": 0, "b": 7}})
        assert kinds(report) == ["own-write-lost", "unknown-version"]
        assert decided["own"] == 2 and decided["unique"] == 1 and decided["miss"] == 1

    def test_own_delta_is_the_image_at_read_time(self):
        """A later own write must not leak into an earlier read's check."""
        traces = [
            Trace.write(0.0, 0.1, "t1", {"x": 1}),
            Trace.read(0.2, 0.3, "t1", {"x": 1}, op_index=1),
            Trace.write(0.4, 0.5, "t1", {"x": 2}, op_index=2),
            Trace.read(0.6, 0.7, "t1", {"x": 2}, op_index=3),
            Trace.commit(0.8, 0.9, "t1", op_index=4),
        ]
        report, decided = check_traces(traces, initial_db=INIT)
        assert report.ok and decided["own"] == 2

    def test_delete_then_read_and_reinsert(self):
        traces = (
            writer("d1", "x", tombstone(), 0.0)
            + reader("r1", {"x": tombstone()}, 1.0)          # sees the delete
            + reader("r2", {"x": 0}, 2.0, client=2)           # stale: deleted
            + writer("i1", "x", {"v": 5}, 3.0)                # re-insert
            + reader("r3", {"x": 5}, 4.0)
            + reader("r4", {"x": tombstone()}, 5.0, client=2)  # row is back
            + reader("r5", {"nowhere": tombstone()}, 6.0)      # never existed
        )
        report, decided = check_traces(traces, initial_db=INIT, gc_every=0)
        assert kinds(report) == ["phantom", "stale-read"]
        assert decided["absent"] == 1 and decided["unique"] == 2

    def test_future_only_chain(self):
        """The only version commits after the snapshot: no candidate."""
        traces = [
            Trace.read(0.0, 0.1, "r1", {"z": 1}, client_id=1),
            *writer("w1", "z", 1, 1.0),
            Trace.commit(2.0, 2.1, "r1", client_id=1, op_index=1),
        ]
        report, decided = check_traces(traces)
        assert kinds(report) == ["future-read"]
        assert decided["miss"] == decided["one_version"] == 1

    def test_dirty_and_unknown(self):
        traces = [
            Trace.write(0.0, 0.1, "w1", {"x": 9}),
            *reader("r1", {"x": 9}, 0.2),
            Trace.abort(1.0, 1.1, "w1", op_index=1),
            *reader("r2", {"x": 9}, 2.0, client=2),   # aborted residue
            *reader("r3", {"x": 77}, 3.0),
        ]
        report, _ = check_traces(traces, initial_db=INIT)
        assert kinds(report) == ["dirty-read", "dirty-read", "unknown-version"]

    @pytest.mark.parametrize("exchange", [True, False])
    def test_pivot_overlap_with_and_without_deduced_ww(self, exchange):
        """Two overlapping commits before the snapshot: both stay
        candidates until ME deduces their ww order, which collapses the
        set to the later one -- unless the exchange is switched off."""
        traces = [
            Trace.write(0.0, 0.1, "a", {"x": 1}, client_id=0),
            Trace.commit(0.2, 1.0, "a", client_id=0, op_index=1),
            Trace.write(0.3, 0.4, "b", {"x": 1}, client_id=1),
            Trace.commit(0.5, 1.1, "b", client_id=1, op_index=1),
            *reader("r1", {"x": 1}, 2.0, client=2),
        ]
        report, decided = check_traces(
            traces, initial_db=INIT, gc_every=0, exchange_dependencies=exchange
        )
        assert report.ok
        assert decided["unique" if exchange else "ambiguous"] == 1
        assert report.stats.deps_wr == (1 if exchange else 0)

    def test_ambiguous_match_accounting(self):
        traces = [
            Trace.write(0.0, 0.1, "a", {"y": 3}, client_id=0),
            Trace.write(0.0, 0.1, "b", {"x": 0}, client_id=1),
            Trace.commit(0.2, 1.0, "a", client_id=0, op_index=1),
            Trace.commit(0.2, 1.0, "b", client_id=1, op_index=1),
            # x: initial image and b's version both read 0, and b overlaps
            # the snapshot.
            *reader("r1", {"x": 0}, 0.5, client=2),
        ]
        registry = MetricsRegistry()
        report, decided = check_traces(
            traces, initial_db=INIT, gc_every=0, metrics=registry
        )
        assert report.ok and decided["ambiguous"] == 1
        assert report.stats.conflict_pairs == report.stats.overlapped_pairs == 1
        assert report.stats.deduced_overlapped_pairs == 0
        assert registry.counter_value("cr.reads.ambiguous") == 1

    def test_aborted_reader(self):
        """Reads of a transaction that rolls back are checked like any
        other: an engine may not serve inconsistent data even to it."""
        report, decided = check_traces(
            reader("r1", {"x": 41}, 1.0, end=Trace.abort)
            + reader("r2", {"x": 0}, 2.0, end=Trace.abort),
            initial_db=INIT,
        )
        assert kinds(report) == ["unknown-version"] and decided["unique"] == 1
        assert report.stats.reads_checked == 2
        assert report.stats.deps_wr == 0

    def test_naive_candidates_keep_no_visibility_filter(self):
        """``minimize_candidates=False``: every committed version is a
        candidate, a future one included -- the weaker check it always
        was."""
        traces = [
            Trace.read(0.0, 0.1, "r1", {"x": 1}, client_id=1),
            *writer("w1", "x", 1, 1.0),
            Trace.commit(2.0, 2.1, "r1", client_id=1, op_index=1),
        ]
        strict, _ = check_traces(traces, initial_db=INIT, gc_every=0)
        naive, decided = check_traces(
            traces, initial_db=INIT, gc_every=0, minimize_candidates=False
        )
        assert kinds(strict) == ["future-read"]
        assert naive.ok and decided["unique"] == 1

    def test_statement_and_transaction_level_snapshots(self):
        traces = [
            Trace.read(0.0, 0.1, "r1", {"x": 0}, client_id=1),
            *writer("w1", "x", 1, 0.2),
            Trace.read(1.0, 1.1, "r1", {"x": 1}, client_id=1, op_index=1),
            Trace.commit(1.2, 1.3, "r1", client_id=1, op_index=2),
        ]
        statement, _ = check_traces(traces, PG_READ_COMMITTED, INIT, gc_every=0)
        transaction, _ = check_traces(traces, PG_REPEATABLE_READ, INIT, gc_every=0)
        assert statement.ok
        assert kinds(transaction) == ["future-read"]

    def test_predicate_read_with_phantoms(self):
        rows = {("row", i): {"a": i} for i in range(4)}
        predicate = KeyRange(("row",), 0, 10)
        traces = [
            *writer("w1", ("row", 7), {"a": 7}, 0.0),
            # misses ("row", 3) of the initial image and w1's row; a read
            # violation in the same transaction is reported first.
            Trace.read(
                1.0, 1.1, "s1",
                {("row", 0): {"a": 0}, ("row", 1): {"a": 1}, ("row", 2): {"a": 99}},
                client_id=1, predicate=predicate,
            ),
            Trace.commit(1.2, 1.3, "s1", client_id=1, op_index=1),
        ]
        registry = MetricsRegistry()
        report, decided = check_traces(traces, initial_db=rows, metrics=registry)
        assert [v.kind.value for v in report.violations] == [
            "unknown-version", "phantom", "phantom",
        ]
        assert decided["scans"] == 1 and decided["findings"] == 3
        assert registry.counter_value("cr.scans.checked") == 1

    def test_scan_freshness_is_not_promised_without_a_cr_claim(self):
        spec = PG_READ_COMMITTED.without("CR")
        predicate = KeyRange(("row",), 0, 10)
        traces = reader("s1", {}, 1.0, predicate=predicate)
        report, decided = check_traces(
            traces, spec, {("row", 1): {"a": 1}}
        )
        assert report.ok and not decided["scans"]


# -- integer-grid histories -----------------------------------------------------------

GRID_KEYS = ["a", "b", ("row", 0), ("row", 1), ("row", 2)]
GRID_INITIAL = {"a": {"v": 0, "w": 0}, ("row", 0): {"v": 0}, ("row", 5): {"v": 0}}
_value = st.integers(0, 2)
_columns = st.one_of(
    st.fixed_dictionaries({"v": _value}),
    st.fixed_dictionaries({"w": _value}),
    st.fixed_dictionaries({"v": _value, "w": _value}),
)
_observed = st.one_of(_columns, _columns, _columns, st.just(tombstone()))
_written = st.one_of(_columns, _columns, _columns, st.just(tombstone()))


@st.composite
def grid_streams(draw):
    """Per-client monotone streams on an integer grid.  Three values over
    two columns on five keys: reads hit, miss and tie; writes overwrite
    part of a row, delete it and re-insert it; transactions read their own
    writes, scan a key range, abort, or never terminate."""
    clients = draw(st.integers(1, 4))
    clock = [0] * clients
    streams = {client: [] for client in range(clients)}
    for index in range(draw(st.integers(2, 14))):
        client = draw(st.integers(0, clients - 1))
        txn_id = f"g{index}"
        t = clock[client] + draw(st.integers(0, 2))
        n_ops = draw(st.integers(1, 4))
        for position in range(n_ops):
            width = draw(st.integers(0, 3))
            kind = draw(st.sampled_from("rrwws"))
            keys = draw(st.lists(st.sampled_from(GRID_KEYS), min_size=1, max_size=2, unique=True))
            if kind == "w":
                trace = Trace.write(
                    t, t + width, txn_id, {key: draw(_written) for key in keys},
                    client_id=client, op_index=position,
                )
            elif kind == "r":
                trace = Trace.read(
                    t, t + width, txn_id, {key: draw(_observed) for key in keys},
                    client_id=client, op_index=position,
                )
            else:
                rows = [key for key in keys if isinstance(key, tuple)]
                trace = Trace.read(
                    t, t + width, txn_id, {key: draw(_columns) for key in rows},
                    client_id=client, op_index=position,
                    predicate=KeyRange(("row",), 0, draw(st.integers(1, 6))),
                )
            streams[client].append(trace)
            t += width + draw(st.integers(0, 1))
        fate = draw(st.sampled_from(["commit", "commit", "commit", "abort", "open"]))
        if fate != "open":
            end = Trace.commit if fate == "commit" else Trace.abort
            width = draw(st.integers(0, 3))
            streams[client].append(
                end(t, t + width, txn_id, client_id=client, op_index=n_ops)
            )
            t += width
        clock[client] = t
    return streams


OPTIONS = [
    {},
    {"minimize_candidates": False},
    {"exchange_dependencies": False},
]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(max_examples=150, deadline=None)
@given(
    streams=grid_streams(),
    spec=st.sampled_from([PG_SERIALIZABLE, PG_REPEATABLE_READ, PG_READ_COMMITTED]),
    gc_every=st.sampled_from([0, 1, 4]),
    options=st.sampled_from(range(len(OPTIONS))),
    metered=st.booleans(),
)
def test_grid_histories(backend, streams, spec, gc_every, options, metered):
    chosen = dict(OPTIONS[options])
    if backend != "serial":
        # The ww-exchange ablation is a serial-verifier switch.
        chosen.pop("exchange_dependencies", None)
    if metered:
        chosen["metrics"] = MetricsRegistry()
    check_history(backend, streams, spec, GRID_INITIAL, gc_every=gc_every, **chosen)


def test_grid_histories_reach_every_decision():
    """The generator above is not vacuous: a fixed sample of it reaches
    every way a read is decided and every diagnosed kind."""
    from hypothesis import HealthCheck, Phase, seed

    reached = {}
    seen_kinds = set()

    @seed(20260321)
    @settings(
        max_examples=200, deadline=None, database=None,
        phases=[Phase.generate], suppress_health_check=list(HealthCheck),
    )
    @given(streams=grid_streams())
    def sample(streams):
        report, decided = check_history(
            "serial", streams, PG_SERIALIZABLE, GRID_INITIAL, gc_every=0
        )
        for how, count in decided.items():
            reached[how] = reached.get(how, 0) + count
        seen_kinds.update(v.kind for v in report.violations)

    sample()
    for how in ("own", "absent", "unique", "ambiguous", "miss", "one_version", "scans"):
        assert reached.get(how), (how, reached)
    assert seen_kinds >= {
        ViolationKind.OWN_WRITE_LOST, ViolationKind.STALE_READ,
        ViolationKind.FUTURE_READ, ViolationKind.DIRTY_READ,
        ViolationKind.UNKNOWN_VERSION, ViolationKind.PHANTOM,
    }


# -- simulated-DBMS histories, clean and faulty -----------------------------------------

FAULTS = [
    FaultPlan(),
    FaultPlan(stale_read_prob=0.1, seed=3),
    FaultPlan(dirty_read_prob=0.1, future_read_prob=0.1, seed=3),
    FaultPlan(ignore_own_write_prob=0.2, phantom_skip_prob=0.2, seed=3),
]
WORKLOADS = [
    lambda: BlindW.rw(keys=16),
    lambda: BlindW.rw_plus(keys=32),
    lambda: SmallBank(scale_factor=0.02),
    lambda: TpcC(scale_factor=1),
    lambda: InsertScanWorkload(),
]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(max_examples=25, deadline=None)
@given(
    workload=st.sampled_from(range(len(WORKLOADS))),
    spec=st.sampled_from([PG_SERIALIZABLE, PG_REPEATABLE_READ, PG_READ_COMMITTED]),
    faults=st.sampled_from(range(len(FAULTS))),
    seed=st.integers(0, 2**16),
    gc_every=st.sampled_from([5, 64]),
    metered=st.booleans(),
)
def test_dbsim_histories(backend, workload, spec, faults, seed, gc_every, metered):
    run = run_workload(
        WORKLOADS[workload](), spec, clients=6, txns=50, seed=seed,
        faults=FAULTS[faults],
    )
    streams = {c: list(s) for c, s in run.client_streams.items()}
    options = {"metrics": MetricsRegistry()} if metered else {}
    _, decided = check_history(
        backend, streams, spec, run.initial_db, gc_every=gc_every, **options
    )
    assert decided["unique"]


# -- the comparison has teeth -----------------------------------------------------------


def _mutated(monkeypatch, old, new):
    source = textwrap.dedent(inspect.getsource(ConsistentReadVerifier.on_terminal))
    assert old in source
    namespace = dict(vars(inspect.getmodule(ConsistentReadVerifier)))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(ConsistentReadVerifier, "on_terminal", namespace["on_terminal"])


def test_a_pass_that_skips_the_visibility_test_is_caught(monkeypatch):
    """One-version chains decided without the two float comparisons: the
    future-only read of ``TestEveryBranch`` turns into a match."""
    _mutated(monkeypatch, "snap_aft <= commit.ts_bef", "False")
    with pytest.raises(AssertionError):
        TestEveryBranch().test_future_only_chain()


def test_a_pass_that_reorders_matches_is_caught(monkeypatch):
    _mutated(monkeypatch, "queue.append((match, reader))", "queue.insert(0, (match, reader))")
    with pytest.raises(AssertionError):
        check_traces(reader("r1", {"x": 0, "y": 0}, 1.0), initial_db=INIT)
