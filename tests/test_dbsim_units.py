"""Unit tests for the engine-side mechanism helpers (snapshots, SSI, OCC,
first-committer) and the bench metrics utilities."""

from types import SimpleNamespace


from repro.bench.metrics import MemorySeries
from repro.core.spec import CRLevel
from repro.dbsim.occ import FirstCommitterValidator, OccValidator
from repro.dbsim.snapshots import SnapshotManager
from repro.dbsim.ssi import SsiTracker
from repro.dbsim.storage import INITIAL_TS, MultiVersionStore


def txn(**kwargs):
    defaults = dict(
        txn_id="t",
        snapshot_ts=None,
        begin_ts=0.0,
        commit_ts=None,
        committed=False,
        aborted=False,
        in_conflict=False,
        out_conflict=False,
        staged={},
        read_versions={},
    )
    defaults.update(kwargs)
    return SimpleNamespace(**defaults)


class TestSnapshotManager:
    def test_transaction_level_pins(self):
        manager = SnapshotManager(CRLevel.TRANSACTION)
        t = txn()
        assert manager.snapshot_for(t, 1.0) == 1.0
        assert manager.snapshot_for(t, 9.0) == 1.0  # pinned

    def test_statement_level_advances(self):
        manager = SnapshotManager(CRLevel.STATEMENT)
        t = txn()
        assert manager.snapshot_for(t, 1.0) == 1.0
        assert manager.snapshot_for(t, 9.0) == 9.0

    def test_none_behaves_like_statement(self):
        manager = SnapshotManager(CRLevel.NONE)
        t = txn()
        assert manager.snapshot_for(t, 5.0) == 5.0
        assert manager.snapshot_for(t, 7.0) == 7.0


class TestSsiTracker:
    def test_pivot_aborted_at_commit(self):
        tracker = SsiTracker()
        pivot = txn(txn_id="p", in_conflict=True, out_conflict=True)
        assert tracker.commit_check(pivot) is not None
        clean = txn(txn_id="c", in_conflict=True)
        assert tracker.commit_check(clean) is None

    def test_on_write_marks_concurrent_readers(self):
        tracker = SsiTracker()
        reader = txn(txn_id="r", snapshot_ts=1.0, begin_ts=0.5)
        writer = txn(txn_id="w", snapshot_ts=1.2, begin_ts=0.6)
        tracker.register_read(reader, "x")
        assert tracker.on_write(writer, "x") is None
        assert reader.out_conflict and writer.in_conflict

    def test_non_concurrent_reader_ignored(self):
        tracker = SsiTracker()
        reader = txn(
            txn_id="r",
            snapshot_ts=1.0,
            begin_ts=0.5,
            commit_ts=2.0,
            committed=True,
        )
        writer = txn(txn_id="w", snapshot_ts=10.0, begin_ts=9.0)
        tracker.register_read(reader, "x")
        tracker.on_write(writer, "x")
        assert not writer.in_conflict

    def test_forget_and_prune(self):
        tracker = SsiTracker()
        old = txn(
            txn_id="old",
            snapshot_ts=1.0,
            begin_ts=0.5,
            commit_ts=2.0,
            committed=True,
        )
        young = txn(txn_id="young", snapshot_ts=5.0, begin_ts=4.5)
        tracker.register_read(old, "x")
        tracker.register_read(young, "x")
        assert tracker.siread_count() == 2
        assert tracker.prune(oldest_active_begin=3.0) == 1
        tracker.forget(young)
        assert tracker.siread_count() == 0

    def test_register_read_idempotent(self):
        tracker = SsiTracker()
        reader = txn(txn_id="r", snapshot_ts=1.0, begin_ts=0.5)
        tracker.register_read(reader, "x")
        tracker.register_read(reader, "x")
        assert tracker.siread_count() == 1

    def test_forget_frees_only_its_own_sireads(self):
        tracker = SsiTracker()
        gone = txn(txn_id="gone", snapshot_ts=1.0, begin_ts=0.5)
        kept = txn(txn_id="kept", snapshot_ts=1.0, begin_ts=0.5)
        for key in ("x", "y"):
            tracker.register_read(gone, key)
        tracker.register_read(kept, "y")
        tracker.forget(gone)
        assert tracker.siread_count() == 1
        writer = txn(txn_id="w", snapshot_ts=2.0, begin_ts=1.5)
        assert tracker.on_write(writer, "x") is None
        assert not writer.in_conflict
        assert tracker.on_write(writer, "y") is None
        assert kept.out_conflict and writer.in_conflict

    def test_predicate_scanner_conflicts_with_matching_insert(self):
        from repro.core.trace import KeyRange

        tracker = SsiTracker()
        scanner = txn(txn_id="s", snapshot_ts=1.0, begin_ts=0.5)
        tracker.register_predicate(scanner, KeyRange(("row",), 0, 10))
        writer = txn(txn_id="w", snapshot_ts=1.2, begin_ts=0.6)
        assert tracker.on_write(writer, ("row", 42)) is None
        assert not writer.in_conflict
        assert tracker.on_write(writer, ("row", 3)) is None
        assert scanner.out_conflict and writer.in_conflict
        assert tracker.siread_count() == 0  # predicate SIREADs are not keyed


class TestOccValidator:
    def test_unchanged_reads_pass(self):
        store = MultiVersionStore({"x": {"v": 0}})
        t = txn(read_versions={"x": INITIAL_TS})
        assert OccValidator().validate(t, store) is None

    def test_superseded_read_fails(self):
        store = MultiVersionStore({"x": {"v": 0}})
        t = txn(read_versions={"x": INITIAL_TS})
        store.install("x", "w", {"v": 1}, commit_ts=1.0)
        assert OccValidator().validate(t, store) is not None


class TestFirstCommitter:
    def test_conflicting_write_fails(self):
        store = MultiVersionStore({"x": {"v": 0}})
        store.install("x", "w", {"v": 1}, commit_ts=5.0)
        t = txn(snapshot_ts=1.0, staged={"x": {"v": 9}})
        assert FirstCommitterValidator().validate(t, store) is not None

    def test_clean_write_passes(self):
        store = MultiVersionStore({"x": {"v": 0}})
        t = txn(snapshot_ts=1.0, staged={"x": {"v": 9}})
        assert FirstCommitterValidator().validate(t, store) is None

    def test_no_snapshot_passes(self):
        store = MultiVersionStore()
        t = txn(snapshot_ts=None, staged={"x": {"v": 9}})
        assert FirstCommitterValidator().validate(t, store) is None


class TestMetrics:
    def test_memory_series(self):
        series = MemorySeries(sample_every=2)
        values = iter([10, 20, 5])
        probe = lambda: next(values)
        series.observe(probe)  # below period: no sample
        series.observe(probe)  # samples 10
        series.observe(probe)
        series.observe(probe)  # samples 20
        series.finish(probe)   # samples 5
        assert series.peak == 20
        assert series.final == 5


class TestYcsbVariants:
    def test_variant_factories(self):
        from repro.workloads import YcsbA

        assert YcsbA.b().read_ratio == 0.95
        assert YcsbA.c().read_ratio == 1.0
        assert YcsbA.f().rmw_ratio == 0.5
        assert "ycsb-f" in YcsbA.f().name

    def test_ycsb_f_produces_rmw(self):
        import random

        from repro.dbsim.session import ReadOp, WriteOp
        from repro.workloads import YcsbA

        workload = YcsbA.f(records=50)
        rng = random.Random(0)
        saw_rmw = False
        for _ in range(20):
            program = workload.transaction(rng)
            ops = []
            try:
                op = program.send(None)
                while True:
                    ops.append(op)
                    if isinstance(op, ReadOp):
                        op = program.send({k: {"v": 0} for k in op.keys})
                    else:
                        op = program.send(None)
            except StopIteration:
                pass
            for first, second in zip(ops, ops[1:]):
                if (
                    isinstance(first, ReadOp)
                    and isinstance(second, WriteOp)
                    and list(first.keys)[0] in second.writes
                ):
                    saw_rmw = True
        assert saw_rmw

    def test_ycsb_variants_verify_clean(self):
        from repro import PG_REPEATABLE_READ
        from repro.workloads import YcsbA, run_workload
        from tests.conftest import verify_run

        for workload in (YcsbA.b(records=200), YcsbA.f(records=200)):
            run = run_workload(
                workload, PG_REPEATABLE_READ, clients=8, txns=200, seed=6
            )
            assert verify_run(run, PG_REPEATABLE_READ).ok

    def test_breakdown_timing_collected(self):
        from repro import PG_SERIALIZABLE
        from repro.workloads import BlindW, run_workload
        from tests.conftest import verify_run

        run = run_workload(
            BlindW.rw(keys=64), PG_SERIALIZABLE, clients=4, txns=100, seed=6
        )
        from repro.core.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        report = verify_run(run, PG_SERIALIZABLE, metrics=metrics)
        timers = {
            key: summary
            for key, summary in metrics.snapshot()["histograms"].items()
            if key.startswith("mechanism.seconds{")
        }
        assert {f"mechanism.seconds{{mechanism={m}}}" for m in ("CR", "ME", "FUW")} <= set(timers)
        assert all(summary["min"] >= 0 for summary in timers.values())
        # The timers are an instrument: the report holds no timing, and
        # an uninstrumented run's report equals the instrumented one.
        assert verify_run(run, PG_SERIALIZABLE).stats == report.stats
