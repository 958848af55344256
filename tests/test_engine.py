"""Simulated DBMS engine: transaction semantics per isolation spec."""

import pytest

from repro.core.spec import (
    IsolationLevel,
    PG_READ_COMMITTED,
    PG_REPEATABLE_READ,
    PG_SERIALIZABLE,
    profile,
)
from repro.core.trace import OpKind
from repro.dbsim import (
    AbortOp,
    FaultPlan,
    ReadOp,
    SimulatedDBMS,
    WriteOp,
    run_single_program,
)


def make_db(spec=PG_SERIALIZABLE, faults=None, seed=0):
    db = SimulatedDBMS(spec=spec, seed=seed, faults=faults or FaultPlan())
    db.load({"x": 0, "y": 0})
    return db


def collect(db, *programs):
    """Run programs concurrently (all started at t=0) and return traces."""
    from repro.dbsim.session import ClientSession

    sessions = []
    for client_id, program in enumerate(programs):
        session = ClientSession(client_id, db)
        session.run_program(program, lambda *_: None)
        sessions.append(session)
    db.loop.run()
    return sessions


class TestBasicSemantics:
    def test_read_initial(self):
        db = make_db()

        def program():
            values = yield ReadOp(["x"])
            assert values["x"] == {"v": 0}

        traces = run_single_program(db, program())
        assert [t.kind for t in traces] == [OpKind.READ, OpKind.COMMIT]

    def test_write_then_read_own(self):
        db = make_db()

        def program():
            yield WriteOp({"x": 5})
            values = yield ReadOp(["x"])
            assert values["x"]["v"] == 5

        run_single_program(db, program())

    def test_committed_visible_to_next_txn(self):
        db = make_db()

        def writer():
            yield WriteOp({"x": 9})

        def reader():
            values = yield ReadOp(["x"])
            assert values["x"]["v"] == 9

        run_single_program(db, writer())
        run_single_program(db, reader(), client_id=1)

    def test_voluntary_abort_rolls_back(self):
        db = make_db()

        def writer():
            yield WriteOp({"x": 9})
            yield AbortOp()

        traces = run_single_program(db, writer())
        assert traces[-1].kind is OpKind.ABORT

        def reader():
            values = yield ReadOp(["x"])
            assert values["x"]["v"] == 0

        run_single_program(db, reader(), client_id=1)

    def test_column_projection(self):
        db = SimulatedDBMS(spec=PG_SERIALIZABLE)
        db.load({"r": {"a": 1, "b": 2}})

        def program():
            values = yield ReadOp(["r"], columns=["a"])
            assert values["r"] == {"a": 1}

        run_single_program(db, program())

    def test_read_missing_key(self):
        db = make_db()

        def program():
            values = yield ReadOp(["ghost"])
            assert values["ghost"] is None

        run_single_program(db, program())

    def test_intervals_strictly_positive(self):
        db = make_db()

        def program():
            yield WriteOp({"x": 1})
            yield ReadOp(["x"])

        traces = run_single_program(db, program())
        for trace in traces:
            assert trace.ts_aft > trace.ts_bef


class TestIsolationBehaviour:
    def test_snapshot_stability_under_si(self):
        """Under txn-level CR a repeated read returns the snapshot value even
        after a concurrent commit."""
        db = make_db(spec=PG_REPEATABLE_READ)
        observed = []

        def long_reader():
            first = yield ReadOp(["x"])
            second = yield ReadOp(["x"])
            third = yield ReadOp(["x"])
            observed.extend(
                [first["x"]["v"], second["x"]["v"], third["x"]["v"]]
            )

        def writer():
            yield WriteOp({"x": 77})

        collect(db, long_reader(), writer())
        assert observed[0] == observed[1] == observed[2]

    def test_fuw_aborts_second_updater(self):
        db = make_db(spec=PG_REPEATABLE_READ, seed=4)

        def rmw():
            values = yield ReadOp(["x"])
            yield WriteOp({"x": values["x"]["v"] + 1})

        sessions = collect(db, rmw(), rmw())
        outcomes = sorted(s.committed for s in sessions)
        assert outcomes == [0, 1]  # exactly one survives
        assert db.stats.serialization_failures >= 1

    def test_no_fuw_under_rc_both_commit(self):
        db = make_db(spec=PG_READ_COMMITTED, seed=4)

        def rmw():
            values = yield ReadOp(["x"])
            yield WriteOp({"x": values["x"]["v"] + 1})

        sessions = collect(db, rmw(), rmw())
        assert all(s.committed == 1 for s in sessions)

    def test_ssi_aborts_write_skew(self):
        db = make_db(spec=PG_SERIALIZABLE, seed=4)

        def skew(read_key, write_key):
            values = yield ReadOp(["x", "y"])
            yield WriteOp({write_key: values[read_key]["v"] + 1})

        sessions = collect(db, skew("x", "y"), skew("y", "x"))
        assert sum(s.committed for s in sessions) <= 1

    def test_ssi_disabled_lets_write_skew_commit(self):
        db = make_db(
            spec=PG_SERIALIZABLE, faults=FaultPlan(disable_ssi=True), seed=4
        )

        def skew(read_key, write_key):
            values = yield ReadOp(["x", "y"])
            yield WriteOp({write_key: values[read_key]["v"] + 1})

        sessions = collect(db, skew("x", "y"), skew("y", "x"))
        assert all(s.committed == 1 for s in sessions)

    def test_deadlock_resolved_by_abort(self):
        db = make_db(spec=PG_READ_COMMITTED, seed=2)

        def order(first, second):
            yield WriteOp({first: 1})
            yield WriteOp({second: 2})

        sessions = collect(db, order("x", "y"), order("y", "x"))
        assert sum(s.committed for s in sessions) >= 1
        assert sum(s.aborted for s in sessions) >= 1

    def test_occ_validation(self):
        spec = profile("cockroachdb", IsolationLevel.SERIALIZABLE)
        db = SimulatedDBMS(spec=spec, seed=4)
        db.load({"x": 0})

        def rmw():
            values = yield ReadOp(["x"])
            yield WriteOp({"x": values["x"]["v"] + 1})

        sessions = collect(db, rmw(), rmw())
        assert sum(s.committed for s in sessions) == 1


class TestFaults:
    def test_stale_read_fault_surfaces(self):
        db = make_db(
            spec=PG_READ_COMMITTED, faults=FaultPlan(stale_read_prob=1.0)
        )

        def writer():
            yield WriteOp({"x": 1})

        run_single_program(db, writer())

        def reader():
            values = yield ReadOp(["x"])
            assert values["x"]["v"] == 0  # served the superseded version

        run_single_program(db, reader(), client_id=1)

    def test_ignore_own_write_fault(self):
        db = make_db(faults=FaultPlan(ignore_own_write_prob=1.0))

        def program():
            yield WriteOp({"x": 5})
            values = yield ReadOp(["x"])
            assert values["x"]["v"] == 0  # own write invisible (Bug 4)

        run_single_program(db, program())

    def test_noop_update_lock_skip(self):
        db = make_db(faults=FaultPlan(skip_lock_on_noop_update=True))

        def noop_writer():
            yield WriteOp({"x": 0})  # same value: no lock acquired

        run_single_program(db, noop_writer())
        assert db.stats.lock_waits == 0


class TestEngineStats:
    def test_counters(self):
        db = make_db()

        def program():
            yield ReadOp(["x"])
            yield WriteOp({"x": 1})

        run_single_program(db, program())
        assert db.stats.begun == 1
        assert db.stats.committed == 1
        assert db.stats.reads == 1
        assert db.stats.writes == 1

    def test_determinism(self):
        def run_once():
            db = make_db(seed=11)

            def program():
                values = yield ReadOp(["x"])
                yield WriteOp({"x": values["x"]["v"] + 1})

            return run_single_program(db, program())

        first = [(t.ts_bef, t.ts_aft, t.kind) for t in run_once()]
        second = [(t.ts_bef, t.ts_aft, t.kind) for t in run_once()]
        assert first == second


class TestMvtoProtocol:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            SimulatedDBMS(spec=PG_SERIALIZABLE, cc_protocol="nope")

    def test_mvto_history_serializable(self):
        spec = profile("cockroachdb", IsolationLevel.SERIALIZABLE)
        db = SimulatedDBMS(spec=spec, seed=4, cc_protocol="mvto")
        db.load({"x": 0, "y": 0})

        def skew(read_key, write_key):
            values = yield ReadOp(["x", "y"])
            yield WriteOp({write_key: values[read_key]["v"] + 1})

        sessions = collect(db, skew("x", "y"), skew("y", "x"))
        # MVTO must abort at least one of the skewing transactions.
        assert sum(s.committed for s in sessions) <= 1

    def test_mvto_read_timestamp_rule(self):
        """The read-timestamp rule: a writer whose snapshot precedes a later
        reader's timestamp cannot overwrite what that reader saw."""
        from types import SimpleNamespace

        from repro.dbsim import MultiVersionStore, MvtoValidator

        store = MultiVersionStore({"x": {"v": 0}})
        store.version_at("x", 10.0).note_read(10.0)
        slow_writer = SimpleNamespace(snapshot_ts=5.0)
        reason = MvtoValidator().check_write(slow_writer, "x", store)
        assert reason is not None and "timestamp order" in reason

    def test_mvto_newer_version_rule(self):
        from types import SimpleNamespace

        from repro.dbsim import MultiVersionStore, MvtoValidator

        store = MultiVersionStore({"x": {"v": 0}})
        store.install("x", "t9", {"v": 1}, commit_ts=8.0)
        late_writer = SimpleNamespace(snapshot_ts=5.0)
        assert MvtoValidator().check_write(late_writer, "x", store) is not None
        fresh_writer = SimpleNamespace(snapshot_ts=9.0)
        assert MvtoValidator().check_write(fresh_writer, "x", store) is None

    def test_mvto_clean_verification(self):
        from repro import Verifier, pipeline_from_client_streams
        from repro.workloads import SmallBank, WorkloadRunner

        spec = profile("cockroachdb", IsolationLevel.SERIALIZABLE)
        db = SimulatedDBMS(spec=spec, seed=9, cc_protocol="mvto")
        run = WorkloadRunner(
            db, SmallBank(scale_factor=0.05, seed=9), clients=8, seed=9
        ).run(txns=300)
        verifier = Verifier(spec=spec, initial_db=run.initial_db)
        for trace in pipeline_from_client_streams(run.client_streams):
            verifier.process(trace)
        assert verifier.finish().ok


class TestEngineEdgeCases:
    def test_op_on_committed_txn_fails(self):
        db = make_db()
        results = []

        def hold(result):
            results.append(result)

        txn = db.begin()
        db.submit_commit(txn, hold)
        db.loop.run()
        db.submit_read(txn, ["x"], hold)
        db.loop.run()
        assert results[0].ok and not results[1].ok

    def test_abort_after_commit_is_noop(self):
        db = make_db()
        results = []
        txn = db.begin()
        db.submit_commit(txn, results.append)
        db.loop.run()
        db.submit_abort(txn, results.append)
        db.loop.run()
        assert results[0].ok and results[1].ok  # abort of finished txn: ok
        assert db.stats.committed == 1 and db.stats.aborted == 0

    def test_poisoned_txn_rejects_further_ops(self):
        db = make_db(spec=PG_REPEATABLE_READ, seed=4)
        from tests.test_engine import collect

        def rmw_then_read():
            values = yield ReadOp(["x"])
            yield WriteOp({"x": values["x"]["v"] + 1})
            # The session aborts on failure, so a poisoned txn never gets
            # here; this test drives the engine API directly below.

        results = []
        t1 = db.begin()
        t2 = db.begin()
        db.submit_read(t1, ["x"], results.append)
        db.submit_read(t2, ["x"], results.append)
        db.loop.run()
        db.submit_write(t1, {"x": {"v": 1}}, results.append)
        db.loop.run()
        db.submit_commit(t1, results.append)
        db.loop.run()
        db.submit_write(t2, {"x": {"v": 2}}, results.append)  # FUW failure
        db.loop.run()
        assert not results[-1].ok
        db.submit_write(t2, {"y": {"v": 3}}, results.append)  # poisoned
        db.loop.run()
        assert not results[-1].ok and "roll back" in results[-1].error

    def test_custom_txn_id(self):
        db = make_db()
        txn = db.begin(txn_id="custom-42")
        assert txn.txn_id == "custom-42"
