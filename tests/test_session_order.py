"""Session-order edges and classic multi-transaction anomalies."""


from repro import (
    DepType,
    PG_REPEATABLE_READ,
    PG_SERIALIZABLE,
    Trace,
    Verifier,
    ViolationKind,
)

INIT = {"x": {"v": 0}, "y": {"v": 0}, "saving": {"v": 0}, "checking": {"v": 0}}


def run(traces, spec=PG_SERIALIZABLE, **kwargs):
    verifier = Verifier(spec=spec, initial_db=INIT, gc_every=0, **kwargs)
    verifier.process_all(sorted(traces, key=Trace.sort_key))
    return verifier


class TestSessionOrderEdges:
    def same_client_pair(self):
        return [
            Trace.write(0.0, 0.1, "t1", {"x": 1}, client_id=0),
            Trace.commit(0.2, 0.3, "t1", client_id=0),
            Trace.write(0.5, 0.6, "t2", {"y": 2}, client_id=0),
            Trace.commit(0.7, 0.8, "t2", client_id=0),
        ]

    def test_so_edge_added(self):
        verifier = run(self.same_client_pair())
        report = verifier.finish()
        assert report.ok
        assert DepType.SO in verifier.state.graph.edge_types("t1", "t2")
        assert report.stats.deps_so == 1

    def test_aborted_txn_breaks_no_chain(self):
        traces = [
            Trace.write(0.0, 0.1, "t1", {"x": 1}, client_id=0),
            Trace.commit(0.2, 0.3, "t1", client_id=0),
            Trace.write(0.4, 0.45, "ta", {"x": 9}, client_id=0),
            Trace.abort(0.46, 0.5, "ta", client_id=0),
            Trace.write(0.6, 0.7, "t2", {"y": 2}, client_id=0),
            Trace.commit(0.8, 0.9, "t2", client_id=0),
        ]
        verifier = run(traces)
        assert verifier.finish().ok
        assert DepType.SO in verifier.state.graph.edge_types("t1", "t2")

    def test_time_travel_bug_detected(self):
        """A session's second transaction reads state from *before* its own
        first transaction (causality/session violation): the wr edge into
        the old version plus the session edge close a time-contradictory
        cycle -- or surface as a stale read."""
        traces = [
            # Session 0: t1 overwrites x, then t2 reads the OLD x.
            Trace.write(0.0, 0.1, "t1", {"x": 1}, client_id=0),
            Trace.commit(0.2, 0.3, "t1", client_id=0),
            Trace.read(0.5, 0.6, "t2", {"x": 0}, client_id=0),
            Trace.commit(0.7, 0.8, "t2", client_id=0),
        ]
        report = run(traces).finish()
        assert not report.ok


class TestReadOnlyAnomaly:
    """Fekete/O'Neil read-only transaction anomaly: two writers exhibit
    write-skew-free behaviour, but a read-only observer makes the history
    non-serializable.  SI permits it; SSI-serializable must not."""

    def traces(self):
        return [
            # T1: reads saving+checking (snapshot before T2 commits),
            # deposits into saving; commits AFTER T3's read.
            Trace.read(0.00, 0.05, "t1", {"saving": 0, "checking": 0}, client_id=0),
            # T2: withdraws from checking with a penalty; commits first.
            Trace.read(0.00, 0.05, "t2", {"saving": 0, "checking": 0}, client_id=1),
            Trace.write(0.10, 0.15, "t2", {"checking": -11}, client_id=1),
            Trace.commit(0.20, 0.25, "t2", client_id=1),
            # T3 (read-only): sees T2's withdrawal but not T1's deposit.
            Trace.read(0.30, 0.35, "t3", {"saving": 0, "checking": -11}, client_id=2),
            Trace.commit(0.40, 0.45, "t3", client_id=2),
            # T1 finally writes and commits.
            Trace.write(0.50, 0.55, "t1", {"saving": 20}, client_id=0),
            Trace.commit(0.60, 0.65, "t1", client_id=0),
        ]

    def test_flagged_under_serializable(self):
        report = run(self.traces(), spec=PG_SERIALIZABLE).finish()
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert kinds & {
            ViolationKind.DEPENDENCY_CYCLE,
            ViolationKind.DANGEROUS_STRUCTURE,
        }

    def test_permitted_under_snapshot_isolation(self):
        report = run(self.traces(), spec=PG_REPEATABLE_READ).finish()
        assert report.ok, [str(v) for v in report.violations]
