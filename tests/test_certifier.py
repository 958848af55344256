"""SC mechanism: certifier mirroring (Algorithm 2, lines 27-31)."""


from repro import (
    PG_REPEATABLE_READ,
    PG_SERIALIZABLE,
    Trace,
    ViolationKind,
    verify_traces,
)
from repro.core.report import Mechanism
from repro.core.spec import (
    CertifierKind,
    CRLevel,
    IsolationLevel,
    IsolationSpec,
    profile,
)

INIT = {"x": {"v": 0}, "y": {"v": 0}}


def verify(traces, spec, **kwargs):
    return verify_traces(
        sorted(traces, key=Trace.sort_key), spec=spec, initial_db=INIT, **kwargs
    )


def write_skew_traces():
    """t1 reads x,y writes y; t2 reads x,y writes x; concurrent."""
    return [
        Trace.read(0.00, 0.01, "t1", {"x": 0, "y": 0}, client_id=0),
        Trace.read(0.00, 0.01, "t2", {"x": 0, "y": 0}, client_id=1),
        Trace.write(0.02, 0.03, "t1", {"y": 1}, client_id=0),
        Trace.write(0.02, 0.03, "t2", {"x": 2}, client_id=1),
        Trace.commit(0.04, 0.05, "t1", client_id=0),
        Trace.commit(0.055, 0.06, "t2", client_id=1),
    ]


class TestSSI:
    def test_write_skew_flagged_under_ssi(self):
        report = verify(write_skew_traces(), PG_SERIALIZABLE)
        kinds = {v.kind for v in report.violations}
        assert ViolationKind.DANGEROUS_STRUCTURE in kinds

    def test_write_skew_legal_under_si(self):
        report = verify(write_skew_traces(), PG_REPEATABLE_READ)
        assert report.ok

    def test_serial_consecutive_rw_not_flagged(self):
        """Non-concurrent rw chains are normal serial behaviour; the SSI
        check must require concurrency (no false positives on serial
        histories)."""
        traces = [
            # t0 reads x; later t1 overwrites x (rw t0->t1, serial).
            Trace.read(0.0, 0.1, "t0", {"x": 0, "y": 0}, client_id=0),
            Trace.write(0.15, 0.2, "t0", {"y": 5}, client_id=0),
            Trace.commit(0.25, 0.3, "t0", client_id=0),
            Trace.read(0.4, 0.45, "t1", {"y": 5}, client_id=0),
            Trace.write(0.5, 0.55, "t1", {"x": 6}, client_id=0),
            Trace.commit(0.6, 0.65, "t1", client_id=0),
            Trace.read(0.7, 0.75, "t2", {"x": 6}, client_id=0),
            Trace.write(0.8, 0.85, "t2", {"y": 7}, client_id=0),
            Trace.commit(0.9, 0.95, "t2", client_id=0),
        ]
        assert verify(traces, PG_SERIALIZABLE).ok


class TestCycleCertifier:
    def cyclic_history(self):
        """Serializability violation without write skew shape: t1 and t2
        each read the other's pre-state and overwrite it (rw cycle), built
        on a lock-free engine profile."""
        return write_skew_traces()

    def test_cycle_flagged_by_cycle_certifier(self):
        spec = profile("cockroachdb", IsolationLevel.SERIALIZABLE)
        report = verify(self.cyclic_history(), spec)
        kinds = {v.kind for v in report.violations}
        assert ViolationKind.DEPENDENCY_CYCLE in kinds

    def test_clean_serial_history_ok(self):
        spec = profile("cockroachdb", IsolationLevel.SERIALIZABLE)
        traces = [
            Trace.write(0.0, 0.1, "t0", {"x": 1}, client_id=0),
            Trace.commit(0.2, 0.3, "t0", client_id=0),
            Trace.read(0.4, 0.5, "t1", {"x": 1}, client_id=1),
            Trace.commit(0.6, 0.7, "t1", client_id=1),
        ]
        assert verify(traces, spec).ok


class TestContradictoryDependencies:
    def test_ww_wr_cycle_flagged_under_any_level(self):
        """A cycle of ww/wr dependencies contradicts physical time and is a
        bug even when no serializability is claimed.  Here t2 reads t1's
        write *before* t1's write happened -- impossible."""
        spec = IsolationSpec(
            name="test/RC-noSC",
            level=IsolationLevel.READ_COMMITTED,
            cr=__import__("repro.core.spec", fromlist=["CRLevel"]).CRLevel.STATEMENT,
            me=False,
        )
        traces = [
            # t2 reads x=1 (claims wr t1->t2) and commits before t1 even runs.
            Trace.read(0.0, 0.1, "t2", {"x": 1}, client_id=1),
            Trace.commit(0.2, 0.3, "t2", client_id=1),
            Trace.write(1.0, 1.1, "t1", {"x": 1}, client_id=0),
            Trace.commit(1.2, 1.3, "t1", client_id=0),
        ]
        report = verify(traces, spec)
        assert not report.ok  # surfaces as dirty/unknown read or cycle
        assert report.violations


class TestFirstCommitterCertifier:
    def test_concurrent_writers_flagged(self):
        spec = profile("tidb", IsolationLevel.SNAPSHOT_ISOLATION)
        traces = [
            Trace.read(0.00, 0.01, "t0", {"x": 0}, client_id=0),
            Trace.read(0.00, 0.01, "t1", {"x": 0}, client_id=1),
            Trace.write(0.02, 0.03, "t0", {"x": 1}, client_id=0),
            Trace.write(0.02, 0.03, "t1", {"x": 2}, client_id=1),
            Trace.commit(0.04, 0.05, "t0", client_id=0),
            Trace.commit(0.055, 0.06, "t1", client_id=1),
        ]
        report = verify(traces, spec)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert ViolationKind.LOST_UPDATE in kinds

    def test_the_rule_is_witnessed_once(self):
        """FUW's pair check is the rule's one home: a ww edge that ME
        deduces between two necessarily concurrent writers (a spec that
        claims both, not a Fig. 1 row) does not make the certifier
        witness the same lost update a second time."""
        spec = IsolationSpec(
            name="locking-fcw/SI",
            level=IsolationLevel.SNAPSHOT_ISOLATION,
            cr=CRLevel.TRANSACTION,
            me=True,
            certifier=CertifierKind.FIRST_COMMITTER,
        )
        traces = [
            Trace.read(0.00, 0.01, "t0", {"x": 0}, client_id=0),
            Trace.read(0.00, 0.01, "t1", {"y": 0}, client_id=1),
            Trace.write(0.02, 0.03, "t0", {"x": 1}, client_id=0),
            Trace.commit(0.04, 0.05, "t0", client_id=0),
            Trace.write(0.06, 0.07, "t1", {"x": 2}, client_id=1),
            Trace.commit(0.08, 0.09, "t1", client_id=1),
        ]
        report = verify(traces, spec)
        assert [(v.mechanism, v.kind) for v in report.violations] == [
            (Mechanism.SERIALIZATION_CERTIFIER, ViolationKind.LOST_UPDATE)
        ]
        assert report.descriptor.raw_count == 1

    def test_serial_writers_clean(self):
        spec = profile("tidb", IsolationLevel.SNAPSHOT_ISOLATION)
        traces = [
            Trace.write(0.0, 0.1, "t0", {"x": 1}, client_id=0),
            Trace.commit(0.2, 0.3, "t0", client_id=0),
            Trace.write(0.5, 0.6, "t1", {"x": 2}, client_id=1),
            Trace.commit(0.7, 0.8, "t1", client_id=1),
        ]
        assert verify(traces, spec).ok
