"""Bug descriptor and report formatting."""

from repro.core.report import (
    BugDescriptor,
    Mechanism,
    VerificationReport,
    VerificationStats,
    Violation,
    ViolationKind,
)


def violation(txns=("t1", "t2"), kind=ViolationKind.LOST_UPDATE, key="x"):
    return Violation(
        mechanism=Mechanism.FIRST_UPDATER_WINS,
        kind=kind,
        txns=tuple(txns),
        key=key,
        details="test",
    )


class TestBugDescriptor:
    def test_records(self):
        descriptor = BugDescriptor()
        descriptor.record(violation())
        assert len(descriptor) == 1
        assert bool(descriptor)

    def test_dedup_same_witness(self):
        descriptor = BugDescriptor()
        descriptor.record(violation())
        descriptor.record(violation())
        assert len(descriptor) == 1
        assert descriptor.raw_count == 2

    def test_distinct_keys_kept(self):
        descriptor = BugDescriptor()
        descriptor.record(violation(key="x"))
        descriptor.record(violation(key="y"))
        assert len(descriptor) == 2

    def test_iteration(self):
        descriptor = BugDescriptor()
        descriptor.record(violation())
        assert list(descriptor) == descriptor.violations


class TestStats:
    def test_totals(self):
        stats = VerificationStats(deps_wr=1, deps_ww=2, deps_rw=3)
        assert stats.deps_total == 6

    def test_beta(self):
        stats = VerificationStats(conflict_pairs=100, overlapped_pairs=5)
        assert stats.beta == 0.05
        assert VerificationStats().beta == 0.0

    def test_uncertain(self):
        stats = VerificationStats(
            overlapped_pairs=10, deduced_overlapped_pairs=7
        )
        assert stats.uncertain_overlapped_pairs == 3


class TestReport:
    def test_ok(self):
        report = VerificationReport(
            descriptor=BugDescriptor(), stats=VerificationStats()
        )
        assert report.ok
        assert "violations      : 0" in report.summary()

    def test_not_ok_lists_violations(self):
        descriptor = BugDescriptor()
        descriptor.record(violation())
        report = VerificationReport(
            descriptor=descriptor,
            stats=VerificationStats(),
            isolation_level="postgresql/SI",
        )
        assert not report.ok
        summary = report.summary()
        assert "postgresql/SI" in summary
        assert "lost-update" in summary
