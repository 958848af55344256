"""CR mechanism on hand-crafted interval histories (Algorithm 2, 1-9)."""

import pytest

from repro import (
    PG_READ_COMMITTED,
    PG_REPEATABLE_READ,
    PG_SERIALIZABLE,
    Trace,
    ViolationKind,
    verify_traces,
)
from repro.core.spec import profile, IsolationLevel
from tests import cr_oracle

INIT = {"x": {"v": 0}, "y": {"v": 0}}


def verify(traces, spec=PG_SERIALIZABLE, **kwargs):
    return verify_traces(
        sorted(traces, key=Trace.sort_key), spec=spec, initial_db=INIT, **kwargs
    )


def writer(txn, key, value, at, client=0):
    """A committed single-write transaction occupying [at, at+0.3]."""
    return [
        Trace.write(at, at + 0.1, txn, {key: value}, client_id=client),
        Trace.commit(at + 0.2, at + 0.3, txn, client_id=client),
    ]


class TestHappyPaths:
    def test_read_latest_committed(self):
        traces = writer("t1", "x", 1, 0.0) + [
            Trace.read(1.0, 1.1, "t2", {"x": 1}, client_id=1),
            Trace.commit(1.2, 1.3, "t2", client_id=1),
        ]
        report = verify(traces)
        assert report.ok
        assert report.stats.deps_wr == 1

    def test_read_initial_value(self):
        traces = [
            Trace.read(0.0, 0.1, "t1", {"x": 0}),
            Trace.commit(0.2, 0.3, "t1"),
        ]
        assert verify(traces).ok

    def test_own_write_visible(self):
        traces = [
            Trace.write(0.0, 0.1, "t1", {"x": 42}),
            Trace.read(0.2, 0.3, "t1", {"x": 42}),
            Trace.commit(0.4, 0.5, "t1"),
        ]
        assert verify(traces).ok

    def test_snapshot_read_under_si(self):
        """Txn-level CR: a read after a concurrent commit legitimately sees
        the snapshot value."""
        traces = [
            Trace.read(0.0, 0.1, "t2", {"x": 0}, client_id=1),   # snapshot here
            *writer("t1", "x", 1, 0.2),                          # commits mid-t2
            Trace.read(1.0, 1.1, "t2", {"x": 0}, client_id=1),   # still snapshot
            Trace.commit(1.2, 1.3, "t2", client_id=1),
        ]
        assert verify(traces, spec=PG_REPEATABLE_READ).ok

    def test_statement_read_sees_fresh_commit_under_rc(self):
        traces = [
            Trace.read(0.0, 0.1, "t2", {"x": 0}, client_id=1),
            *writer("t1", "x", 1, 0.2),
            Trace.read(1.0, 1.1, "t2", {"x": 1}, client_id=1),  # fresh stmt snapshot
            Trace.commit(1.2, 1.3, "t2", client_id=1),
        ]
        assert verify(traces, spec=PG_READ_COMMITTED).ok

    def test_overlapping_write_may_be_seen(self):
        """A write whose commit interval overlaps the snapshot interval is
        a legitimate candidate -- either observation passes."""
        base = [
            Trace.write(0.00, 0.10, "t1", {"x": 1}, client_id=0),
            Trace.commit(0.15, 0.40, "t1", client_id=0),
        ]
        for observed in (0, 1):
            traces = base + [
                Trace.read(0.2, 0.45, "t2", {"x": observed}, client_id=1),
                Trace.commit(0.5, 0.6, "t2", client_id=1),
            ]
            assert verify(traces).ok, f"observed={observed}"


class TestViolations:
    def test_stale_read(self):
        traces = writer("t1", "x", 1, 0.0) + [
            Trace.read(1.0, 1.1, "t2", {"x": 0}, client_id=1),  # overwritten value
            Trace.commit(1.2, 1.3, "t2", client_id=1),
        ]
        report = verify(traces)
        assert not report.ok
        assert report.violations[0].kind is ViolationKind.STALE_READ

    def test_future_read(self):
        traces = [
            Trace.read(0.0, 0.1, "t2", {"x": 0}, client_id=1),
            *writer("t1", "x", 1, 0.5),
            Trace.read(1.0, 1.1, "t2", {"x": 1}, client_id=1),  # non-repeatable!
            Trace.commit(1.2, 1.3, "t2", client_id=1),
        ]
        report = verify(traces, spec=PG_REPEATABLE_READ)
        assert not report.ok
        assert report.violations[0].kind is ViolationKind.FUTURE_READ

    def test_non_repeatable_read_legal_under_rc(self):
        traces = [
            Trace.read(0.0, 0.1, "t2", {"x": 0}, client_id=1),
            *writer("t1", "x", 1, 0.5),
            Trace.read(1.0, 1.1, "t2", {"x": 1}, client_id=1),
            Trace.commit(1.2, 1.3, "t2", client_id=1),
        ]
        assert verify(traces, spec=PG_READ_COMMITTED).ok

    def test_dirty_read(self):
        traces = [
            Trace.write(0.0, 0.1, "t1", {"x": 7}, client_id=0),
            Trace.read(0.2, 0.3, "t2", {"x": 7}, client_id=1),  # uncommitted!
            Trace.commit(0.4, 0.5, "t2", client_id=1),
            Trace.abort(0.6, 0.7, "t1", client_id=0),
        ]
        report = verify(traces)
        assert not report.ok
        assert report.violations[0].kind is ViolationKind.DIRTY_READ

    @pytest.mark.parametrize("abort_at", [0.35, 0.6], ids=["aborted", "pending"])
    @pytest.mark.parametrize(
        "observed, kind",
        [
            ({"a": 1, "b": 2}, ViolationKind.DIRTY_READ),
            ({"b": 2}, ViolationKind.DIRTY_READ),
            ({"a": 5, "b": 2}, ViolationKind.UNKNOWN_VERSION),
            ({"a": 1, "b": 3}, ViolationKind.UNKNOWN_VERSION),
        ],
    )
    def test_dirty_read_of_a_partial_row_write(self, abort_at, observed, kind):
        """A write that sets one column of a row leaves the rest as it
        was: a read seeing that column next to the committed rest of the
        row read the write, whether it was still pending or had aborted
        when the reader finished.  A column no image held stays unknown."""
        traces = [
            Trace.write(0.0, 0.1, "t1", {"k": {"b": 2}}, client_id=0),
            Trace.read(0.2, 0.3, "t2", {"k": observed}, client_id=1),
            Trace.commit(0.4, 0.5, "t2", client_id=1),
            Trace.abort(abort_at, abort_at + 0.01, "t1", client_id=0),
        ]
        with cr_oracle.checked():
            report = verify_traces(
                sorted(traces, key=Trace.sort_key),
                spec=PG_SERIALIZABLE,
                initial_db={"k": {"a": 1, "b": 1}},
            )
        assert [v.kind for v in report.violations] == [kind]

    def test_unknown_version(self):
        traces = [
            Trace.read(0.0, 0.1, "t1", {"x": 999}),
            Trace.commit(0.2, 0.3, "t1"),
        ]
        report = verify(traces)
        assert not report.ok
        assert report.violations[0].kind is ViolationKind.UNKNOWN_VERSION

    def test_own_write_lost(self):
        traces = [
            Trace.write(0.0, 0.1, "t1", {"x": 42}),
            Trace.read(0.2, 0.3, "t1", {"x": 0}),  # ignored own write
            Trace.commit(0.4, 0.5, "t1"),
        ]
        report = verify(traces)
        assert not report.ok
        assert report.violations[0].kind is ViolationKind.OWN_WRITE_LOST

    def test_aborted_reader_still_checked(self):
        traces = writer("t1", "x", 1, 0.0) + [
            Trace.read(1.0, 1.1, "t2", {"x": 0}, client_id=1),
            Trace.abort(1.2, 1.3, "t2", client_id=1),
        ]
        report = verify(traces)
        assert not report.ok


class TestColumnReads:
    COLS = {"r": {"a": 1, "b": 2}}

    def test_partial_column_match(self):
        traces = [
            Trace.write(0.0, 0.1, "t1", {"r": {"a": 5}}, client_id=0),
            Trace.commit(0.2, 0.3, "t1", client_id=0),
            Trace.read(1.0, 1.1, "t2", {"r": {"a": 5, "b": 2}}, client_id=1),
            Trace.commit(1.2, 1.3, "t2", client_id=1),
        ]
        report = verify_traces(
            sorted(traces, key=Trace.sort_key),
            spec=PG_SERIALIZABLE,
            initial_db=self.COLS,
        )
        assert report.ok

    def test_partial_column_mismatch(self):
        traces = [
            Trace.write(0.0, 0.1, "t1", {"r": {"a": 5}}, client_id=0),
            Trace.commit(0.2, 0.3, "t1", client_id=0),
            Trace.read(1.0, 1.1, "t2", {"r": {"a": 1}}, client_id=1),  # stale col
            Trace.commit(1.2, 1.3, "t2", client_id=1),
        ]
        report = verify_traces(
            sorted(traces, key=Trace.sort_key),
            spec=PG_SERIALIZABLE,
            initial_db=self.COLS,
        )
        assert not report.ok


class TestNoCRSpec:
    def test_stale_read_not_flagged_without_cr(self):
        """SQLite claims no CR mechanism; stale reads are judged by ME, not
        CR, so the CR verifier stays quiet (dirty reads are still bugs)."""
        spec = profile("sqlite", IsolationLevel.SERIALIZABLE)
        traces = writer("t1", "x", 1, 0.0) + [
            Trace.read(1.0, 1.1, "t2", {"x": 0}, client_id=1),
            Trace.commit(1.2, 1.3, "t2", client_id=1),
        ]
        report = verify(traces, spec=spec)
        cr_violations = [
            v
            for v in report.violations
            if v.kind in (ViolationKind.STALE_READ, ViolationKind.FUTURE_READ)
        ]
        assert not cr_violations
