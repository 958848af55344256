"""Trace model: construction, normalisation, matching."""

import pytest

from repro.core.trace import (
    DEFAULT_COLUMN,
    OpKind,
    OpStatus,
    Trace,
    as_columns,
    reads_match,
)


class TestAsColumns:
    def test_scalar_normalised(self):
        assert as_columns(42) == {DEFAULT_COLUMN: 42}

    def test_mapping_passthrough(self):
        assert as_columns({"a": 1, "b": 2}) == {"a": 1, "b": 2}

    def test_none_scalar(self):
        assert as_columns(None) == {DEFAULT_COLUMN: None}


class TestConstruction:
    def test_read_trace(self):
        trace = Trace.read(1.0, 2.0, "t1", {"x": 5}, client_id=3, op_index=2)
        assert trace.kind is OpKind.READ
        assert trace.reads == {"x": {DEFAULT_COLUMN: 5}}
        assert trace.writes == {}
        assert trace.client_id == 3
        assert trace.op_index == 2
        assert not trace.is_terminal

    def test_write_trace(self):
        trace = Trace.write(1.0, 2.0, "t1", {"x": {"a": 1}})
        assert trace.kind is OpKind.WRITE
        assert trace.writes == {"x": {"a": 1}}

    def test_commit_and_abort(self):
        commit = Trace.commit(1.0, 2.0, "t1")
        abort = Trace.abort(1.0, 2.0, "t1")
        assert commit.is_terminal and abort.is_terminal
        assert commit.kind is OpKind.COMMIT
        assert abort.kind is OpKind.ABORT

    def test_for_update_flag(self):
        trace = Trace.read(1.0, 2.0, "t1", {"x": 5}, for_update=True)
        assert trace.for_update

    def test_failed_status(self):
        trace = Trace.read(1.0, 2.0, "t1", {}, status=OpStatus.FAILED)
        assert trace.status is OpStatus.FAILED

    def test_trace_ids_monotone(self):
        a = Trace.read(0, 1, "t", {})
        b = Trace.read(0, 1, "t", {})
        assert b.trace_id > a.trace_id

    def test_sort_key_ties_broken_by_id(self):
        a = Trace.read(5, 6, "t", {})
        b = Trace.read(5, 6, "u", {})
        assert sorted([b, a], key=Trace.sort_key) == [a, b]

    def test_timestamp_accessors(self):
        trace = Trace.commit(1.5, 2.5, "t1")
        assert trace.ts_bef == 1.5
        assert trace.ts_aft == 2.5

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Trace.read(2.0, 1.0, "t1", {})


class TestReadsMatch:
    def test_exact(self):
        assert reads_match({"v": 1}, {"v": 1})

    def test_subset_of_image(self):
        assert reads_match({"a": 1}, {"a": 1, "b": 2})

    def test_mismatch(self):
        assert not reads_match({"a": 1}, {"a": 2})

    def test_missing_column_matches_none_observation(self):
        assert reads_match({"a": None}, {"b": 2})
        assert not reads_match({"a": 1}, {"b": 2})

    def test_empty_observation_matches_anything(self):
        assert reads_match({}, {"a": 1})
