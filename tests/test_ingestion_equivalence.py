"""Format equivalence, pinned at the report level: both serialisation
formats have to produce *identical* verification reports over the same
workload run.  (How the dispatch stream is cut into batches is
``tests/test_cut_invariance.py``'s subject.)
"""

import dataclasses
import io

import pytest

from repro import PG_SERIALIZABLE, Verifier, pipeline_from_client_streams
from repro.core.codec import dump_traces_binary, load_traces_binary
from repro.core.io import (
    dump_client_streams,
    dump_traces,
    load_client_streams,
    load_traces,
)


def report_fingerprint(report):
    """Everything observable about a report (it holds no timing)."""
    stats = dataclasses.asdict(report.stats)
    return {
        "summary": report.summary(),
        "ok": report.ok,
        "violations": [str(v) for v in report.violations],
        "witnesses": report.descriptor.raw_count,
        "stats": stats,
    }


def verify_batched(run, streams=None):
    verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=run.initial_db)
    pipeline = pipeline_from_client_streams(
        run.client_streams if streams is None else streams
    )
    for batch in pipeline.iter_batches():
        verifier.process_batch(batch)
    return verifier.finish()


class TestFormatEquivalence:
    @staticmethod
    def roundtrip(streams, fmt):
        out = {}
        for client_id, traces in streams.items():
            if fmt == "binary":
                buf = io.BytesIO()
                dump_traces_binary(traces, buf)
                buf.seek(0)
                out[client_id] = list(load_traces_binary(buf))
            else:
                buf = io.StringIO()
                dump_traces(traces, buf)
                buf.seek(0)
                out[client_id] = list(load_traces(buf))
        return out

    def test_binary_equals_jsonl_report(self, blindw_rw_run):
        direct = report_fingerprint(verify_batched(blindw_rw_run))
        for fmt in ("jsonl", "binary"):
            streams = self.roundtrip(blindw_rw_run.client_streams, fmt)
            assert report_fingerprint(
                verify_batched(blindw_rw_run, streams=streams)
            ) == direct, f"{fmt} round-trip changed the report"

    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    def test_capture_directory_round_trip(self, tmp_path, blindw_rw_run, fmt):
        capture = tmp_path / fmt
        paths = dump_client_streams(
            blindw_rw_run.client_streams, capture, fmt=fmt
        )
        suffix = ".rtb" if fmt == "binary" else ".jsonl"
        assert all(p.suffix == suffix for p in paths)
        loaded = load_client_streams(capture)
        direct = report_fingerprint(verify_batched(blindw_rw_run))
        assert report_fingerprint(
            verify_batched(blindw_rw_run, streams=loaded)
        ) == direct
