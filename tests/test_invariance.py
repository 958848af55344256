"""Invariance: one history, one report, however it was stored.

Metamorphic relations over a recorded history: settings that must not
matter -- here, how the capture is written to disk -- are varied and the
report compared under one key, :func:`report_key`.  Each relation runs
over the clean BlindW-RW history and the six fault cases of
``tests/test_parallel.py``, so a relation is checked against reports that
hold violations of every mechanism, not only against "no violations" --
:func:`test_each_fault_case_plants_what_it_names` keeps them so.

* **Capture format.** The per-client directory written as JSONL and as
  ``.rtb`` frames verifies to the same report.
* **Frame size.** The ``.rtb`` directory written with 1, 7, 64, 512 and
  4 096 traces per frame verifies to the same report.  Frames decide
  which strings share a string table, and so when the decoder's canonical
  string table retires a generation (``codec.read_strings``).
* **Client labels.** Reversing the client ids (file names and every
  trace's ``client_id``) verifies to the same report.  Client ids decide
  the trace ids stamped at decode, and so every timestamp tie-break of
  the dispatch order, and they key the session-order edges.
* **Clock origin.** Shifting every timestamp by +1e3 s or by +1.7e9 s (a
  Unix epoch clock) verifies to the same report.  A larger origin (the
  +1.7e12 s of a millisecond clock read as seconds) is left out: it
  coarsens the intervals, and the report moves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro import PG_SERIALIZABLE, Verifier, pipeline_from_client_streams
from repro.core.codec import dump_traces_binary
from repro.core.intervals import Interval
from repro.core.io import BINARY_SUFFIX, dump_client_streams, load_client_streams
from repro.workloads import BlindW, run_workload

from tests.test_parallel import FAULT_CASES, fault_run

CASES = ("clean", *FAULT_CASES)
FRAME_SIZES = (1, 7, 64, 512, 4096)
CLOCK_SHIFTS = (1e3, 1.7e9)


def report_key(report):
    """What a relation compares: the sorted ``(mechanism, kind, txns,
    key)`` of each violation, plus the verdict counts."""
    violations = sorted(
        (v.mechanism.name, v.kind.name, tuple(v.txns), repr(v.key))
        for v in report.violations
    )
    kinds = sorted(Counter(kind for _, kind, _, _ in violations).items())
    stats = report.stats
    counts = (
        report.ok,
        len(violations),
        kinds,
        stats.traces_processed,
        stats.txns_committed,
        stats.txns_aborted,
    )
    return violations, counts


def case_run(name):
    """The clean history or one fault case, with the workload parameters
    ``fault_run`` uses."""
    if name == "clean":
        return run_workload(
            BlindW.rw(keys=64), PG_SERIALIZABLE, clients=8, txns=300, seed=7
        )
    return fault_run(name)


@pytest.fixture(scope="module", params=CASES)
def case(request):
    """``(name, run)`` of one case."""
    return request.param, case_run(request.param)


def test_each_fault_case_plants_what_it_names():
    """Every fault case reports a violation of the mechanism it names,
    and no two cases (the clean one included) verify to the same report:
    a fault that fires nowhere would duplicate another case's report."""
    keys = {}
    for name in CASES:
        run = case_run(name)
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=run.initial_db)
        report = verifier.process_all(
            pipeline_from_client_streams(run.client_streams)
        ).finish()
        if name != "clean":
            mechanism = FAULT_CASES[name].mechanism
            assert any(v.mechanism is mechanism for v in report.violations), name
        keys[name] = report_key(report)
    assert len({repr(key) for key in keys.values()}) == len(CASES), keys


def verify_directory(directory, run):
    """The report of a capture directory, read back as ``repro verify``
    reads it."""
    verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=run.initial_db)
    pipeline = pipeline_from_client_streams(load_client_streams(directory))
    for batch in pipeline.iter_batches():
        verifier.process_batch(batch)
    return verifier.finish()


def test_capture_format_does_not_change_the_report(case, tmp_path):
    name, run = case
    keys = {}
    for fmt in ("jsonl", "binary"):
        dump_client_streams(run.client_streams, tmp_path / fmt, fmt=fmt)
        keys[fmt] = report_key(verify_directory(tmp_path / fmt, run))
    assert keys["jsonl"] == keys["binary"], name
    # The relation is only as strong as the reports it compares.
    assert bool(keys["binary"][0]) == (name != "clean"), name


def test_frame_size_does_not_change_the_report(case, tmp_path):
    name, run = case
    keys = {}
    for size in FRAME_SIZES:
        directory = tmp_path / f"frames{size}"
        directory.mkdir()
        for client_id, traces in run.client_streams.items():
            path = directory / f"client-{client_id}{BINARY_SUFFIX}"
            dump_traces_binary(traces, path, batch_size=size)
        keys[size] = report_key(verify_directory(directory, run))
    assert all(key == keys[1] for key in keys.values()), (
        name, {size: key[1] for size, key in keys.items()},
    )


def rewritten(run, client_of, shift):
    """The run's client streams with every client renamed by
    ``client_of`` and every timestamp moved by ``shift`` seconds."""
    return {
        client_of(client_id): [
            replace(
                trace,
                client_id=client_of(client_id),
                interval=Interval(
                    trace.interval.ts_bef + shift, trace.interval.ts_aft + shift
                ),
            )
            for trace in traces
        ]
        for client_id, traces in run.client_streams.items()
    }


def report_of_rewrite(run, directory, client_of=lambda c: c, shift=0.0):
    dump_client_streams(rewritten(run, client_of, shift), directory, fmt="binary")
    return report_key(verify_directory(directory, run))


def test_client_relabelling_does_not_change_the_report(case, tmp_path):
    name, run = case
    last = max(run.client_streams)
    plain = report_of_rewrite(run, tmp_path / "plain")
    reversed_ = report_of_rewrite(run, tmp_path / "reversed", lambda c: last - c)
    assert reversed_ == plain, name
    assert bool(plain[0]) == (name != "clean"), name


@pytest.mark.parametrize("shift", CLOCK_SHIFTS)
def test_clock_origin_does_not_change_the_report(case, tmp_path, shift):
    name, run = case
    plain = report_of_rewrite(run, tmp_path / "plain")
    shifted = report_of_rewrite(run, tmp_path / "shifted", shift=shift)
    assert shifted == plain, (name, shifted[1], plain[1])
    assert bool(plain[0]) == (name != "clean"), name
