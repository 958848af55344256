"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import (
    PG_SERIALIZABLE,
    Verifier,
    pipeline_from_client_streams,
)
from repro.workloads import run_workload


def verify_run(run, spec, **kwargs):
    """Pipeline + verifier over a workload run; returns the report."""
    verifier = Verifier(spec=spec, initial_db=run.initial_db, **kwargs)
    for batch in pipeline_from_client_streams(run.client_streams).iter_batches():
        verifier.process_batch(batch)
    return verifier.finish()


def with_nan_timestamps(trace):
    """``trace`` re-timed to ``(nan, nan)`` -- what a capture or a wire
    frame can carry, but ``Interval`` refuses to construct -- by filling
    an interval's slots without its constructor."""
    from repro.core.intervals import Interval

    interval = object.__new__(Interval)
    interval.ts_bef = interval.ts_aft = float("nan")
    trace.interval = interval
    return trace


def run_and_verify(workload, spec, clients=8, txns=300, seed=3, faults=None, **kwargs):
    run = run_workload(
        workload, spec, clients=clients, txns=txns, seed=seed, faults=faults, **kwargs
    )
    return run, verify_run(run, spec)


@pytest.fixture(scope="session")
def blindw_rw_run():
    """One medium BlindW-RW run on a clean serializable engine, shared by
    read-only tests."""
    from repro.workloads import BlindW

    return run_workload(
        BlindW.rw(keys=256), PG_SERIALIZABLE, clients=8, txns=400, seed=3
    )


@pytest.fixture(scope="session")
def smallbank_run():
    from repro.workloads import SmallBank

    return run_workload(
        SmallBank(scale_factor=0.05), PG_SERIALIZABLE, clients=8, txns=400, seed=3
    )
