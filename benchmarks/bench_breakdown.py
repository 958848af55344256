"""Extension: per-mechanism verification time breakdown.

Shape asserted: the serialization certifier (SC) -- the component whose
cost explodes in whole-history cycle searching -- stays a minor share of
mechanism time under mechanism-mirrored verification, supporting the
paper's Section III argument.  Each mechanism-heavy workload is timed in
its own benchmark group.
"""

import pytest

from repro import PG_SERIALIZABLE
from repro.core.metrics import MetricsRegistry

from conftest import verify_full


def shares(report):
    buckets = report.stats.mechanism_seconds
    total = sum(buckets.values()) or 1.0
    return {name: buckets.get(name, 0.0) / total for name in ("CR", "ME", "FUW", "SC")}


def timed(run):
    """The per-mechanism timers are an instrument: on with a registry."""
    return verify_full(run, PG_SERIALIZABLE, metrics=MetricsRegistry())


def test_breakdown_sc_is_minor(blindw_rw_run):
    report = timed(blindw_rw_run)
    assert report.ok
    assert shares(report)["SC"] < 0.5


def test_breakdown_all_mechanisms_exercised(smallbank_run):
    report = timed(smallbank_run)
    split = shares(report)
    for mechanism in ("CR", "ME", "FUW"):
        assert split[mechanism] > 0.0, mechanism


@pytest.mark.benchmark(group="breakdown")
def test_breakdown_instrumentation_overhead(benchmark, blindw_rw_run):
    """The per-mechanism timers run on every commit of an instrumented
    run; this benchmark keeps their overhead visible relative to the
    fig11/fig14 numbers."""
    report = benchmark(lambda: timed(blindw_rw_run))
    assert report.ok
