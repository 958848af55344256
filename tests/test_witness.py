"""Witness extraction: fragments reproduce their violations."""

import pytest

from repro import PG_REPEATABLE_READ, Verifier, Trace
from repro.core.witness import (
    extract_witness,
    transactions_touching,
    witness_summary,
)
from repro.dbsim import FaultPlan
from repro.workloads import LostUpdateWorkload, run_workload
from tests.conftest import verify_run


@pytest.fixture(scope="module")
def buggy_run():
    return run_workload(
        LostUpdateWorkload(counters=4),
        PG_REPEATABLE_READ,
        clients=10,
        txns=400,
        seed=5,
        faults=FaultPlan(disable_fuw=True),
    )


@pytest.fixture(scope="module")
def buggy_report(buggy_run):
    return verify_run(buggy_run, PG_REPEATABLE_READ)


class TestExtraction:
    def test_touching(self):
        traces = [
            Trace.read(0.0, 0.1, "t1", {"x": 0}),
            Trace.write(0.2, 0.3, "t2", {"y": 1}),
        ]
        assert transactions_touching(traces, "x") == {"t1"}
        assert transactions_touching(traces, "y") == {"t2"}
        assert transactions_touching(traces, "z") == set()

    def test_witness_contains_implicated_txns(self, buggy_run, buggy_report):
        violation = buggy_report.violations[0]
        witness = extract_witness(violation, buggy_run.all_traces_sorted())
        txns_present = {t.txn_id for t in witness}
        assert set(violation.txns) - {"__init__"} <= txns_present

    def test_witness_much_smaller_than_history(self, buggy_run, buggy_report):
        violation = buggy_report.violations[0]
        full = buggy_run.all_traces_sorted()
        witness = extract_witness(violation, full)
        assert len(witness) < len(full) / 2

    def test_witness_sorted(self, buggy_run, buggy_report):
        violation = buggy_report.violations[0]
        witness = extract_witness(violation, buggy_run.all_traces_sorted())
        stamps = [t.ts_bef for t in witness]
        assert stamps == sorted(stamps)

    def test_witness_reproduces_violation(self, buggy_run, buggy_report):
        """Re-verifying the fragment alone still flags the same (mechanism,
        kind, key) violation."""
        violation = buggy_report.violations[0]
        witness = extract_witness(violation, buggy_run.all_traces_sorted())
        verifier = Verifier(
            spec=PG_REPEATABLE_READ, initial_db=buggy_run.initial_db
        )
        verifier.process_all(witness)
        replayed = verifier.finish()
        assert not replayed.ok
        assert any(
            v.kind is violation.kind and v.key == violation.key
            for v in replayed.violations
        )

    def test_summary_rendering(self, buggy_run, buggy_report):
        violation = buggy_report.violations[0]
        witness = extract_witness(violation, buggy_run.all_traces_sorted())
        text = witness_summary(witness)
        assert "COMMIT" in text
        assert violation.txns[0] in text or violation.txns[1] in text
