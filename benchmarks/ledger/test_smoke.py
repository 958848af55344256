"""Self-test of the ledger benchmark: one ``--smoke`` run of every
workload in both modes, then the properties every later issue relies on.

Run by explicit path (it is not in tier-1 ``testpaths`` and takes ~40 s):

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER_DIR))

from common import ledger_rows, load_manifest  # noqa: E402

MANIFEST = load_manifest()
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
OFFLINE = [name for name in WORKLOADS if not name.endswith(".service")]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "result.json"
    run = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--smoke", "--out", str(out), "--allow-dirty"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    lines = [json.loads(line) for line in run.stdout.splitlines() if line.startswith("{")]
    return json.loads(out.read_text()), lines, out


def test_result_lines_follow_the_contract(smoke):
    _doc, lines, _out = smoke
    assert len(lines) == 2 * len(WORKLOADS)
    sections = {
        section: {m["name"]: m["unit"] for m in MANIFEST[section]}
        for section in ("end_to_end", "per_layer")
    }
    for index, line in enumerate(lines):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        declared = sections["end_to_end" if index % 2 == 0 else "per_layer"]
        assert set(line["metrics"]) == set(declared)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == declared[name]
            assert isinstance(metric["value"], (int, float))
        if index % 2 == 0:
            assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_document_carries_provenance_and_raw_samples(smoke):
    doc, _lines, _out = smoke
    assert doc["schema"] == "repro.ledger-bench/v1"
    assert {"commit", "nproc", "python", "seed", "seconds", "stripped_env"} <= set(doc["provenance"])
    assert sorted(doc["workloads"]) == sorted(WORKLOADS)
    for entry in doc["workloads"].values():
        assert len(entry["capture_sha256"]) == 64
        for metric in MANIFEST["end_to_end"]:
            assert len(entry["end_to_end"]["samples"][metric["name"]]) >= 3


@pytest.mark.parametrize("name", WORKLOADS)
def test_ledger_rows_sum_to_the_total(smoke, name):
    doc, _lines, _out = smoke
    metrics = doc["workloads"][name]["per_layer"]["metrics"]
    total = metrics["ledger.total_s"]
    assert sum(ledger_rows(metrics).values()) == pytest.approx(total, rel=0.01)
    assert "trace.overhead_share" in metrics
    if name in OFFLINE:
        assert metrics["ledger.unattributed_share"] < 0.10


def test_service_open_loop_holds_its_schedule(smoke):
    doc, _lines, _out = smoke
    metrics = doc["workloads"]["blindw-rw.service"]["per_layer"]["metrics"]
    assert metrics["service.offered_rate"] == pytest.approx(10_000, rel=0.01)
    assert metrics["service.generator_late_ms_p95"] < 5.0
    assert metrics["service.budget_stalls"] == 0
    assert 0 < metrics["ack_p50_ms"] <= metrics["ack_p90_ms"] <= metrics["service.ack_p99_ms"]


def test_compare_accepts_a_document_against_itself(smoke):
    _doc, _lines, out = smoke
    run = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "compare.py"), str(out), str(out)],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert " worse" not in run.stdout


def test_canary_fails_when_a_mechanism_is_not_checked(tmp_path):
    """Verified against RC, which assembles no FUW, the canary must fail."""
    from workloads import check_canary

    _attempted, problems = check_canary(tmp_path / "canary", level="RC")
    assert any("[FUW/" in problem for problem in problems)


def test_refuses_a_checkout_without_the_program(tmp_path):
    bare = tmp_path / "benchmarks" / "ledger"
    bare.mkdir(parents=True)
    for path in LEDGER_DIR.glob("*.py"):
        (bare / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(MANIFEST))
    run = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert run.returncode != 0
    assert run.stdout == ""
