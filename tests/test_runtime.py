"""The interpreter's collector and the verification spine.

Two promises (docs/architecture.md, "Process model and the interpreter's
collector"):

* a running verifier allocates no reference cycles -- everything the
  spine drops is freed by reference count, so the relaxed collector of
  ``repro.core.runtime.relax_collector`` has nothing to find;
* only the processes the package owns run under that policy: importing
  ``repro``, building verifiers or calling ``main(argv)`` in-process
  leaves the caller's collector alone.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import codec
from repro.core.codec import decode_batch, encode_batch
from repro.core.metrics import MetricsRegistry
from repro.core.online import OnlineVerifier
from repro.core.parallel import ParallelVerifier
from repro.core.pipeline import pipeline_from_client_streams
from repro.core.spec import PG_SERIALIZABLE
from repro.core.trace import SEQ_BITS
from repro.core.verifier import Verifier
from repro.workloads import BlindW, run_workload

SRC = str(Path(__file__).resolve().parents[1] / "src")
FRAME = 64


@pytest.fixture(scope="module")
def workload():
    """A seeded BlindW-RW+ history as encoded per-client frames."""
    run = run_workload(
        BlindW.rw_plus(keys=64), PG_SERIALIZABLE, clients=4, txns=300, seed=5
    )
    frames = {}
    for client, stream in run.client_streams.items():
        traces = list(stream)
        frames[client] = [
            encode_batch(traces[i : i + FRAME]) for i in range(0, len(traces), FRAME)
        ]
    return frames, run.initial_db


def decoded(client, index, payload):
    return decode_batch(payload, first_trace_id=(client << SEQ_BITS) + index * FRAME)


def client_streams(frames):
    """Lazy per-client streams: one frame decoded per pull, like a capture."""
    return {
        client: (
            trace
            for index, payload in enumerate(payloads)
            for trace in decoded(client, index, payload)
        )
        for client, payloads in frames.items()
    }


def run_offline(verifier, frames):
    for batch in pipeline_from_client_streams(client_streams(frames)).iter_batches():
        verifier.process_batch(batch)
    assert verifier.finish().ok
    return verifier


def run_serial(frames, initial_db):
    return run_offline(Verifier(spec=PG_SERIALIZABLE, initial_db=initial_db), frames)


def run_sharded(frames, initial_db):
    verifier = ParallelVerifier(
        spec=PG_SERIALIZABLE, initial_db=initial_db, shards=2, backend="inline"
    )
    return run_offline(verifier, frames)


def run_online(frames, initial_db):
    online = OnlineVerifier(spec=PG_SERIALIZABLE, initial_db=initial_db)
    for client in frames:
        online.register_client(client)
    for index in range(max(len(payloads) for payloads in frames.values())):
        for client, payloads in frames.items():
            if index < len(payloads):
                online.feed_batch(client, decoded(client, index, payloads[index]))
            elif index == len(payloads):
                online.heartbeat(client, float("inf"))
    assert online.finish().ok
    return online


def unreachable_during(run, *args):
    """Everything the collector finds unreachable while ``run`` executes
    and once it is done -- with the verifier itself still referenced: its
    own object graph is torn down once per process, not per trace."""
    verifier = None
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        verifier = run(*args)
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        del verifier
        gc.collect()


@pytest.mark.parametrize("run", [run_serial, run_sharded, run_online])
def test_the_spine_allocates_no_reference_cycles(workload, run):
    found = unreachable_during(run, *workload)
    ours = [
        obj
        for obj in found
        if type(obj).__module__.startswith("repro.")
        or isinstance(obj, (bytes, bytearray))
        or getattr(obj, "__module__", None) == codec.__name__
    ]
    # A closure cell has no module; the function it belongs to is in
    # ``found`` beside it, so one closure cycle shows up above.
    assert not ours, f"{len(ours)} of {len(found)} unreachable objects are ours"


def test_decode_batch_lets_go_of_its_payload(workload):
    frames, _ = workload
    payload = bytes(bytearray(next(iter(frames.values()))[0]))  # a fresh object
    held = sys.getrefcount(payload)
    gc.disable()
    try:
        traces = decode_batch(payload)
        assert sys.getrefcount(payload) == held
    finally:
        gc.enable()
    assert len(traces) == FRAME


class TestCollectorWatch:
    # repro.core.runtime is imported where it is used: the invariant and
    # politeness tests in this file must also run against a tree without it.

    def test_counts_and_times_passes_until_closed(self):
        from repro.core.runtime import CollectorWatch

        metrics = MetricsRegistry()
        with CollectorWatch(metrics):
            gc.collect(0)
            gc.collect(2)
            counters = metrics.snapshot()["counters"]
        gc.collect()
        assert counters["runtime.gc.collections{gen=0}"] == 1
        assert counters["runtime.gc.collections{gen=1}"] == 0
        assert counters["runtime.gc.collections{gen=2}"] == 1
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == counters  # closed: the last pass is not ours
        assert snapshot["histograms"]["runtime.gc.seconds"]["count"] == 2
        assert snapshot["gauges"]["runtime.gc.threshold{gen=0}"] == gc.get_threshold()[0]
        assert snapshot["gauges"]["runtime.gc.frozen"] == gc.get_freeze_count()

    def test_nothing_installed_without_an_enabled_registry(self):
        from repro.core.runtime import CollectorWatch

        before = list(gc.callbacks)
        for metrics in (None, MetricsRegistry(enabled=False)):
            watch = CollectorWatch(metrics)
            assert gc.callbacks == before
            watch.close()

    def test_online_verifier_watches_until_finish(self, workload):
        frames, initial_db = workload
        before = list(gc.callbacks)
        online = OnlineVerifier(
            verifier=Verifier(
                spec=PG_SERIALIZABLE, initial_db=initial_db, metrics=MetricsRegistry()
            )
        )
        assert len(gc.callbacks) == len(before) + 1
        gc.collect(0)
        counters = online.snapshot()["metrics"]["counters"]
        assert counters["runtime.gc.collections{gen=0}"] >= 1
        online.finish()
        assert gc.callbacks == before


# -- the library stays polite; the processes we own do not ------------------------


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    from repro.core.io import dump_client_streams, dump_initial_db

    directory = tmp_path_factory.mktemp("runtime") / "cap"
    run = run_workload(BlindW.rw(keys=64), PG_SERIALIZABLE, clients=4, txns=200, seed=3)
    dump_client_streams(run.client_streams, directory, fmt="binary")
    dump_initial_db(run.initial_db, directory / "initial_db.json")
    return directory


def python(*argv):
    return subprocess.run(
        [sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_library_use_leaves_the_callers_collector_alone(capture, tmp_path):
    stats = tmp_path / "stats.json"
    script = f"""
import gc, json
policy = (gc.get_threshold(), gc.get_freeze_count(), list(gc.callbacks))
import repro
from repro import OnlineVerifier, ParallelVerifier, Verifier
from repro.core.io import load_client_streams
from repro.__main__ import main
Verifier()
OnlineVerifier()
for backend in ("inline", "process"):
    sharded = ParallelVerifier(shards=2, backend=backend)
    for stream in load_client_streams({str(capture)!r}).values():
        sharded.process_batch(list(stream)[:40])
        break
    sharded.finish()
for extra in (["--parallel", "2"], []):
    assert main(["verify", {str(capture)!r}, "--stats-json", {str(stats)!r}, *extra]) == 0
assert (gc.get_threshold(), gc.get_freeze_count(), list(gc.callbacks)) == policy
# What the serial run's own stats say about the process it ran in.
gauges = json.load(open({str(stats)!r}))["metrics"]["gauges"]
assert gauges.get("runtime.gc.threshold{{gen=0}}", policy[0][0]) == policy[0][0], gauges
assert gauges.get("runtime.gc.frozen", 0) == 0, gauges
"""
    run = python("-c", script)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("extra", [[], ["--parallel", "2"]], ids=["serial", "parallel2"])
def test_the_cli_process_runs_under_the_policy(capture, tmp_path, extra):
    from repro.core.runtime import GEN0_THRESHOLD

    stats = tmp_path / "stats.json"
    run = python("-m", "repro", "verify", str(capture), "--stats-json", str(stats), *extra)
    assert run.returncode == 0, run.stderr
    metrics = json.loads(stats.read_text())["metrics"]
    gauges, counters = metrics["gauges"], metrics["counters"]
    assert gauges["runtime.gc.threshold{gen=0}"] == GEN0_THRESHOLD
    assert gauges["runtime.gc.frozen"] > 0
    passes = sum(
        value for key, value in counters.items() if key.startswith("runtime.gc.collections")
    )
    assert passes <= 20
