"""Metrics/tracing subsystem: registry semantics, no-op guarantees,
end-to-end instrumentation equivalence and the operator surfaces.

Schema and naming conventions are documented in docs/observability.md;
the mechanism-author side is in docs/architecture.md ("The assembly and
the exchange").
"""

import json

import pytest

from repro import (
    MetricsRegistry,
    OnlineVerifier,
    PG_SERIALIZABLE,
    Verifier,
    pipeline_from_client_streams,
    run_stats,
)
from repro.core.bus import DependencyBus
from repro.core.dependencies import Dependency, DepType
from repro.core.intervals import Interval
from repro.core.metrics import (
    NULL_REGISTRY,
    NullInstrument,
    PHASES,
    metric_key,
    parse_metric_key,
    phase_breakdown,
    render_stats,
)
from repro.core.parallel import ParallelVerifier
from repro.core.report import Mechanism
from repro.core.state import VerifierState
from repro.workloads import BlindW, run_workload


@pytest.fixture(scope="module")
def workload_run():
    return run_workload(
        BlindW.rw(keys=128), PG_SERIALIZABLE, clients=6, txns=300, seed=11
    )


def _instrumented_verify(run, **kwargs):
    metrics = MetricsRegistry()
    verifier = Verifier(
        spec=PG_SERIALIZABLE, initial_db=run.initial_db, metrics=metrics, **kwargs
    )
    for trace in pipeline_from_client_streams(run.client_streams, metrics=metrics):
        verifier.process(trace)
    return verifier.finish(), metrics


MECHANISM_PREFIXES = ("cr.", "me.", "fuw.", "sc.", "bus.", "gc.")


def _mechanism_counters(registry):
    return {
        key: value
        for key, value in registry.snapshot()["counters"].items()
        if key.startswith(MECHANISM_PREFIXES)
    }


class TestMetricKeys:
    def test_round_trip(self):
        key = metric_key("bus.deps.accepted", {"type": "ww", "mechanism": "ME"})
        assert key == "bus.deps.accepted{mechanism=ME,type=ww}"
        assert parse_metric_key(key) == (
            "bus.deps.accepted",
            {"mechanism": "ME", "type": "ww"},
        )

    def test_unlabelled(self):
        assert metric_key("cr.reads.checked", {}) == "cr.reads.checked"
        assert parse_metric_key("cr.reads.checked") == ("cr.reads.checked", {})


class TestRegistrySemantics:
    def test_counter_handles_are_shared(self):
        registry = MetricsRegistry()
        handle = registry.counter("x.events", kind="a")
        handle.inc()
        registry.counter("x.events", kind="a").inc(2)
        assert registry.counter_value("x.events", kind="a") == 3
        assert registry.counter_value("x.events", kind="b") == 0

    def test_gauge_set_and_high_watermark(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("x.depth")
        gauge.set(5)
        gauge.high_watermark(3)
        assert registry.snapshot()["gauges"]["x.depth"] == 5
        gauge.high_watermark(9)
        assert registry.snapshot()["gauges"]["x.depth"] == 9

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("x.seconds")
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        summary = registry.snapshot()["histograms"]["x.seconds"]
        assert summary["count"] == 3
        assert summary["total"] == 6.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == 2.0

    def test_histogram_timer_observes_elapsed(self):
        registry = MetricsRegistry()
        with registry.timer("x.seconds"):
            pass
        summary = registry.snapshot()["histograms"]["x.seconds"]
        assert summary["count"] == 1
        assert summary["total"] >= 0.0

    def test_merge_snapshot(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n.events", 2)
        b.inc("n.events", 3)
        b.set_gauge("n.depth", 7)
        b.observe("n.seconds", 1.5)
        a.observe("n.seconds", 0.5)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["n.events"] == 5
        assert snap["gauges"]["n.depth"] == 7
        assert snap["histograms"]["n.seconds"]["count"] == 2
        assert snap["histograms"]["n.seconds"]["total"] == 2.0
        assert snap["histograms"]["n.seconds"]["max"] == 1.5


class TestDisabledRegistry:
    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("x.events").inc()
        registry.gauge("x.depth").set(4)
        with registry.timer("x.seconds"):
            pass
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_disabled_handles_are_the_shared_null_instrument(self):
        registry = MetricsRegistry(enabled=False)
        assert isinstance(registry.counter("a"), NullInstrument)
        assert registry.counter("a") is registry.histogram("b")
        assert registry.gauge("c") is NULL_REGISTRY.counter("d")

    def test_uninstrumented_verification_has_zero_side_effects(self, workload_run):
        baseline, _ = _instrumented_verify(workload_run)
        verifier = Verifier(
            spec=PG_SERIALIZABLE, initial_db=workload_run.initial_db
        )
        for trace in pipeline_from_client_streams(workload_run.client_streams):
            verifier.process(trace)
        report = verifier.finish()
        assert report.summary() == baseline.summary()
        assert verifier.metrics.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


#: ``verify --stats-json`` over the BlindW-RW+ capture below, as printed by
#: the commit before per-event instrument calls were folded into
#: per-terminal increments / put behind ``registry.enabled``: the folded
#: counters must keep reading exactly these.  The ``bus.deps.accepted`` and
#: ``sc.deps.certified`` values count distinct typed edges, each delivered
#: once (FUW delivers no ww edge ME has not delivered before it).
OFF_MEANS_OFF_COUNTERS = {
    "bus.deps.accepted{mechanism=CR,type=wr}": 2259,
    "bus.deps.accepted{mechanism=ME,type=ww}": 325,
    "bus.deps.accepted{mechanism=SC,type=rw}": 2821,
    "bus.deps.accepted{mechanism=SC,type=so}": 1886,
    "cr.reads.ambiguous": 0,
    "cr.reads.checked": 46562,
    "cr.reads.unique_match": 46562,
    "cr.scans.checked": 0,
    "fuw.interval_pairs.checked": 327,
    "fuw.writes.checked": 7144,
    "fuw.ww.deduced": 327,
    "me.lock_pairs.checked": 369,
    "me.locks.acquired": 7404,
    "me.ww.deduced": 327,
    "sc.deps.certified": 7291,
}
OFF_MEANS_OFF_CANDIDATES = {
    "count": 46562, "total": 46687.0, "min": 1, "max": 2,
    "mean": 1.002684592586229,
}


class TestOffMeansOff:
    """An uninstrumented run executes no instrument call per read, per
    lock/writer pair or per dependency -- and an instrumented one prints
    the numbers it always printed."""

    @pytest.fixture(scope="class")
    def capture(self, tmp_path_factory):
        from repro.__main__ import main

        capture = tmp_path_factory.mktemp("off-means-off") / "capture"
        assert main(
            [
                "run", "--workload", "blindw-rw+", "--txns", "2000",
                "--clients", "8", "--seed", "11", "--format", "binary",
                "--out", str(capture),
            ]
        ) == 0
        return capture

    def test_disabled_run_makes_no_per_event_instrument_calls(
        self, capture, monkeypatch
    ):
        from repro.core.io import load_client_streams, load_initial_db

        calls = {"inc": 0, "observe": 0, "set": 0, "high_watermark": 0}

        def stub(name):
            def counted(self, *args):
                calls[name] += 1

            return counted

        for name in calls:
            monkeypatch.setattr(NullInstrument, name, stub(name))
        verifier = Verifier(
            spec=PG_SERIALIZABLE,
            initial_db=load_initial_db(capture / "initial_db.json"),
        )
        batches = 0
        for batch in pipeline_from_client_streams(
            load_client_streams(capture)
        ).iter_batches():
            verifier.process_batch(batch)
            batches += 1
        stats = verifier.finish().stats
        txns = stats.txns_committed + stats.txns_aborted
        assert txns >= 2000 and stats.reads_checked > 4 * txns
        # Per-terminal and per-batch calls would fit; per-read, per-pair
        # or per-dependency calls would not.
        assert sum(calls.values()) <= 4 * txns + 8 * batches, (calls, txns, batches)

    def test_disabled_run_reads_no_clock_per_terminal_or_dependency(
        self, capture, monkeypatch
    ):
        """The ``mechanism.seconds`` timers are an instrument too: without
        a registry neither the terminal dispatch nor the bus's timed
        delivery calls ``time.perf_counter`` (it was ~10 reads per
        terminal and 2 per dependency for a timing no report prints)."""
        import time

        from repro.core.io import load_client_streams, load_initial_db

        reads = [0]
        plain = time.perf_counter

        def perf_counter():
            reads[0] += 1
            return plain()

        verifier = Verifier(
            spec=PG_SERIALIZABLE,
            initial_db=load_initial_db(capture / "initial_db.json"),
        )
        batches = list(
            pipeline_from_client_streams(load_client_streams(capture)).iter_batches()
        )
        monkeypatch.setattr(time, "perf_counter", perf_counter)
        for batch in batches:
            verifier.process_batch(batch)
        stats = verifier.finish().stats
        monkeypatch.undo()
        assert stats.txns_committed + stats.txns_aborted >= 2000
        assert stats.deps_total > 2000
        assert reads[0] == 0

    def test_enabled_run_prints_the_same_numbers(self, capture, tmp_path):
        from repro.__main__ import main

        stats_path = tmp_path / "stats.json"
        assert main(["verify", str(capture), "--stats-json", str(stats_path)]) == 0
        metrics = json.loads(stats_path.read_text())["metrics"]
        counters = metrics["counters"]
        assert {
            key: counters.get(key) for key in OFF_MEANS_OFF_COUNTERS
        } == OFF_MEANS_OFF_COUNTERS
        assert metrics["histograms"]["cr.candidate_set.size"] == (
            OFF_MEANS_OFF_CANDIDATES
        )
        # What the folded increments must add up to, whatever the capture:
        # every checked pair / matched read bumps ``conflict_pairs`` once.
        stats = json.loads(stats_path.read_text())["stats"]
        assert stats["conflict_pairs"] == (
            counters["me.lock_pairs.checked"]
            + counters["fuw.interval_pairs.checked"]
            + counters["cr.reads.unique_match"]
            + counters["cr.reads.ambiguous"]
        )
        assert counters["fuw.writes.checked"] == stats["writes_checked"]


class TestEndToEndInstrumentation:
    def test_serial_counters_cover_every_mechanism(self, workload_run):
        report, metrics = _instrumented_verify(workload_run)
        assert report.ok
        counters = metrics.snapshot()["counters"]
        assert counters["cr.reads.checked"] > 0
        assert counters["me.locks.acquired"] > 0
        assert counters["fuw.writes.checked"] > 0
        assert counters["sc.deps.certified"] > 0
        assert counters["pipeline.traces.dispatched"] == len(
            [t for s in workload_run.client_streams.values() for t in s]
        )
        hists = metrics.snapshot()["histograms"]
        assert hists["cr.candidate_set.size"]["count"] > 0
        assert hists["mechanism.seconds{mechanism=CR}"]["count"] > 0

    def test_counters_match_report_stats(self, workload_run):
        report, metrics = _instrumented_verify(workload_run)
        stats = report.stats
        counters = metrics.snapshot()["counters"]
        assert counters["cr.reads.checked"] == stats.reads_checked
        assert counters["fuw.writes.checked"] == stats.writes_checked
        assert counters["gc.txns.pruned"] == stats.gc_txns_pruned
        delivered_ww = sum(
            value
            for key, value in counters.items()
            if key.startswith("bus.deps.accepted{") and key.endswith("type=ww}")
        )
        assert delivered_ww == stats.deps_ww

    def test_parallel_one_shard_matches_serial_mechanism_counters(
        self, workload_run
    ):
        serial_report, serial_metrics = _instrumented_verify(workload_run)
        metrics = MetricsRegistry()
        parallel = ParallelVerifier(
            spec=PG_SERIALIZABLE,
            initial_db=workload_run.initial_db,
            shards=1,
            backend="inline",
            metrics=metrics,
        )
        for trace in pipeline_from_client_streams(workload_run.client_streams):
            parallel.process(trace)
        parallel_report = parallel.finish()
        assert parallel_report.summary() == serial_report.summary()
        assert _mechanism_counters(metrics) == _mechanism_counters(serial_metrics)

    def test_parallel_coordinator_metrics(self, workload_run):
        metrics = MetricsRegistry()
        parallel = ParallelVerifier(
            spec=PG_SERIALIZABLE,
            initial_db=workload_run.initial_db,
            shards=3,
            backend="inline",
            metrics=metrics,
        )
        for trace in pipeline_from_client_streams(workload_run.client_streams):
            parallel.process(trace)
        parallel.finish()
        snap = metrics.snapshot()
        for shard in range(3):
            assert f"parallel.shard.seconds{{shard={shard}}}" in snap["gauges"]
            assert (
                f"parallel.shard.journal.events{{shard={shard}}}" in snap["gauges"]
            )
        assert snap["histograms"]["parallel.merge.seconds"]["count"] == 1


class TestBusDelegation:
    def _bus(self, metrics=None):
        state = VerifierState()
        # Endpoints must be live or the garbage guard drops the edge.
        for index, txn_id in enumerate(("t1", "t2", "t3", "a", "b")):
            state.ensure_txn(txn_id, index, Interval(0.0, 1.0))
        return DependencyBus(state, metrics=metrics)

    def test_counts_view_reads_the_registry(self):
        bus = self._bus(metrics=MetricsRegistry())
        bus.publish(
            Dependency(
                src="t1", dst="t2", dep_type=DepType.WW, key="k",
                source=Mechanism.MUTUAL_EXCLUSION,
            )
        )
        bus.publish(
            Dependency(
                src="t1", dst="t3", dep_type=DepType.WR, key="k",
                source=Mechanism.CONSISTENT_READ,
            )
        )
        assert bus.metrics.counters_with_name("bus.deps.accepted") == {
            "bus.deps.accepted{mechanism=ME,type=ww}": 1,
            "bus.deps.accepted{mechanism=CR,type=wr}": 1,
        }
        assert bus.metrics.counter_value(
            "bus.deps.accepted", mechanism="ME", type="ww"
        ) == 1

    def test_shared_registry_is_single_source_of_truth(self):
        metrics = MetricsRegistry()
        bus = self._bus(metrics=metrics)
        bus.publish(
            Dependency(
                src="a", dst="b", dep_type=DepType.RW, key="k",
                source=Mechanism.SERIALIZATION_CERTIFIER,
            )
        )
        assert bus.metrics is metrics
        assert metrics.counter_value(
            "bus.deps.accepted", mechanism="SC", type="rw"
        ) == 1
        assert metrics.counters_with_name("bus.deps.accepted") == {
            "bus.deps.accepted{mechanism=SC,type=rw}": 1
        }

    def test_disabled_registry_counts_nothing(self):
        disabled = MetricsRegistry(enabled=False)
        bus = self._bus(metrics=disabled)
        assert bus.publish(
            Dependency(
                src="a", dst="b", dep_type=DepType.SO, key=None,
                source=Mechanism.SERIALIZATION_CERTIFIER,
            )
        )
        # Off means off: the per-(mechanism, type) breakdown is an
        # instrument; ``stats.deps_*`` is what an uninstrumented run keeps.
        assert bus.metrics is disabled
        assert disabled.counters_with_name("bus.deps.accepted") == {}
        assert bus._state.stats.deps_so == 1


class TestStatsDocument:
    def test_phase_breakdown_covers_all_phases(self):
        breakdown = phase_breakdown(
            {"CR": 1.0, "ME": 0.5}, pipeline_sort_seconds=0.25, merge_seconds=0.1
        )
        assert set(breakdown) == set(PHASES)
        assert breakdown["CR"] == 1.0
        assert breakdown["pipeline-sort"] == 0.25
        assert breakdown["merge"] == 0.1
        assert breakdown["FUW"] == 0.0

    def test_run_stats_schema(self, workload_run):
        report, metrics = _instrumented_verify(workload_run)
        document = run_stats(report, metrics=metrics, wall_seconds=1.0)
        assert document["schema"] == "repro.stats/v1"
        assert document["ok"] is True
        assert set(document["phases"]) == set(PHASES)
        assert document["stats"]["traces_processed"] > 0
        assert document["metrics"]["counters"]
        # The mechanism phases are the timers' totals, read off the
        # registry: the report itself carries no timing.
        hists = document["metrics"]["histograms"]
        for mechanism in ("ME", "FUW", "RW-DERIVE", "CR", "SC"):
            total = hists[f"mechanism.seconds{{mechanism={mechanism}}}"]["total"]
            assert document["phases"][mechanism] == total > 0
        assert run_stats(report)["phases"] == dict.fromkeys(PHASES, 0.0)
        json.dumps(document)  # must be JSON-serialisable as-is

    def test_render_stats_lists_instruments(self, workload_run):
        report, metrics = _instrumented_verify(workload_run)
        text = render_stats(run_stats(report, metrics=metrics))
        assert text.startswith("-- stats --")
        assert "cr.reads.checked" in text
        assert "phase seconds" in text


class TestOperatorSurfaces:
    def test_cli_stats_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        capture = tmp_path / "capture"
        assert main(
            [
                "run", "--workload", "blindw-rw", "--txns", "120",
                "--clients", "4", "--out", str(capture),
            ]
        ) == 0
        stats_path = tmp_path / "stats.json"
        assert main(
            [
                "verify", str(capture), "--stats",
                "--stats-json", str(stats_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "-- stats --" in out
        assert "cr.reads.checked" in out
        document = json.loads(stats_path.read_text())
        assert document["schema"] == "repro.stats/v1"
        assert document["phases"]["pipeline-sort"] >= 0.0
        assert document["wall_seconds"] > 0.0

    def test_cli_default_output_has_no_stats_block(self, tmp_path, capsys):
        from repro.__main__ import main

        capture = tmp_path / "capture"
        main(
            [
                "run", "--workload", "blindw-rw", "--txns", "120",
                "--clients", "4", "--out", str(capture),
            ]
        )
        capsys.readouterr()
        assert main(["verify", str(capture)]) == 0
        out = capsys.readouterr().out
        assert "-- stats --" not in out
        assert "counters" not in out

    def test_online_snapshot(self, workload_run):
        online = OnlineVerifier(
            verifier=Verifier(
                spec=PG_SERIALIZABLE,
                initial_db=workload_run.initial_db,
                metrics=MetricsRegistry(),
            )
        )
        snapshot = online.snapshot()
        assert snapshot["dispatched"] == 0
        assert snapshot["watermark"] is None
        # Clients must be known before dispatch passes their first
        # timestamp (late joiners are refused), so register the whole
        # fleet up front -- the pattern the service's start gate uses.
        for client_id in workload_run.client_streams:
            online.register_client(client_id)
        for client_id, stream in workload_run.client_streams.items():
            for trace in stream[:20]:
                online.feed(trace)
        snapshot = online.snapshot()
        assert snapshot["clients"] == len(workload_run.client_streams)
        assert snapshot["dispatched"] > 0
        assert snapshot["violations"] == 0
        assert snapshot["metrics"]["counters"]
        json.dumps(snapshot)

    def test_online_snapshot_uninstrumented_backend(self, workload_run):
        online = OnlineVerifier(spec=PG_SERIALIZABLE)
        snapshot = online.snapshot()
        assert snapshot["metrics"] == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


def _instrument_names_under_src():
    """Every name passed as a string literal to ``.counter(`` /
    ``.gauge(`` / ``.histogram(`` anywhere under ``src/``, labels
    stripped, mapped to where it is registered."""
    import ast
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    names = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "gauge", "histogram")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                name = node.args[0].value.split("{", 1)[0]
                names.setdefault(name, f"{path.relative_to(src)}:{node.lineno}")
    return names


def test_every_instrument_under_src_is_reached_by_stats_json(tmp_path):
    """An instrument no run registers is a measurement nobody reads: each
    one named under ``src/`` must show up in the ``metrics`` block of
    ``repro verify --stats-json`` over one small capture, serial or
    sharded (process and inline backends)."""
    from repro.__main__ import main

    names = _instrument_names_under_src()
    assert "mechanism.seconds" in names and "parallel.stream.bytes" in names
    capture = tmp_path / "capture"
    assert main(
        [
            "run", "--workload", "blindw-rw", "--txns", "300", "--clients", "3",
            "--seed", "5", "--format", "binary", "--out", str(capture),
        ]
    ) == 0
    reached = set()
    for extra in (
        [],
        ["--parallel", "2"],
        ["--parallel", "2", "--parallel-backend", "inline"],
    ):
        stats_path = tmp_path / "stats.json"
        code = main(["verify", str(capture), *extra, "--stats-json", str(stats_path)])
        assert code == 0
        metrics = json.loads(stats_path.read_text())["metrics"]
        for family in metrics.values():
            reached |= {key.split("{", 1)[0] for key in family}
    unreached = {name: where for name, where in names.items() if name not in reached}
    assert unreached == {}
