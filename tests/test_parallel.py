"""Sharded parallel verification: routing, equivalence, and coverage.

The load-bearing guarantees pinned here:

* ``ParallelVerifier(shards=1)`` produces a report *identical* to the
  serial :class:`Verifier` -- same violations in the same order, same
  witness counts, same dependency/check counters -- on clean and
  fault-injected histories, with both the inline and the process backend;
* ``shards=4`` flags every bug site the serial verifier flags (same
  transaction + key), for each injected fault class;
* the inline and process backends are byte-identical to each other.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import (
    PG_SERIALIZABLE,
    Verifier,
    pipeline_from_client_streams,
)
from repro.core.parallel import (
    GraphOnlyCertifier,
    ParallelVerifier,
    ShardVerifier,
    verify_traces_parallel,
)
from repro.core.sharding import ShardRouter, stable_hash
from repro.core.trace import KeyRange, Trace
from repro.dbsim.faults import FaultPlan
from repro.workloads import BlindW, run_workload


def report_fingerprint(report):
    """Everything two runs must agree on to count as identical (float
    timing buckets excluded)."""
    stats = report.stats
    return (
        tuple(
            (v.mechanism, v.kind, v.txns, v.key, v.details)
            for v in report.violations
        ),
        report.descriptor.raw_count,
        stats.traces_processed,
        stats.txns_committed,
        stats.txns_aborted,
        stats.reads_checked,
        stats.writes_checked,
        stats.deps_wr,
        stats.deps_ww,
        stats.deps_rw,
        stats.deps_so,
        stats.conflict_pairs,
        stats.overlapped_pairs,
        stats.deduced_overlapped_pairs,
        stats.gc_versions_pruned,
        stats.gc_locks_pruned,
        stats.gc_txns_pruned,
    )


def serial_report(run):
    verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=run.initial_db)
    for trace in pipeline_from_client_streams(run.client_streams):
        verifier.process(trace)
    return verifier.finish()


def parallel_report(run, shards, backend):
    verifier = ParallelVerifier(
        spec=PG_SERIALIZABLE,
        initial_db=run.initial_db,
        shards=shards,
        backend=backend,
    )
    for trace in pipeline_from_client_streams(run.client_streams):
        verifier.process(trace)
    return verifier.finish()


FAULT_CASES = {
    "stale-read": FaultPlan(stale_read_prob=0.05),
    "forget-lock": FaultPlan(forget_write_lock_prob=0.3, disable_fuw=True),
    "lost-update": FaultPlan(disable_fuw=True),
    "dirty-read": FaultPlan(dirty_read_prob=0.05),
}


def fault_run(name):
    return run_workload(
        BlindW.rw(keys=64),
        PG_SERIALIZABLE,
        clients=8,
        txns=300,
        seed=7,
        faults=FAULT_CASES[name],
    )


class TestShardRouter:
    def test_stable_hash_is_process_stable(self):
        # CRC-32 of the repr: fixed values, not the salted builtin hash.
        assert stable_hash("kv1") == stable_hash("kv1")
        assert stable_hash(("acct", 3)) == stable_hash(("acct", 3))
        assert stable_hash("kv1") != stable_hash("kv2")

    def test_single_shard_routes_original_object(self):
        router = ShardRouter(1)
        trace = Trace.write(1.0, 2.0, "t1", {"a": 1, "b": 2})
        assert router.split(trace) == {0: trace}

    def test_data_trace_split_by_key_ownership(self):
        router = ShardRouter(4)
        keys = [f"kv{i}" for i in range(64)]
        trace = Trace.write(1.0, 2.0, "t1", {k: 1 for k in keys})
        parts = router.split(trace)
        seen = {}
        for shard, part in parts.items():
            for key in part.writes:
                assert router.shard_of(key) == shard
                seen[key] = shard
        assert set(seen) == set(keys)

    def test_terminals_broadcast(self):
        router = ShardRouter(3)
        commit = Trace.commit(5.0, 6.0, "t1")
        parts = router.split(commit)
        assert set(parts) == {0, 1, 2}
        assert all(part is commit for part in parts.values())

    def test_keyless_data_trace_broadcasts(self):
        router = ShardRouter(3)
        failed = Trace.read(1.0, 2.0, "t1", {})
        assert set(router.split(failed)) == {0, 1, 2}

    def test_predicate_scan_broadcasts_with_filtered_rows(self):
        router = ShardRouter(2)
        predicate = KeyRange(prefix=("row",), lo=0, hi=10)
        reads = {("row", i): {"v": i} for i in range(10)}
        trace = Trace.read(1.0, 2.0, "t1", reads, predicate=predicate)
        parts = router.split(trace)
        assert set(parts) == {0, 1}
        for shard, part in parts.items():
            assert part.predicate == predicate
            assert all(router.shard_of(k) == shard for k in part.reads)
        recombined = {k for part in parts.values() for k in part.reads}
        assert recombined == set(reads)

    def test_initial_db_partition(self):
        router = ShardRouter(4)
        initial = {f"kv{i}": {"v": i} for i in range(32)}
        parts = router.partition_initial_db(initial)
        assert sum(len(p) for p in parts) == len(initial)
        for shard, part in enumerate(parts):
            assert all(router.shard_of(k) == shard for k in part)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestSingleShardEquivalence:
    def test_blindw_rw_identical(self, blindw_rw_run):
        serial = serial_report(blindw_rw_run)
        parallel = parallel_report(blindw_rw_run, shards=1, backend="inline")
        assert report_fingerprint(parallel) == report_fingerprint(serial)

    def test_smallbank_identical(self, smallbank_run):
        serial = serial_report(smallbank_run)
        parallel = parallel_report(smallbank_run, shards=1, backend="inline")
        assert report_fingerprint(parallel) == report_fingerprint(serial)

    @pytest.mark.parametrize("fault", sorted(FAULT_CASES))
    def test_fault_cases_identical(self, fault):
        run = fault_run(fault)
        serial = serial_report(run)
        parallel = parallel_report(run, shards=1, backend="inline")
        assert not serial.ok  # the fault actually produced violations
        assert report_fingerprint(parallel) == report_fingerprint(serial)

    def test_process_backend_identical_to_inline(self, blindw_rw_run):
        inline = parallel_report(blindw_rw_run, shards=1, backend="inline")
        process = parallel_report(blindw_rw_run, shards=1, backend="process")
        assert report_fingerprint(process) == report_fingerprint(inline)

    def test_process_backend_identical_on_faults(self):
        run = fault_run("stale-read")
        inline = parallel_report(run, shards=1, backend="inline")
        process = parallel_report(run, shards=1, backend="process")
        assert report_fingerprint(process) == report_fingerprint(inline)


class TestMultiShard:
    def test_clean_run_stays_clean(self, blindw_rw_run):
        report = parallel_report(blindw_rw_run, shards=4, backend="inline")
        assert report.ok
        serial = serial_report(blindw_rw_run)
        assert report.stats.traces_processed == serial.stats.traces_processed
        assert report.stats.txns_committed == serial.stats.txns_committed

    def test_backends_agree_at_four_shards(self):
        run = fault_run("dirty-read")
        inline = parallel_report(run, shards=4, backend="inline")
        process = parallel_report(run, shards=4, backend="process")
        assert report_fingerprint(process) == report_fingerprint(inline)

    @pytest.mark.parametrize("fault", sorted(FAULT_CASES))
    def test_four_shards_flag_every_serial_bug_site(self, fault):
        """Every (transaction, key) site the serial verifier flags is also
        flagged at shards=4.  Classification may be *more* precise in the
        sharded run (per-shard GC prunes later, so a garbage version can
        still be identified as the stale source), but no site may vanish.
        """
        run = fault_run(fault)
        serial = serial_report(run)
        parallel = parallel_report(run, shards=4, backend="process")
        assert not serial.ok
        flagged = {
            (txn, v.key) for v in parallel.violations for txn in v.txns
        }
        for violation in serial.violations:
            assert any(
                (txn, violation.key) in flagged for txn in violation.txns
            ), f"serial violation not covered at shards=4: {violation}"

    def test_merged_stats_are_shard_sums_except_the_coordinators_three(self):
        """Every counter of ``VerificationStats`` is a per-key tally that
        sums over the shards -- whatever fields the dataclass has -- except
        the three the coordinator counts itself, which every shard sees
        in full (terminals and begins broadcast)."""
        run = fault_run("stale-read")
        verifier = ParallelVerifier(
            spec=PG_SERIALIZABLE,
            initial_db=run.initial_db,
            shards=2,
            backend="inline",
        )
        merged = verifier.process_all(
            pipeline_from_client_streams(run.client_streams)
        ).finish().stats
        shards = [shard.state.stats for shard in verifier._inline]
        serial = serial_report(run).stats
        counters = [
            stat.name
            for stat in dataclasses.fields(merged)
            if isinstance(getattr(merged, stat.name), int)
        ]
        # Every field is a count (the report holds no timing).
        assert len(counters) == len(dataclasses.fields(merged))
        for name in counters:
            total = sum(getattr(stats, name) for stats in shards)
            if name in ("traces_processed", "txns_committed", "txns_aborted"):
                assert getattr(merged, name) == getattr(serial, name) < total
            else:
                assert getattr(merged, name) == total, name
                assert total or name.startswith("gc_"), name

    def test_convenience_helper(self, blindw_rw_run):
        traces = list(
            pipeline_from_client_streams(blindw_rw_run.client_streams)
        )
        report = verify_traces_parallel(
            traces,
            spec=PG_SERIALIZABLE,
            initial_db=blindw_rw_run.initial_db,
            shards=2,
            backend="inline",
        )
        assert report.ok


class TestCoordinatorGuards:
    def test_duplicate_terminal_rejected(self):
        verifier = ParallelVerifier(shards=2, backend="inline")
        verifier.process(Trace.write(1.0, 2.0, "t1", {"a": 1}))
        verifier.process(Trace.commit(3.0, 4.0, "t1"))
        with pytest.raises(ValueError, match="already-terminated"):
            verifier.process(Trace.commit(5.0, 6.0, "t1"))

    def test_process_after_finish_rejected(self):
        verifier = ParallelVerifier(shards=1, backend="inline")
        verifier.process(Trace.write(1.0, 2.0, "t1", {"a": 1}))
        verifier.process(Trace.commit(3.0, 4.0, "t1"))
        verifier.finish()
        with pytest.raises(RuntimeError):
            verifier.process(Trace.commit(5.0, 6.0, "t2"))

    def test_finish_is_idempotent(self):
        verifier = ParallelVerifier(shards=1, backend="inline")
        verifier.process(Trace.write(1.0, 2.0, "t1", {"a": 1}))
        verifier.process(Trace.commit(3.0, 4.0, "t1"))
        assert verifier.finish() is verifier.finish()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelVerifier(shards=1, backend="threads")


class TestShardVerifier:
    def test_certifier_swapped_for_graph_only(self):
        shard = ShardVerifier(shard_id=0, spec=PG_SERIALIZABLE)
        assert isinstance(shard.mechanism("SC"), GraphOnlyCertifier)

    def test_journal_tags_trace_indices(self):
        shard = ShardVerifier(shard_id=0, spec=PG_SERIALIZABLE)
        shard.begin("t1", 0, Trace.write(1.0, 2.0, "t1", {"a": 1}).interval)
        shard.ingest(0, Trace.write(1.0, 2.0, "t1", {"a": 1}))
        shard.ingest(1, Trace.commit(3.0, 4.0, "t1"))
        shard.begin("t2", 0, Trace.read(5.0, 6.0, "t2", {"a": {"v": 1}}).interval)
        shard.ingest(2, Trace.read(5.0, 6.0, "t2", {"a": {"v": 1}}))
        shard.ingest(3, Trace.commit(7.0, 8.0, "t2"))
        result = shard.finish_shard()
        assert result.shard_id == 0
        # The wr dependency t1 -> t2 was journaled while ingesting trace 3
        # (reads are checked at their transaction's terminal).
        dep_events = [e for e in result.events if e[2] == "d"]
        assert any(
            e[0] == 3 and e[3].src == "t1" and e[3].dst == "t2"
            for e in dep_events
        )
        # Sequence numbers are strictly increasing in journal order.
        seqs = [e[1] for e in result.events]
        assert seqs == sorted(seqs)


class TestOnlineIntegration:
    def test_violations_so_far_is_one_list_across_finish(self):
        """``violations_so_far()`` hands out the descriptor's own
        append-only list -- the same object on every call, before and
        after ``finish()`` -- and the online layer, which indexes into it,
        alerts each violation exactly once across that boundary."""
        from repro import OnlineVerifier

        run = fault_run("dirty-read")
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=run.initial_db)
        alerts = []
        online = OnlineVerifier(verifier=verifier, on_violation=alerts.append)
        traces = list(pipeline_from_client_streams(run.client_streams))
        for trace in traces[:-1]:
            online.feed(trace)
        so_far = verifier.violations_so_far()
        assert so_far and alerts == so_far
        online.feed(traces[-1])
        report = online.finish()
        assert verifier.violations_so_far() is so_far
        assert verifier.violations_so_far() == report.violations
        assert alerts == report.violations and len(alerts) > 1

    def test_injected_verifier_excludes_kwargs(self):
        from repro import OnlineVerifier

        with pytest.raises(ValueError):
            OnlineVerifier(
                verifier=Verifier(),
                gc_every=64,
            )
