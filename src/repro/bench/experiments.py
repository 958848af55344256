"""One entry point per table/figure of the paper's evaluation.

Every function takes ``scale`` (multiplies transaction counts, so CI can
run the suite quickly) and ``seed`` and returns an
:class:`~repro.bench.harness.ExperimentTable`.  Expected *shapes* are
listed in DESIGN.md section 4; measured-vs-paper notes live in
EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from ..baselines import (
    CobraChecker,
    ElleChecker,
    InapplicableWorkload,
    NaiveCycleSearchChecker,
    history_from_traces,
)
from ..core.metrics import MetricsRegistry, run_stats
from ..core.pipeline import (
    ClientFeed,
    NaiveGlobalSorter,
    TwoLevelPipeline,
    pipeline_from_client_streams,
)
from ..core.spec import (
    DBMS_PROFILES,
    IsolationSpec,
    PG_REPEATABLE_READ,
    PG_SERIALIZABLE,
)
from ..core.verifier import Verifier, batches
from ..dbsim.faults import FaultPlan
from ..workloads import (
    BlindW,
    InsertScanWorkload,
    LostUpdateWorkload,
    NoopUpdateWorkload,
    ReadOnlyAuditWorkload,
    RunResult,
    SelectForUpdateWorkload,
    SmallBank,
    TpcC,
    WriteSkewWorkload,
    YcsbA,
    run_workload,
)
from .harness import ExperimentTable, experiment
from .metrics import MemorySeries


def _scaled(n: int, scale: float, floor: int = 50) -> int:
    return max(floor, int(n * scale))


#: traces between live-structure samples (Figs. 10 and 14's memory axis).
_MEMORY_SAMPLE_EVERY = 200


def _verify(
    run: RunResult,
    spec: IsolationSpec,
    sample_memory: bool = False,
    **verifier_kwargs,
):
    """Feed a run through the pipeline + verifier; returns
    ``(report, elapsed_seconds, peak_structures, verifier)``."""
    verifier = Verifier(spec=spec, initial_db=run.initial_db, **verifier_kwargs)
    memory = MemorySeries(sample_every=1)
    start = time.perf_counter()
    pipeline = pipeline_from_client_streams(run.client_streams)
    for batch in batches(pipeline, _MEMORY_SAMPLE_EVERY):
        verifier.process_batch(batch)
        if sample_memory and len(batch) == _MEMORY_SAMPLE_EVERY:
            memory.observe(verifier.state.live_structure_count)
    report = verifier.finish()
    elapsed = time.perf_counter() - start
    memory.finish(verifier.state.live_structure_count)
    return report, elapsed, memory.peak, verifier


# ---------------------------------------------------------------------------
# Fig. 1 -- isolation-level implementation registry
# ---------------------------------------------------------------------------

#: mechanism checkmarks exactly as printed in Fig. 1 (ME, CR, FUW, SC).
_FIG1_EXPECTED = {
    ("postgresql", "SR"): ("ME", "CR", "FUW", "SC"),
    ("postgresql", "SI"): ("ME", "CR", "FUW"),
    ("postgresql", "RC"): ("ME", "CR"),
    ("opengauss", "SR"): ("ME", "CR", "FUW", "SC"),
    ("opengauss", "SI"): ("ME", "CR", "FUW"),
    ("opengauss", "RC"): ("ME", "CR"),
    ("innodb", "SR"): ("ME", "CR"),
    ("innodb", "RR"): ("ME", "CR"),
    ("innodb", "RC"): ("ME", "CR"),
    ("sqlserver", "SR"): ("ME", "CR"),
    ("sqlserver", "RR"): ("ME", "CR"),
    ("sqlserver", "RC"): ("ME", "CR"),
    ("tidb", "RR"): ("ME", "CR"),
    ("tidb", "RC"): ("ME", "CR"),
    ("tidb", "SI"): ("CR", "SC"),
    ("rocksdb", "SR"): ("ME", "CR"),
    ("rocksdb-occ", "SR"): ("CR", "SC"),
    ("sqlite", "SR"): ("ME",),
    ("foundationdb", "SR"): ("CR", "SC"),
    ("singlestore", "RC"): ("ME", "CR"),
    ("cockroachdb", "SR"): ("CR", "SC"),
    ("spanner", "SR"): ("ME", "CR"),
    ("yugabytedb", "SR"): ("ME", "CR", "FUW", "SC"),
    ("yugabytedb", "RR"): ("ME", "CR", "FUW"),
    ("yugabytedb", "RC"): ("ME", "CR"),
    ("oracle", "SI"): ("ME", "CR", "FUW"),
    ("oracle", "RC"): ("ME", "CR"),
    ("nuodb", "SI"): ("ME", "CR", "FUW"),
    ("saphana", "SI"): ("ME", "CR", "FUW"),
    ("saphana", "RC"): ("ME", "CR"),
}


@experiment("fig1")
def fig1_profiles(scale: float = 1.0, seed: int = 0) -> ExperimentTable:
    """Fig. 1: mechanism assembly per (DBMS, isolation level)."""
    table = ExperimentTable(
        exp_id="fig1",
        title="Isolation level implementations in DBMSs (registry vs paper)",
        headers=("dbms", "level", "mechanisms", "matches paper"),
    )
    for (dbms, level), spec in sorted(
        DBMS_PROFILES.items(), key=lambda item: (item[0][0], item[0][1].value)
    ):
        marks = spec.mechanisms()
        expected = _FIG1_EXPECTED.get((dbms, level.value))
        verdict = "yes" if expected == marks else ("n/a" if expected is None else "NO")
        table.add_row(dbms, level.value, "+".join(marks), verdict)
    return table


# ---------------------------------------------------------------------------
# Fig. 4 -- overlap ratio in YCSB-A
# ---------------------------------------------------------------------------


@experiment("fig4")
def fig4_overlap(scale: float = 1.0, seed: int = 0) -> ExperimentTable:
    """Fig. 4: ratio of conflicting operations with overlapped intervals."""
    table = ExperimentTable(
        exp_id="fig4",
        title="Overlapping ratio beta in YCSB-A (PostgreSQL/SR profile)",
        headers=("theta", "threads", "read ratio", "txns", "beta"),
    )
    txns = _scaled(1500, scale)
    records = _scaled(4000, scale, floor=500)
    configs: List[Tuple[float, int, float]] = []
    for theta in (0.2, 0.5, 0.8, 0.99):
        configs.append((theta, 16, 0.5))
    for threads in (8, 32, 64):
        configs.append((0.8, threads, 0.5))
    for read_ratio in (0.25, 0.75):
        configs.append((0.8, 16, read_ratio))
    for theta, threads, read_ratio in configs:
        workload = YcsbA(
            records=records, theta=theta, read_ratio=read_ratio, seed=seed
        )
        run = run_workload(
            workload, PG_SERIALIZABLE, clients=threads, txns=txns, seed=seed
        )
        report, _, _, _ = _verify(run, PG_SERIALIZABLE)
        table.add_row(theta, threads, read_ratio, run.committed, report.stats.beta)
    table.add_note(
        "paper shape: beta stays below ~6% everywhere and grows with "
        "skew (theta) and thread count"
    )
    return table


# ---------------------------------------------------------------------------
# Fig. 10 -- two-level pipeline
# ---------------------------------------------------------------------------


def _pipeline_variants(run: RunResult):
    def feeds():
        return [
            ClientFeed(traces, batch_size=64)
            for _, traces in sorted(run.client_streams.items())
        ]

    return (
        ("naive", lambda: NaiveGlobalSorter(feeds())),
        ("w/o Opt", lambda: TwoLevelPipeline(feeds(), optimized=False)),
        ("leopard", lambda: TwoLevelPipeline(feeds(), optimized=True)),
    )


@experiment("fig10")
def fig10_pipeline(scale: float = 1.0, seed: int = 0) -> ExperimentTable:
    """Fig. 10: dispatching time and memory of the two-level pipeline."""
    table = ExperimentTable(
        exp_id="fig10",
        title="Two-level pipeline vs naive sorting",
        headers=(
            "workload",
            "txns",
            "sorter",
            "dispatch time (s)",
            "peak buffered traces",
        ),
    )
    workloads = (
        SmallBank(scale_factor=0.2, seed=seed),
        TpcC(scale_factor=1, seed=seed),
        BlindW.rw_plus(keys=2048, seed=seed),
    )
    for workload in workloads:
        for txns in (_scaled(2000, scale), _scaled(6000, scale)):
            run = run_workload(
                workload, PG_SERIALIZABLE, clients=24, txns=txns, seed=seed
            )
            for sorter_name, make in _pipeline_variants(run):
                sorter = make()
                start = time.perf_counter()
                count = sum(1 for _ in sorter)
                elapsed = time.perf_counter() - start
                table.add_row(
                    run.workload,
                    txns,
                    sorter_name,
                    elapsed,
                    sorter.stats.peak_buffered,
                )
                assert count == run.trace_count
    table.add_note(
        "paper shape: leopard dispatches fastest with the flattest memory; "
        "the naive sorter buffers the whole history"
    )
    return table


# ---------------------------------------------------------------------------
# Fig. 11 -- mechanism-mirrored verification
# ---------------------------------------------------------------------------


@experiment("fig11")
def fig11_verification(scale: float = 1.0, seed: int = 0) -> ExperimentTable:
    """Fig. 11: verification time vs txn scale, thread scale, txn length."""
    table = ExperimentTable(
        exp_id="fig11",
        title="Mechanism-mirrored verification time (BlindW-RW+)",
        headers=(
            "vary",
            "value",
            "committed",
            "leopard (s)",
            "cycle search (s)",
            "DBMS runtime (s)",
        ),
    )

    def one(txns: int, threads: int, length: int, with_naive: bool):
        workload = BlindW.rw_plus(keys=2048, ops_per_txn=length, seed=seed)
        run = run_workload(
            workload, PG_SERIALIZABLE, clients=threads, txns=txns, seed=seed
        )
        _, leopard_time, _, _ = _verify(run, PG_SERIALIZABLE)
        naive_time: Optional[float] = None
        if with_naive:
            checker = NaiveCycleSearchChecker(
                spec=PG_SERIALIZABLE, initial_db=run.initial_db
            )
            start = time.perf_counter()
            checker.process_all(pipeline_from_client_streams(run.client_streams))
            checker.finish()
            naive_time = time.perf_counter() - start
        return run, leopard_time, naive_time

    base_txns = _scaled(2000, scale)
    for txns in (base_txns // 2, base_txns, base_txns * 2):
        run, leopard_time, naive_time = one(txns, 24, 8, with_naive=txns <= base_txns)
        table.add_row(
            "txn scale",
            txns,
            run.committed,
            leopard_time,
            naive_time if naive_time is not None else "-",
            run.wall_time,
        )
    for threads in (8, 16, 24, 32):
        run, leopard_time, _ = one(base_txns, threads, 8, with_naive=False)
        table.add_row(
            "thread scale", threads, run.committed, leopard_time, "-", run.wall_time
        )
    for length in (4, 8, 12, 16):
        run, leopard_time, _ = one(base_txns, 24, length, with_naive=False)
        table.add_row(
            "txn length", length, run.committed, leopard_time, "-", run.wall_time
        )
    table.add_note(
        "paper shape: leopard linear in txn scale and txn length, "
        "decreasing with thread scale (aborts rise); cycle search and DBMS "
        "runtime are orders of magnitude slower at scale"
    )
    return table


# ---------------------------------------------------------------------------
# Fig. 12 -- workload throughput vs Leopard throughput
# ---------------------------------------------------------------------------


@experiment("fig12")
def fig12_throughput(scale: float = 1.0, seed: int = 0) -> ExperimentTable:
    """Fig. 12: can verification keep up with the DBMS?"""
    table = ExperimentTable(
        exp_id="fig12",
        title="DBMS throughput vs Leopard verification throughput",
        headers=(
            "workload",
            "scale factor",
            "committed",
            "DBMS tps",
            "leopard tps",
            "leopard/DBMS",
        ),
    )
    txns = _scaled(2000, scale)
    configs = [
        (SmallBank(scale_factor=sf, seed=seed), sf) for sf in (0.2, 0.5, 1.0)
    ] + [(TpcC(scale_factor=sf, seed=seed), sf) for sf in (1, 2)]
    for workload, sf in configs:
        run = run_workload(
            workload, PG_SERIALIZABLE, clients=24, txns=txns, seed=seed
        )
        _, leopard_time, _, _ = _verify(run, PG_SERIALIZABLE)
        dbms_tps = run.throughput
        leopard_tps = run.committed / leopard_time if leopard_time else 0.0
        table.add_row(
            run.workload,
            sf,
            run.committed,
            dbms_tps,
            leopard_tps,
            leopard_tps / dbms_tps if dbms_tps else 0.0,
        )
    table.add_note(
        "DBMS tps is simulated-time throughput of the engine substrate; "
        "leopard tps is real wall-clock verification throughput "
        "(see DESIGN.md substitutions)"
    )
    table.add_note(
        "paper shape: leopard keeps up with SmallBank and clearly beats "
        "the DBMS on complex TPC-C"
    )
    return table


# ---------------------------------------------------------------------------
# Fig. 13 -- deducing dependencies
# ---------------------------------------------------------------------------


@experiment("fig13")
def fig13_deduce(scale: float = 1.0, seed: int = 0) -> ExperimentTable:
    """Fig. 13: overlapped conflicting pairs, split deduced/uncertain."""
    table = ExperimentTable(
        exp_id="fig13",
        title="Deducing dependencies from overlapped traces",
        headers=(
            "workload",
            "conflict pairs",
            "beta",
            "deduced share of beta",
            "uncertain share of beta",
        ),
    )
    txns = _scaled(3000, scale)
    workloads = (
        SmallBank(scale_factor=0.2, seed=seed),
        TpcC(scale_factor=1, seed=seed),
        BlindW.w(keys=2048, seed=seed),
        BlindW.rw(keys=2048, seed=seed),
    )
    for workload in workloads:
        run = run_workload(
            workload, PG_SERIALIZABLE, clients=24, txns=txns, seed=seed
        )
        report, _, _, _ = _verify(run, PG_SERIALIZABLE)
        stats = report.stats
        deduced = (
            stats.deduced_overlapped_pairs / stats.overlapped_pairs
            if stats.overlapped_pairs
            else 1.0
        )
        table.add_row(
            run.workload,
            stats.conflict_pairs,
            stats.beta,
            deduced,
            1.0 - deduced,
        )
    table.add_note(
        "paper shape: beta is small everywhere; BlindW-W and BlindW-RW "
        "overlaps are fully deduced, SmallBank (duplicate values) and "
        "TPC-C (disjoint column sets) keep an uncertain residue"
    )
    return table


# ---------------------------------------------------------------------------
# Fig. 14 -- comparison with Cobra
# ---------------------------------------------------------------------------


@experiment("fig14")
def fig14_cobra(scale: float = 1.0, seed: int = 0) -> ExperimentTable:
    """Fig. 14: Leopard vs Cobra (with/without GC), time and memory."""
    table = ExperimentTable(
        exp_id="fig14",
        title="Leopard vs Cobra on BlindW-RW",
        headers=(
            "vary",
            "value",
            "checker",
            "time (s)",
            "peak structures",
        ),
    )
    base_txns = _scaled(1000, scale, floor=100)
    nogc_limit = base_txns * 2

    def run_point(vary: str, value: int, txns: int, threads: int) -> None:
        run = run_workload(
            BlindW.rw(keys=2048, seed=seed),
            PG_SERIALIZABLE,
            clients=threads,
            txns=txns,
            seed=seed,
        )
        _, leopard_time, leopard_mem, _ = _verify(
            run, PG_SERIALIZABLE, sample_memory=True
        )
        table.add_row(vary, value, "leopard", leopard_time, leopard_mem)
        history = history_from_traces(run.all_traces_sorted())
        start = time.perf_counter()
        gc_result = CobraChecker(fence_every=20).check(history, run.initial_db)
        table.add_row(
            vary, value, "cobra", time.perf_counter() - start, gc_result.peak_structures
        )
        if txns <= nogc_limit:
            start = time.perf_counter()
            nogc_result = CobraChecker(fence_every=None).check(
                history, run.initial_db
            )
            table.add_row(
                vary,
                value,
                "cobra w/o GC",
                time.perf_counter() - start,
                nogc_result.peak_structures,
            )
        else:
            table.add_row(vary, value, "cobra w/o GC", "-", "-")

    for txns in (base_txns // 2, base_txns, base_txns * 2, base_txns * 4):
        run_point("txn scale", txns, txns, 24)
    for threads in (8, 16, 24, 32):
        run_point("thread scale", threads, base_txns, threads)
    table.add_note(
        "paper shape: leopard time linear / memory flat; Cobra w/o GC "
        "superlinear in both; our simplified fence GC is cheaper than the "
        "paper's Cobra (see EXPERIMENTS.md), so its time sits between "
        "leopard and Cobra w/o GC instead of being the slowest"
    )
    return table


# ---------------------------------------------------------------------------
# Section VI-F -- bug cases
# ---------------------------------------------------------------------------


def bug_case_scenarios(seed: int = 0):
    """The Section VI-F bug cases as (name, workload, spec, faults)."""
    return [
        (
            "bug1 dirty write (no-op update lock skip)",
            NoopUpdateWorkload(records=2, seed=seed),
            PG_REPEATABLE_READ,
            FaultPlan(skip_lock_on_noop_update=True, disable_fuw=True, seed=seed),
        ),
        (
            "bug2 inconsistent read (stale version)",
            ReadOnlyAuditWorkload(counters=16, seed=seed),
            PG_REPEATABLE_READ,
            FaultPlan(stale_read_prob=0.05, seed=seed),
        ),
        (
            "bug3 incompatible write locks (forgotten FOR UPDATE)",
            SelectForUpdateWorkload(records=2, seed=seed),
            PG_REPEATABLE_READ,
            FaultPlan(forget_write_lock_prob=0.5, seed=seed),
        ),
        (
            "bug4 two-version read (own write ignored)",
            ReadOnlyAuditWorkload(counters=16, seed=seed),
            PG_REPEATABLE_READ,
            FaultPlan(ignore_own_write_prob=0.5, seed=seed),
        ),
        (
            "lost update (FUW disabled under SI)",
            LostUpdateWorkload(counters=4, seed=seed),
            PG_REPEATABLE_READ,
            FaultPlan(disable_fuw=True, seed=seed),
        ),
        (
            "write skew (SSI disabled under SR)",
            WriteSkewWorkload(pairs=4, seed=seed),
            PG_SERIALIZABLE,
            FaultPlan(disable_ssi=True, seed=seed),
        ),
        (
            "phantom rows (scan drops matching rows)",
            InsertScanWorkload(initial_rows=10, seed=seed),
            PG_SERIALIZABLE,
            FaultPlan(phantom_skip_prob=0.05, seed=seed),
        ),
        (
            "dirty write, no cycle (blind writes, no locks)",
            BlindW.w(keys=32, seed=seed),
            PG_SERIALIZABLE,
            FaultPlan(
                disable_write_locks=True,
                disable_fuw=True,
                disable_ssi=True,
                seed=seed,
            ),
        ),
    ]


@experiment("bugs")
def bug_cases(scale: float = 1.0, seed: int = 0) -> ExperimentTable:
    """Section VI-F: which checker finds which injected bug class."""
    table = ExperimentTable(
        exp_id="bugs",
        title="Bug cases: Leopard vs Elle vs Cobra",
        headers=("case", "leopard", "elle", "cobra"),
    )
    txns = _scaled(600, scale, floor=200)
    for name, workload, spec, faults in bug_case_scenarios(seed):
        run = run_workload(
            workload,
            spec,
            clients=12,
            txns=txns,
            seed=seed,
            faults=faults,
            think_mean=1e-4,
        )
        report, _, _, _ = _verify(run, spec)
        leopard = (
            "found: "
            + ",".join(
                sorted(
                    {f"{v.mechanism.value}/{v.kind.value}" for v in report.violations}
                )
            )
            if not report.ok
            else "MISSED"
        )
        traces = run.all_traces_sorted()
        try:
            elle_result = ElleChecker().check_traces(traces, run.initial_db)
            elle = (
                "found: " + ",".join(sorted(elle_result.anomaly_names()))
                if not elle_result.ok
                else "missed"
            )
        except InapplicableWorkload:
            elle = "inapplicable"
        history = history_from_traces(traces)
        try:
            cobra_result = CobraChecker(fence_every=20).check(history, run.initial_db)
            cobra = "missed" if cobra_result.ok else "found"
        except RuntimeError:
            cobra = "timeout"
        table.add_row(name, leopard, elle, cobra)
    table.add_note(
        "paper shape: Leopard flags every case; Elle is inapplicable on "
        "duplicate-value workloads and blind to acyclic bugs (Bug 1 / "
        "dirty writes without cycles); Cobra only judges serializability"
    )
    return table


# ---------------------------------------------------------------------------
# Extension: where does verification time go?
# ---------------------------------------------------------------------------


@experiment("breakdown")
def mechanism_time_breakdown(scale: float = 1.0, seed: int = 0) -> ExperimentTable:
    """Per-mechanism share of verification time.

    Supports the paper's Section III argument that mirroring the
    concurrency-control mechanisms is cheap: the dependency-graph certifier
    (SC) stays a small fraction, with CR/FUW dominated by the per-record
    version scans.
    """
    table = ExperimentTable(
        exp_id="breakdown",
        title="Verification time by mechanism",
        headers=("workload", "total (s)", "CR %", "ME %", "FUW %", "SC %"),
    )
    txns = _scaled(1500, scale)
    for workload in (
        BlindW.rw(keys=2048, seed=seed),
        SmallBank(scale_factor=0.2, seed=seed),
        TpcC(scale_factor=1, seed=seed),
    ):
        run = run_workload(
            workload, PG_SERIALIZABLE, clients=24, txns=txns, seed=seed
        )
        # The per-mechanism timers are an instrument: on with a registry,
        # and the stats document's phases read them from it.
        metrics = MetricsRegistry()
        report, elapsed, _, _ = _verify(run, PG_SERIALIZABLE, metrics=metrics)
        phases = run_stats(report, metrics)["phases"]
        total = sum(phases.values()) or 1.0
        table.add_row(
            run.workload,
            elapsed,
            *(100.0 * phases[m] / total for m in ("CR", "ME", "FUW", "SC")),
        )
    table.add_note(
        "percentages are shares of mechanism time (pipeline and bookkeeping "
        "excluded); SC includes the rw edges other mechanisms hand it"
    )
    return table


# ---------------------------------------------------------------------------
# Extension: clock-synchronisation sensitivity
# ---------------------------------------------------------------------------


@experiment("skew")
def clock_skew_sensitivity(scale: float = 1.0, seed: int = 0) -> ExperimentTable:
    """How much clock skew can interval-based verification absorb?

    Section IV-A relies on NTP-class synchronisation.  This extension
    quantifies the requirement: per-client constant offsets are injected
    into the trace timestamps of a *clean* serializable run.  Up to
    offsets comparable to operation latency, the uncertainty ratio beta
    rises but no false violation appears; far beyond it, intervals invert
    relative to real time and false positives become possible -- the
    experiment reports where that happens for the simulated latency model
    (mean operation latency ~0.3 ms).
    """
    table = ExperimentTable(
        exp_id="skew",
        title="Clock-skew sensitivity (clean BlindW-RW, PostgreSQL/SR)",
        headers=(
            "max offset (us)",
            "jitter (us)",
            "beta",
            "deps total",
            "false violations",
        ),
    )
    txns = _scaled(1500, scale)
    for offset_us, jitter_us in (
        (0, 0),
        (10, 1),
        (50, 5),
        (100, 10),
        (300, 30),
        (1000, 100),
    ):
        run = run_workload(
            BlindW.rw(keys=1024, seed=seed),
            PG_SERIALIZABLE,
            clients=16,
            txns=txns,
            seed=seed,
            clock_skew=offset_us * 1e-6,
            clock_jitter=jitter_us * 1e-6,
        )
        report, _, _, _ = _verify(run, PG_SERIALIZABLE)
        table.add_row(
            offset_us,
            jitter_us,
            report.stats.beta,
            report.stats.deps_total,
            len(report.violations),
        )
    table.add_note(
        "expected: beta grows with skew while false violations stay at 0 "
        "until offsets exceed operation latency (~300us in this model)"
    )
    return table


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md section 5)
# ---------------------------------------------------------------------------


@experiment("ablation")
def ablation(scale: float = 1.0, seed: int = 0) -> ExperimentTable:
    """Ablation of Leopard's design choices."""
    table = ExperimentTable(
        exp_id="ablation",
        title="Design-choice ablations (BlindW-RW, PostgreSQL/SR)",
        headers=("configuration", "time (s)", "peak structures", "deduced share"),
    )
    txns = _scaled(2000, scale)
    run = run_workload(
        BlindW.rw(keys=2048, seed=seed),
        PG_SERIALIZABLE,
        clients=24,
        txns=txns,
        seed=seed,
    )
    configs = [
        ("full leopard", {}),
        ("no garbage collection", {"gc_every": 0}),
        ("no dependency exchange", {"exchange_dependencies": False}),
        ("no candidate minimisation", {"minimize_candidates": False}),
    ]
    for name, kwargs in configs:
        report, elapsed, peak, _ = _verify(
            run, PG_SERIALIZABLE, sample_memory=True, **kwargs
        )
        stats = report.stats
        deduced = (
            stats.deduced_overlapped_pairs / stats.overlapped_pairs
            if stats.overlapped_pairs
            else 1.0
        )
        table.add_row(name, elapsed, peak, deduced)
    table.add_note(
        "expected: GC off -> memory grows with history; exchange off -> "
        "lower deduced share; naive candidates -> slower CR checks"
    )
    return table
