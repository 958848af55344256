"""repro -- a reproduction of *Leopard: A Black-Box Approach for Efficiently
Verifying Various Isolation Levels* (ICDE 2023).

The package has four layers:

* :mod:`repro.core` -- Leopard itself: interval traces, the two-level
  pipeline, and the mechanism-mirrored verifier (the paper's contribution);
* :mod:`repro.dbsim` -- a discrete-event multi-version DBMS substrate with
  pluggable concurrency-control mechanisms and fault injection;
* :mod:`repro.workloads` -- YCSB-A, BlindW variants, SmallBank and TPC-C
  generators plus the runner that produces client trace streams;
* :mod:`repro.baselines` -- Cobra-like, Elle-like and naive cycle-search
  checkers used in the paper's comparisons.

Quickstart::

    from repro import Verifier, PG_SERIALIZABLE, pipeline_from_client_streams
    from repro.dbsim import SimulatedDBMS
    from repro.workloads import BlindW, WorkloadRunner

    db = SimulatedDBMS(spec=PG_SERIALIZABLE, seed=7)
    run = WorkloadRunner(db, BlindW.rw(keys=512), clients=8).run(txns=2000)
    verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=run.initial_db)
    for batch in pipeline_from_client_streams(run.client_streams).iter_batches():
        verifier.process_batch(batch)
    print(verifier.finish().summary())
"""

from . import core
from .core import (
    BugDescriptor,
    CertifierKind,
    ClientFeed,
    CRLevel,
    Dependency,
    DependencyGraph,
    DepType,
    Interval,
    IsolationLevel,
    IsolationSpec,
    KeyRange,
    Mechanism,
    MetricsRegistry,
    NaiveGlobalSorter,
    MechanismVerifier,
    OpKind,
    OpStatus,
    PG_READ_COMMITTED,
    PG_REPEATABLE_READ,
    PG_SERIALIZABLE,
    READ_COMMITTED,
    SERIALIZABLE,
    SNAPSHOT_ISOLATION,
    Trace,
    TwoLevelPipeline,
    VerificationReport,
    VerificationStats,
    Verifier,
    Violation,
    ViolationKind,
    pipeline_from_client_streams,
    profile,
    profiles_for,
    run_stats,
    sorted_traces,
    supported_dbms,
    verify_traces,
)

__version__ = "1.0.0"


def __getattr__(name: str):
    """The re-exports :mod:`repro.core` imports on demand (parallel,
    sharding, online, anomalies) stay on demand here."""
    if name in core._LAZY:
        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Anomaly",
    "AnomalySummary",
    "anomalies_of",
    "classify",
    "BugDescriptor",
    "CertifierKind",
    "ClientFeed",
    "CRLevel",
    "Dependency",
    "DependencyGraph",
    "DepType",
    "Interval",
    "IsolationLevel",
    "IsolationSpec",
    "KeyRange",
    "Mechanism",
    "MechanismVerifier",
    "MetricsRegistry",
    "NaiveGlobalSorter",
    "OnlineVerifier",
    "ParallelVerifier",
    "ShardRouter",
    "OpKind",
    "OpStatus",
    "PG_READ_COMMITTED",
    "PG_REPEATABLE_READ",
    "PG_SERIALIZABLE",
    "READ_COMMITTED",
    "SERIALIZABLE",
    "SNAPSHOT_ISOLATION",
    "Trace",
    "TwoLevelPipeline",
    "VerificationReport",
    "VerificationStats",
    "Verifier",
    "Violation",
    "ViolationKind",
    "pipeline_from_client_streams",
    "profile",
    "profiles_for",
    "sorted_traces",
    "supported_dbms",
    "run_stats",
    "verify_traces",
    "__version__",
]
