"""Leopard core: black-box isolation-level verification.

Public surface of the paper's contribution: interval-based traces, the
two-level pipeline, and the mechanism-mirrored verifier.

The names of :data:`_LAZY` resolve on first access (PEP 562): a serial
``repro verify`` never imports ``multiprocessing``, the online layer or
the shard router.
"""

from importlib import import_module

from .intervals import INITIAL_INTERVAL, Interval
from .io import (
    dump_client_streams,
    dump_initial_db,
    dump_traces,
    load_client_streams,
    load_initial_db,
    load_traces,
)
from .bus import DependencyBus, VersionOrderDeriver
from .dependencies import Dependency, DependencyGraph, DepType
from .mechanism import MechanismVerifier
from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullInstrument,
    metric_key,
    parse_metric_key,
    phase_breakdown,
    render_stats,
    run_stats,
)
from .pipeline import (
    ClientFeed,
    NaiveGlobalSorter,
    TwoLevelPipeline,
    pipeline_from_client_streams,
    sorted_traces,
)
from .report import (
    BugDescriptor,
    Mechanism,
    VerificationReport,
    VerificationStats,
    Violation,
    ViolationKind,
)
from .spec import (
    DBMS_PROFILES,
    CertifierKind,
    CRLevel,
    IsolationLevel,
    IsolationSpec,
    PG_READ_COMMITTED,
    PG_REPEATABLE_READ,
    PG_SERIALIZABLE,
    READ_COMMITTED,
    SERIALIZABLE,
    SNAPSHOT_ISOLATION,
    profile,
    profiles_for,
    supported_dbms,
)
from .trace import KeyRange, OpKind, OpStatus, Trace, apply_delta, is_tombstone, tombstone
from .verifier import Verifier, verify_traces
from .versions import Version, VersionChain

#: re-exported name -> the submodule that defines it, imported on demand.
_LAZY = {
    "Anomaly": "anomalies",
    "AnomalySummary": "anomalies",
    "anomalies_of": "anomalies",
    "classify": "anomalies",
    "OnlineVerifier": "online",
    "GraphOnlyCertifier": "parallel",
    "ParallelVerifier": "parallel",
    "ShardResult": "parallel",
    "ShardVerifier": "parallel",
    "StreamSegment": "parallel",
    "ShardRouter": "sharding",
    "stable_hash": "sharding",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


__all__ = [
    "Anomaly",
    "AnomalySummary",
    "anomalies_of",
    "classify",
    "dump_client_streams",
    "dump_initial_db",
    "dump_traces",
    "load_client_streams",
    "load_initial_db",
    "load_traces",
    "INITIAL_INTERVAL",
    "Interval",
    "Dependency",
    "DependencyBus",
    "DependencyGraph",
    "DepType",
    "VersionOrderDeriver",
    "MechanismVerifier",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullInstrument",
    "metric_key",
    "parse_metric_key",
    "phase_breakdown",
    "render_stats",
    "run_stats",
    "GraphOnlyCertifier",
    "ParallelVerifier",
    "ShardResult",
    "ShardVerifier",
    "StreamSegment",
    "ShardRouter",
    "stable_hash",
    "OnlineVerifier",
    "ClientFeed",
    "NaiveGlobalSorter",
    "TwoLevelPipeline",
    "pipeline_from_client_streams",
    "sorted_traces",
    "BugDescriptor",
    "Mechanism",
    "VerificationReport",
    "VerificationStats",
    "Violation",
    "ViolationKind",
    "DBMS_PROFILES",
    "CertifierKind",
    "CRLevel",
    "IsolationLevel",
    "IsolationSpec",
    "PG_READ_COMMITTED",
    "PG_REPEATABLE_READ",
    "PG_SERIALIZABLE",
    "READ_COMMITTED",
    "SERIALIZABLE",
    "SNAPSHOT_ISOLATION",
    "profile",
    "profiles_for",
    "supported_dbms",
    "KeyRange",
    "apply_delta",
    "is_tombstone",
    "tombstone",
    "OpKind",
    "OpStatus",
    "Trace",
    "Verifier",
    "verify_traces",
    "Version",
    "VersionChain",
]
