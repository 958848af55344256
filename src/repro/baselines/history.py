"""Transaction-history model shared by the baseline checkers.

Cobra and Elle both consume *histories* -- per-transaction read/write sets
with observed values -- rather than Leopard's interval traces.  This module
lowers a trace stream into that representation, which is also the honest
way to run the comparison: the baselines get every piece of information
they were designed to use (values, session order, commit order), just not
the interval timestamps that are Leopard's own contribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Tuple

from ..core.trace import OpKind, OpStatus, Trace

Key = Hashable
#: Values are flattened to a hashable form (column maps become sorted
#: tuples) so they can index dictionaries.
Value = Tuple


def flatten_value(columns: Mapping[str, object]) -> Value:
    return tuple(sorted(columns.items()))


@dataclass
class HistoryTxn:
    """One committed (or aborted) transaction in value-history form."""

    txn_id: str
    client_id: int
    committed: bool
    #: key -> last observed value (first read wins per key: later reads may
    #: see the txn's own writes, which carry no external information).
    reads: Dict[Key, Value] = field(default_factory=dict)
    #: key -> last written value.
    writes: Dict[Key, Value] = field(default_factory=dict)
    #: (key, read value, written value) triples for read-modify-write
    #: traceability (Elle's version-order inference).
    rmw: List[Tuple[Key, Value, Value]] = field(default_factory=list)
    #: position in commit order (index of the terminal trace).
    commit_order: int = 0
    #: before-timestamp of the first operation (transaction begin).
    begin_ts: float = 0.0
    #: after-timestamp of the terminal operation (definitely finished by).
    commit_ts: float = 0.0


def history_from_traces(traces: Iterable[Trace]) -> List[HistoryTxn]:
    """Lower a (sorted or unsorted) trace stream into commit-ordered
    history transactions; aborted transactions take a place in the order
    but are left out."""
    building: Dict[str, HistoryTxn] = {}
    finished: List[Tuple[float, HistoryTxn]] = []
    for trace in sorted(traces, key=Trace.sort_key):
        txn = building.get(trace.txn_id)
        if txn is None:
            txn = HistoryTxn(
                txn_id=trace.txn_id,
                client_id=trace.client_id,
                committed=False,
                begin_ts=trace.ts_bef,
            )
            building[trace.txn_id] = txn
        if trace.kind is OpKind.READ and trace.status is OpStatus.OK:
            for key, observed in trace.reads.items():
                value = flatten_value(observed)
                if key not in txn.writes and key not in txn.reads:
                    txn.reads[key] = value
        elif trace.kind is OpKind.WRITE and trace.status is OpStatus.OK:
            for key, written in trace.writes.items():
                value = flatten_value(written)
                if key in txn.reads and key not in txn.writes:
                    txn.rmw.append((key, txn.reads[key], value))
                txn.writes[key] = value
        elif trace.is_terminal:
            txn.committed = trace.kind is OpKind.COMMIT
            txn.commit_ts = trace.ts_aft
            finished.append((trace.ts_bef, txn))
            del building[trace.txn_id]
    finished.sort(key=lambda pair: pair[0])
    history: List[HistoryTxn] = []
    for order, (_, txn) in enumerate(finished):
        txn.commit_order = order
        if txn.committed:
            history.append(txn)
    return history


def initial_history_txn(
    initial_db: Mapping[Key, Mapping[str, object]]
) -> HistoryTxn:
    """The synthetic transaction that wrote the initial database state."""
    txn = HistoryTxn(txn_id="__init__", client_id=-1, committed=True)
    txn.writes = {key: flatten_value(image) for key, image in initial_db.items()}
    txn.commit_order = -1
    return txn


def values_are_unique(history: List[HistoryTxn]) -> bool:
    """Whether every (key, written value) pair is distinct -- the
    version-manifesting property Elle's register inference requires."""
    seen = set()
    for txn in history:
        for key, value in txn.writes.items():
            if (key, value) in seen:
                return False
            seen.add((key, value))
    return True
