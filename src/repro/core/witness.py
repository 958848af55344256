"""Witness extraction: minimal replayable sub-histories for violations.

The bug descriptor names the transactions and record involved in each
violation; for filing a bug report (the paper's workflow with the TiDB
bugs) one wants the *smallest trace fragment that still exhibits it*.
:func:`extract_witness` slices a full capture down to the implicated
transactions plus every transaction that touched the implicated record, so
the fragment re-verifies to the same violation and can be attached to a
report or replayed against the real system.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from .report import Violation
from .trace import OpKind, Trace


def transactions_touching(
    traces: Sequence[Trace], key
) -> Set[str]:
    """Transactions that read or wrote ``key`` (including via scans)."""
    touching: Set[str] = set()
    for trace in traces:
        if key in trace.reads or key in trace.writes:
            touching.add(trace.txn_id)
        elif trace.predicate is not None and trace.predicate.matches(key):
            touching.add(trace.txn_id)
    return touching


def extract_witness(
    violation: Violation,
    traces: Sequence[Trace],
    include_key_history: bool = True,
) -> List[Trace]:
    """The sub-history relevant to one violation, in dispatch order.

    Includes every trace of the implicated transactions and -- when the
    violation names a record and ``include_key_history`` is set -- every
    transaction that touched that record (the version history context a CR
    or FUW violation is judged against).
    """
    wanted: Set[str] = set(violation.txns)
    wanted.discard("__init__")
    if include_key_history and violation.key is not None:
        wanted |= transactions_touching(traces, violation.key)
    witness = [trace for trace in traces if trace.txn_id in wanted]
    witness.sort(key=Trace.sort_key)
    return witness


def witness_summary(witness: Sequence[Trace]) -> str:
    """A compact human-readable schedule of a witness fragment."""
    lines = []
    for trace in witness:
        if trace.kind is OpKind.READ:
            body = f"r{dict(trace.reads)!r}"
            if trace.predicate is not None:
                body = f"scan[{trace.predicate}] -> {sorted(trace.reads)}"
        elif trace.kind is OpKind.WRITE:
            body = f"w{dict(trace.writes)!r}"
        else:
            body = trace.kind.value.upper()
        lines.append(
            f"[{trace.ts_bef:12.6f},{trace.ts_aft:12.6f}] "
            f"c{trace.client_id}/{trace.txn_id:<10s} {body}"
        )
    return "\n".join(lines)
