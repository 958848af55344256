"""Interval-based traces: the only input Leopard needs from a system.

A *trace* records one client-observed database operation::

    T = (ts_bef, ts_aft, payload)

where ``ts_bef`` is taken immediately before the request is issued and
``ts_aft`` immediately after the response arrives (Section IV-A of the
paper).  The payload identifies the issuing transaction and, for data
operations, the logical read or write set.  Nothing else is required -- no
kernel instrumentation, no workload restrictions.

Records and values
------------------
A record is identified by an opaque hashable ``Key`` (for key-value
workloads this is the key itself; for relational workloads a
``(table, primary_key)`` tuple).  Record state is a mapping of column name
to value; key-value workloads use the single column ``"v"``.  A *write*
carries the delta it applied (columns it set), a *read* carries the columns
it observed.  Matching a read against a candidate version compares the
observed columns to the cumulative record image of that version, which is
exactly the information a black-box client has.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional, Tuple

from .intervals import Interval

Key = Hashable
Value = Any
ColumnMap = Mapping[str, Value]

#: Column name used by plain key-value workloads.
DEFAULT_COLUMN = "v"

#: Transaction id reserved for the initial database population.
INIT_TXN = "__init__"

#: Marker column carried by deletion versions and by observations of
#: absent rows.  A delete is traced as a write of exactly this delta.
TOMBSTONE_COLUMN = "__dead__"


def tombstone() -> Dict[str, Value]:
    """The column delta a DELETE writes."""
    return {TOMBSTONE_COLUMN: True}


def is_tombstone(columns: Mapping[str, Value]) -> bool:
    """Whether a delta or image denotes a deleted row."""
    return bool(columns.get(TOMBSTONE_COLUMN))


def apply_delta(image: Dict[str, Value], delta: Mapping[str, Value]) -> None:
    """Apply a write delta to a record image in place.

    Deletion (a pure tombstone delta) replaces the image with the
    tombstone; a delta carrying the marker *plus* columns is a squashed
    delete+re-insert and replaces the image with exactly those columns; a
    write on top of a tombstone is a re-insert starting from an empty row;
    ordinary writes merge columns.
    """
    # is_tombstone inlined: this runs per staged write and per image rebuild.
    if delta.get(TOMBSTONE_COLUMN):
        replacement = {
            col: val for col, val in delta.items() if col != TOMBSTONE_COLUMN
        }
        image.clear()
        if replacement:
            image.update(replacement)
        else:
            image[TOMBSTONE_COLUMN] = True
        return
    if image.get(TOMBSTONE_COLUMN):
        image.clear()
    image.update(delta)


def squash_delta(staged: Dict[str, Value], delta: Mapping[str, Value]) -> None:
    """Fold a new write delta into a transaction's squashed staged delta.

    A delete wipes everything staged; a write after a staged delete keeps
    the tombstone marker alongside the new columns (replacement semantics
    for :func:`apply_delta`); ordinary writes merge.
    """
    if is_tombstone(delta) and len(delta) == 1:
        staged.clear()
        staged[TOMBSTONE_COLUMN] = True
        return
    staged.update(delta)


@dataclass(frozen=True)
class KeyRange:
    """A predicate over structured keys: matches tuple keys of the form
    ``prefix + (i,)`` with ``lo <= i < hi``.

    Range reads traced with their predicate let the verifier check *scan
    completeness* (no phantom rows missing from the result), the property
    that separates snapshot scans from merely repeatable point reads.
    """

    prefix: Tuple
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"empty key range [{self.lo}, {self.hi})")
        object.__setattr__(self, "prefix", tuple(self.prefix))

    def matches(self, key: "Key") -> bool:
        if not isinstance(key, tuple) or len(key) != len(self.prefix) + 1:
            return False
        if tuple(key[: len(self.prefix)]) != self.prefix:
            return False
        last = key[-1]
        return isinstance(last, int) and self.lo <= last < self.hi

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return f"{self.prefix}+[{self.lo},{self.hi})"


class OpKind(enum.Enum):
    """The four trace payload kinds of Section IV-A."""

    READ = "read"
    WRITE = "write"
    COMMIT = "commit"
    ABORT = "abort"


class OpStatus(enum.Enum):
    """Client-visible outcome of the traced operation."""

    OK = "ok"
    #: The operation returned an error (e.g. serialization failure).  Failed
    #: operations contribute their interval but no read/write set.
    FAILED = "failed"


#: Compact wire codes for the binary trace codec (``repro.traces/v1b``,
#: :mod:`repro.core.codec`).  The numbering is part of the on-disk format:
#: append new codes, never renumber.
KIND_TO_CODE = {
    OpKind.READ: 0,
    OpKind.WRITE: 1,
    OpKind.COMMIT: 2,
    OpKind.ABORT: 3,
}
CODE_TO_KIND = {code: kind for kind, code in KIND_TO_CODE.items()}
STATUS_TO_CODE = {OpStatus.OK: 0, OpStatus.FAILED: 1}
CODE_TO_STATUS = {code: status for status, code in STATUS_TO_CODE.items()}


def as_columns(value: Any) -> Dict[str, Value]:
    """Normalise a scalar or column mapping into a column dict."""
    if isinstance(value, Mapping):
        return dict(value)
    return {DEFAULT_COLUMN: value}


_trace_counter = itertools.count()

#: Deterministic ingest ids: every trace read from a capture file or a
#: service session is stamped ``(client_id << SEQ_BITS) | per-client
#: sequence`` at decode, so cross-client ``ts_bef`` ties break by
#: ``(client_id, arrival index)`` no matter how the clients' decodes
#: interleave.  2^40 traces per client, ~8M clients in the id space above.
SEQ_BITS = 40


@dataclass(slots=True)
class Trace:
    """One interval-based trace.

    Instances are immutable *by convention* so they can be shared freely
    between the pipeline, the four verification mechanisms and reports:
    nothing assigns to a trace after construction, and a trace handed to a
    verifier must not be mutated afterwards.  Not ``frozen`` because the
    frozen-dataclass ``__init__`` stores every field through
    ``object.__setattr__`` and a trace is built once per hop for every
    record of the input (``tests/test_record_model.py`` guards what
    ``frozen`` used to).
    ``slots=True``: traces are read field-by-field by every mechanism hook,
    making attribute access on them the hottest load in the verifier.
    """

    interval: Interval
    kind: OpKind
    txn_id: str
    client_id: int
    #: key -> observed columns (reads) -- empty for non-read traces.
    reads: Mapping[Key, ColumnMap] = field(default_factory=dict)
    #: key -> written columns (writes) -- empty for non-write traces.
    writes: Mapping[Key, ColumnMap] = field(default_factory=dict)
    status: OpStatus = OpStatus.OK
    #: whether a read op acquired write locks (SELECT ... FOR UPDATE).
    for_update: bool = False
    #: the predicate a range read evaluated, when the operation was a scan
    #: (reads then holds exactly the matching rows the scan returned).
    predicate: Optional[KeyRange] = None
    #: position of the operation inside its transaction (0-based).
    op_index: int = 0
    #: globally unique, monotonically assigned id (tie-breaking in heaps).
    trace_id: int = field(default_factory=lambda: next(_trace_counter))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def read(
        ts_bef: float,
        ts_aft: float,
        txn_id: str,
        reads: Mapping[Key, Any],
        client_id: int = 0,
        op_index: int = 0,
        status: OpStatus = OpStatus.OK,
        for_update: bool = False,
        predicate: Optional["KeyRange"] = None,
    ) -> "Trace":
        """Build a read trace; scalar observations are normalised to the
        default column."""
        return Trace(
            interval=Interval(ts_bef, ts_aft),
            kind=OpKind.READ,
            txn_id=txn_id,
            client_id=client_id,
            reads={k: as_columns(v) for k, v in reads.items()},
            op_index=op_index,
            status=status,
            for_update=for_update,
            predicate=predicate,
        )

    @staticmethod
    def write(
        ts_bef: float,
        ts_aft: float,
        txn_id: str,
        writes: Mapping[Key, Any],
        client_id: int = 0,
        op_index: int = 0,
        status: OpStatus = OpStatus.OK,
    ) -> "Trace":
        return Trace(
            interval=Interval(ts_bef, ts_aft),
            kind=OpKind.WRITE,
            txn_id=txn_id,
            client_id=client_id,
            writes={k: as_columns(v) for k, v in writes.items()},
            op_index=op_index,
            status=status,
        )

    @staticmethod
    def commit(
        ts_bef: float,
        ts_aft: float,
        txn_id: str,
        client_id: int = 0,
        op_index: int = 0,
    ) -> "Trace":
        return Trace(
            interval=Interval(ts_bef, ts_aft),
            kind=OpKind.COMMIT,
            txn_id=txn_id,
            client_id=client_id,
            op_index=op_index,
        )

    @staticmethod
    def abort(
        ts_bef: float,
        ts_aft: float,
        txn_id: str,
        client_id: int = 0,
        op_index: int = 0,
    ) -> "Trace":
        return Trace(
            interval=Interval(ts_bef, ts_aft),
            kind=OpKind.ABORT,
            txn_id=txn_id,
            client_id=client_id,
            op_index=op_index,
        )

    # -- accessors ---------------------------------------------------------

    @property
    def ts_bef(self) -> float:
        return self.interval.ts_bef

    @property
    def ts_aft(self) -> float:
        return self.interval.ts_aft

    @property
    def is_terminal(self) -> bool:
        """Whether this trace ends its transaction."""
        return self.kind in (OpKind.COMMIT, OpKind.ABORT)

    def sort_key(self) -> Tuple[float, int]:
        """Pipeline ordering key: before-timestamp, tie-broken by id."""
        return (self.ts_bef, self.trace_id)

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        body: Optional[str]
        if self.kind is OpKind.READ:
            body = f"r{dict(self.reads)!r}"
        elif self.kind is OpKind.WRITE:
            body = f"w{dict(self.writes)!r}"
        else:
            body = self.kind.value
        return f"T[{self.txn_id}@{self.client_id} {self.interval} {body}]"


def reads_match(observed: ColumnMap, image: ColumnMap) -> bool:
    """Whether an observed column map is consistent with a record image.

    A read observing columns ``{a: 1}`` matches any image whose column ``a``
    equals 1; columns absent from the image (never written) match only an
    explicit ``None`` observation.  An observation of row absence (the
    tombstone marker) matches only a deleted image, and a value observation
    never matches a deleted image.
    """
    # is_tombstone inlined: this predicate runs once per candidate version
    # per read.
    if observed.get(TOMBSTONE_COLUMN):
        return bool(image.get(TOMBSTONE_COLUMN))
    if image.get(TOMBSTONE_COLUMN):
        return False
    for column, value in observed.items():
        if image.get(column) != value:
            return False
    return True
