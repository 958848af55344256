"""The consistent-read check one read at a time: the specification
``ConsistentReadVerifier.on_terminal`` is tested against.

This is the mechanism's original per-read check -- snapshot, own writes,
Fig. 6 candidates, visibility filter, observation matching, diagnosis --
written over the linear scan of ``tests/fig6_oracle.py`` with the
``Interval`` predicates and ``reads_match`` called as such: no key index,
no one-version shortcut, nothing bound outside the read it decides.  Own
writes are captured by its own ``on_read`` wrapper, so it does not read
the pending entries it checks either.  Each function says what the read
pass must conclude for one read (or one scan) and records nothing; the
only thing it touches is the chain table, where it materialises the chain
of a key the pass is about to materialise too.

:func:`checked` wraps ``ConsistentReadVerifier.on_read`` / ``on_terminal``
so that at *every* terminal of every in-process backend (serial, inline
shards, online) the pass's unique matches (version identity, order),
recorded violations (kind, transactions, key, witness count, order of
first appearance), ``reads_checked`` and the three pair counters -- and,
on an instrumented run, the ``cr.candidate_set.size`` samples and the
``cr.reads.*`` / ``cr.scans.checked`` counters -- equal what the
per-read reference concludes.
"""

from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.consistent_read import ConsistentReadVerifier
from repro.core.report import Mechanism, ViolationKind
from repro.core.spec import CRLevel
from repro.core.trace import apply_delta, is_tombstone, reads_match
from repro.core.versions import Version

from tests import fig6_oracle

#: a violation as the descriptor deduplicates it, minus the mechanism.
Finding = Tuple[ViolationKind, Tuple[str, ...], object]


class Decision(NamedTuple):
    """What the check of one read must conclude."""

    #: how the read was decided: ``own`` (covered by own writes),
    #: ``absent`` (row never existed, observed absent), ``unique``,
    #: ``ambiguous`` or ``miss``.
    how: str
    #: the uniquely matched version (``unique`` only).
    match: Optional[Version] = None
    finding: Optional[Finding] = None
    #: size of the candidate set, None when no set was computed.
    candidates: Optional[int] = None
    overlapped: bool = False
    #: the read landed on a chain of exactly one committed version.
    one_version: bool = False


def snapshot_of(cr, txn, trace):
    """Definition 2: the first operation's interval under
    transaction-level CR, the read's own otherwise."""
    if cr._spec.cr is CRLevel.TRANSACTION and txn.first_interval is not None:
        return txn.first_interval
    return trace.interval


def _finding(kind, txn, key, other=None) -> Finding:
    txns = (txn.txn_id,) if other is None else tuple(sorted((txn.txn_id, other)))
    return kind, txns, key


def diagnose(cr, txn, key, observed, snapshot, chain) -> Optional[Finding]:
    """No candidate matched: the violation the read is, if any."""
    claims_cr = cr._spec.uses_cr
    if is_tombstone(observed):
        return _finding(ViolationKind.PHANTOM, txn, key) if claims_cr else None
    committed = [v for v in chain.committed_versions() if reads_match(observed, v.image)]
    if committed:
        version = committed[0]
        if not claims_cr:
            return None
        kind = (
            ViolationKind.FUTURE_READ
            if snapshot.precedes(version.effective_install)
            else ViolationKind.STALE_READ
        )
        return _finding(kind, txn, key, version.txn_id)
    uncommitted = chain.pending_versions() + chain.aborted_versions()
    # A dirty read agrees with the columns the write set; the rest of the
    # row is what some committed image (or no row at all) held under it.
    rows = [{}] + [v.image for v in chain.committed_versions()]

    def landed(delta, row):
        image = dict(row)
        apply_delta(image, delta)
        return image

    dirty = [
        v
        for v in uncommitted
        if any(reads_match(observed, landed(v.columns, row)) for row in rows)
    ]
    if dirty:
        return _finding(ViolationKind.DIRTY_READ, txn, key, dirty[0].txn_id)
    return _finding(ViolationKind.UNKNOWN_VERSION, txn, key)


def check_read(cr, txn, trace, key, own_delta) -> Decision:
    """The CR check of the read of ``key`` by ``trace``, ``own_delta``
    being the transaction's merged own writes to the key at read time."""
    state = cr._state
    observed = trace.reads[key]
    snapshot = snapshot_of(cr, txn, trace)
    if own_delta and all(column in own_delta for column in observed):
        if all(own_delta[column] == value for column, value in observed.items()):
            return Decision("own")
        return Decision(
            "own", finding=_finding(ViolationKind.OWN_WRITE_LOST, txn, key)
        )
    chain = state.chain(key)
    versions = chain.committed_versions()
    if not versions and is_tombstone(observed):
        return Decision("absent")
    if cr._minimal:
        candidates = [
            version
            for version in fig6_oracle.classify(
                versions, snapshot, state.ww_order
            ).candidates
            if not (version.commit is not None and snapshot.precedes(version.commit))
        ]
    else:
        candidates = versions
    matches = []
    for version in candidates:
        image = dict(version.image)
        if own_delta:
            apply_delta(image, own_delta)
        if reads_match(observed, image):
            matches.append(version)
    one_version = len(versions) == 1
    if not matches:
        return Decision(
            "miss",
            finding=diagnose(cr, txn, key, observed, snapshot, chain),
            candidates=len(candidates),
            one_version=one_version,
        )
    overlapped = any(v.effective_install.overlaps(snapshot) for v in matches)
    if len(matches) == 1:
        return Decision(
            "unique", matches[0], None, len(candidates), overlapped, one_version
        )
    return Decision(
        "ambiguous", None, None, len(candidates), overlapped, one_version
    )


def check_scan(cr, txn, trace) -> List[Finding]:
    """Scan completeness: the rows a predicate read must have returned
    and did not (phantoms), in the order they are reported."""
    state = cr._state
    if not cr._spec.uses_cr:
        return []
    snapshot = snapshot_of(cr, txn, trace)
    predicate = trace.predicate
    missing = []
    for key, chain in state.chains.items():
        if key in trace.reads or not predicate.matches(key):
            continue
        fig6 = fig6_oracle.classify(chain.committed_versions(), snapshot)
        if fig6.pivot is not None and not any(
            is_tombstone(version.image) for version in fig6.candidates
        ):
            missing.append((key, fig6.pivot.txn_id))
    for key in state.initial_only_keys():
        if predicate.matches(key) and key not in trace.reads:
            missing.append((key, "__init__"))
    return [
        (ViolationKind.PHANTOM, tuple(sorted({txn.txn_id, writer})), key)
        for key, writer in missing
    ]


class Expected(NamedTuple):
    """What one terminal's read pass must leave behind."""

    decisions: List[Decision]
    findings: List[Finding]
    scans: int


def check_terminal(cr, txn, reads) -> Expected:
    """Every deferred read of ``txn``, then every scan: ``reads`` is the
    transaction's ``(trace, {key: own delta})`` list in program order."""
    decisions = [
        check_read(cr, txn, trace, key, own.get(key))
        for trace, own in reads
        for key in trace.reads
    ]
    findings = [d.finding for d in decisions if d.finding is not None]
    scans = [trace for trace, _own in reads if trace.predicate is not None]
    for trace in scans:
        findings += check_scan(cr, txn, trace)
    return Expected(decisions, findings, len(scans) if cr._spec.uses_cr else 0)


# -- one terminal against the reference ----------------------------------------


class _Samples:
    """Stands in for the ``cr.candidate_set.size`` histogram during one
    pass, keeping each observed value."""

    def __init__(self, histogram):
        self.histogram = histogram
        self.values: List[int] = []

    def observe(self, value):
        self.values.append(value)
        self.histogram.observe(value)


def _cr_witnesses(descriptor) -> Counter:
    return Counter(
        {
            key[1:]: count
            for key, count in descriptor._seen.items()
            if key[0] is Mechanism.CONSISTENT_READ
        }
    )


def _pair_stats(stats):
    return (
        stats.reads_checked,
        stats.conflict_pairs,
        stats.overlapped_pairs,
        stats.deduced_overlapped_pairs,
    )


def check_pass(cr, on_terminal, txn, reads, args) -> Expected:
    """Run ``on_terminal(cr, txn, *args)`` and assert it concluded exactly
    what the per-read reference concludes from the same state."""
    want = check_terminal(cr, txn, reads)
    state = cr._state
    descriptor = state.descriptor
    witnesses = _cr_witnesses(descriptor)
    listed = len(descriptor._violations)
    stats = _pair_stats(state.stats)
    counters = [
        handle.value if cr._metered else 0
        for handle in (cr._m_reads, cr._m_unique, cr._m_ambiguous, cr._m_scans)
    ]
    samples = cr._m_candidates = _Samples(cr._m_candidates)
    queued = len(cr._match_queue)
    try:
        on_terminal(cr, txn, *args)
    finally:
        cr._m_candidates = samples.histogram
    assert not txn.pending_reads

    decisions = want.decisions
    unique = [d for d in decisions if d.how == "unique"]
    delivered = txn.committed and cr._on_read_matches is not None
    # The pass only queues its matches: the verifier drains them as its
    # next step, so here they are compared before they are delivered.
    assert [(id(v), reader) for v, reader in cr._match_queue[queued:]] == [
        (id(d.match), txn.txn_id) for d in unique if delivered
    ]

    assert _cr_witnesses(descriptor) - witnesses == Counter(want.findings)
    first_seen = list(dict.fromkeys(f for f in want.findings if f not in witnesses))
    assert [
        (v.kind, v.txns, v.key) for v in descriptor._violations[listed:]
    ] == first_seen
    matched = [d for d in decisions if d.how in ("unique", "ambiguous")]
    overlapped = [d for d in matched if d.overlapped]
    assert tuple(
        after - before for after, before in zip(_pair_stats(state.stats), stats)
    ) == (
        len(decisions),
        len(matched),
        len(overlapped),
        len([d for d in overlapped if d.how == "unique"]),
    )
    if cr._metered:
        assert samples.values == [
            d.candidates for d in decisions if d.candidates is not None
        ]
        assert [
            handle.value - before
            for handle, before in zip(
                (cr._m_reads, cr._m_unique, cr._m_ambiguous, cr._m_scans), counters
            )
        ] == [
            len(decisions),
            len(unique),
            len(matched) - len(unique),
            want.scans,
        ]
    else:
        assert not samples.values
    return want


@contextmanager
def checked():
    """Check every read pass made inside the block against the per-read
    reference; yields a ``Counter`` of the decisions checked so far, by
    ``Decision.how``, plus ``one_version`` (reads that landed on a chain
    of exactly one committed version), ``scans`` and ``findings``."""
    plain_read = ConsistentReadVerifier.on_read
    plain_terminal = ConsistentReadVerifier.on_terminal
    decided: Counter = Counter()
    #: per (mechanism instance, transaction): the read traces deferred so
    #: far, each with the own-write images of its keys at read time.
    deferred: Dict[Tuple[int, str], list] = {}

    def on_read(self, trace, txn):
        own = {
            key: dict(txn.own_images[key])
            for key in trace.reads
            if txn.own_images.get(key)
        }
        deferred.setdefault((id(self), txn.txn_id), []).append((trace, own))
        plain_read(self, trace, txn)
        entry_trace, entry_own = txn.pending_reads[-1]
        assert entry_trace is trace and (entry_own or {}) == own

    def on_terminal(self, txn, *args):
        reads = deferred.pop((id(self), txn.txn_id), [])
        assert [entry[0] for entry in txn.pending_reads] == [r[0] for r in reads]
        want = check_pass(self, plain_terminal, txn, reads, args)
        decided.update(d.how for d in want.decisions)
        decided["one_version"] += sum(d.one_version for d in want.decisions)
        decided["scans"] += want.scans
        decided["findings"] += len(want.findings)

    ConsistentReadVerifier.on_read = on_read
    ConsistentReadVerifier.on_terminal = on_terminal
    try:
        yield decided
    finally:
        ConsistentReadVerifier.on_read = plain_read
        ConsistentReadVerifier.on_terminal = plain_terminal
