"""Brute-force cross-validation of the interval theorems.

The mechanism implementations reason symbolically about *hidden instants*
inside observed intervals.  These tests sample concrete hidden instants and
check the symbolic answers against what actually happened in each sampled
world:

* Theorem 2 (candidate version set): the version a sampled world makes
  visible is always in the computed candidate set;
* Theorem 3 (lock order enumeration): an order realisable in some sampled
  world is never classified infeasible, and a VIOLATION verdict is never
  contradicted by a sampled exclusion-respecting world.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.intervals import Interval
from repro.core.locktable import LockEntry, LockMode, OrderOutcome, classify_pair
from repro.core.versions import VersionChain

SAMPLES = 200


def sample_point(rng, interval: Interval) -> float:
    lo, hi = interval.ts_bef, interval.ts_aft
    if hi <= lo:
        return lo
    return rng.uniform(lo, hi)


# ---------------------------------------------------------------------------
# Theorem 3: lock order enumeration vs sampled worlds
# ---------------------------------------------------------------------------


def make_lock(rng, base: float, txn: str) -> LockEntry:
    """A lock whose acquire interval strictly precedes its release
    interval (an operation cannot release before acquiring)."""
    a0 = base + rng.uniform(0, 5)
    a1 = a0 + rng.uniform(0.01, 2)
    r0 = a1 + rng.uniform(0.01, 3)
    r1 = r0 + rng.uniform(0.01, 2)
    return LockEntry(
        key="x",
        txn_id=txn,
        mode=LockMode.EXCLUSIVE,
        acquire=Interval(a0, a1),
        release=Interval(r0, r1),
        committed=True,
    )


def sampled_orders(rng, first: LockEntry, second: LockEntry, samples=SAMPLES):
    """Which serial orders are realised by sampled hidden instants."""
    realised = set()
    for _ in range(samples):
        acq_a = sample_point(rng, first.acquire)
        rel_a = sample_point(rng, first.release)
        acq_b = sample_point(rng, second.acquire)
        rel_b = sample_point(rng, second.release)
        if not (acq_a < rel_a and acq_b < rel_b):
            continue
        if rel_a < acq_b:
            realised.add(OrderOutcome.FIRST_BEFORE_SECOND)
        elif rel_b < acq_a:
            realised.add(OrderOutcome.SECOND_BEFORE_FIRST)
        # otherwise: this world has overlapping holds (a violation world)
    return realised


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_theorem3_against_sampling(seed):
    rng = random.Random(seed)
    first = make_lock(rng, 0.0, "a")
    second = make_lock(rng, rng.uniform(-4, 4), "b")
    outcome = classify_pair(first, second)
    realised = sampled_orders(rng, first, second)
    if OrderOutcome.FIRST_BEFORE_SECOND in realised:
        # A realisable order must not be ruled out.
        assert outcome in (
            OrderOutcome.FIRST_BEFORE_SECOND,
            OrderOutcome.UNCERTAIN,
        )
    if OrderOutcome.SECOND_BEFORE_FIRST in realised:
        assert outcome in (
            OrderOutcome.SECOND_BEFORE_FIRST,
            OrderOutcome.UNCERTAIN,
        )
    if outcome is OrderOutcome.VIOLATION:
        # No sampled world may realise a serial (exclusion-respecting) order.
        assert not realised


# ---------------------------------------------------------------------------
# Theorem 2: candidate version set vs sampled worlds
# ---------------------------------------------------------------------------


def build_chain(rng, n_versions: int) -> VersionChain:
    chain = VersionChain("x")
    t = 0.0
    for i in range(n_versions):
        t += rng.uniform(0.05, 2)
        install = Interval(t, t + rng.uniform(0.05, 1.5))
        commit_start = install.ts_aft + rng.uniform(0.01, 1.5)
        commit = Interval(commit_start, commit_start + rng.uniform(0.05, 2.5))
        chain.stage_write(f"t{i}", {"v": i}, install)
        chain.commit_txn(f"t{i}", commit)
        t = install.ts_aft
    return chain


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_theorem2_against_sampling(seed, n_versions):
    """In every sampled world, the version actually visible to the read is
    a member of the computed candidate set."""
    rng = random.Random(seed)
    chain = build_chain(rng, n_versions)
    span = max(v.commit.ts_aft for v in chain.committed_versions())
    snap_start = rng.uniform(-1, span + 1)
    snapshot = Interval(snap_start, snap_start + rng.uniform(0.05, 2))
    candidates = set(chain.candidate_set(snapshot))
    for _ in range(SAMPLES):
        snap_instant = sample_point(rng, snapshot)
        # Hidden installation instants live inside the commit intervals
        # (Section II-A: a commit installs the versions).
        world = [
            (sample_point(rng, version.commit), version)
            for version in chain.committed_versions()
        ]
        visible = None
        best = float("-inf")
        for install_instant, version in world:
            if best < install_instant < snap_instant:
                best = install_instant
                visible = version
        if visible is not None:
            assert visible in candidates, (
                f"world made {visible.txn_id} visible but candidates are "
                f"{[v.txn_id for v in candidates]}"
            )


def witness_world_exists(target, others, snapshot: Interval) -> bool:
    """Deterministic feasibility: is there a world (a hidden install
    instant inside each commit interval plus a snapshot instant) in which
    *target* is the version visible to the snapshot?

    Target is visible iff its install precedes the snapshot instant and
    every other version either installs after the snapshot or before the
    target.  Blocking by version ``w`` is avoidable unless ``w`` lies
    entirely below the snapshot instant and entirely above the target's
    install.  Both constraint families are monotone step functions of the
    two free variables (lower snapshot / higher install only help), so
    checking install values just around each interval boundary -- with the
    minimal compatible snapshot for each -- decides feasibility exactly.
    Uniform sampling cannot do this: witness windows can be slivers at the
    snapshot boundary hit with probability ~1e-6 per sampled world."""
    v_lo, v_hi = target.commit.ts_bef, target.commit.ts_aft
    s_lo, s_hi = snapshot.ts_bef, snapshot.ts_aft
    thresholds = {v_lo, s_lo}
    for w in others:
        thresholds.add(w.commit.ts_bef)
        thresholds.add(w.commit.ts_aft)
    eps = 1e-9 * max(1.0, abs(v_hi), abs(s_hi))
    points = {t + d for t in thresholds for d in (eps, -eps)}
    points.add((v_lo + min(v_hi, s_hi)) / 2)
    for install in points:
        if not v_lo < install < v_hi:
            continue
        snap = max(s_lo, install) + eps
        if not (s_lo < snap < s_hi and install < snap):
            continue
        if all(
            w.commit.ts_aft > snap or w.commit.ts_bef < install
            for w in others
        ):
            return True
    return False


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_theorem2_minimality_spotcheck(seed, n_versions):
    """Every candidate is visible in at least one realisable world -- the
    minimality direction of Theorem 2.

    One documented relaxation: ``classify`` keeps a pre-snapshot version
    whenever its install interval overlaps the *pivot's* (their order is
    unresolved), without checking whether a third version is sandwiched
    definitely between the two -- such a sandwich blocks visibility in
    every world.  Those pivot-overlap keeps are the only candidates
    allowed to lack a witness world."""
    rng = random.Random(seed)
    chain = build_chain(rng, n_versions)
    span = max(v.commit.ts_aft for v in chain.committed_versions())
    snap_start = rng.uniform(0, span)
    snapshot = Interval(snap_start, snap_start + rng.uniform(0.2, 2))
    versions = list(chain.committed_versions())
    classification = chain.classify(snapshot)
    pivot = classification.pivot
    for candidate in classification.candidates:
        others = [v for v in versions if v.seq != candidate.seq]
        if witness_world_exists(candidate, others, snapshot):
            continue
        assert (
            pivot is not None
            and candidate is not pivot
            and candidate.effective_install.overlaps(pivot.effective_install)
        ), (
            f"{candidate.txn_id} is a candidate but no world makes it "
            f"visible to {snapshot}"
        )
