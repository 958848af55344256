"""Version chains and the Fig. 6 candidate version set (Theorem 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import PG_REPEATABLE_READ, PG_SERIALIZABLE
from repro.core.intervals import Interval
from repro.core.versions import VersionChain, chain_sort_key
from repro.workloads import BlindW, SmallBank, run_workload
from tests import cr_oracle, fig6_oracle, gc_oracle
from tests.conftest import verify_run


def chain_with(*specs, initial=None):
    """Build a committed chain from (txn, install, commit, value) tuples."""
    chain = VersionChain("x", initial_image=initial)
    for txn, install, commit, value in specs:
        chain.stage_write(txn, {"v": value}, Interval(*install))
        chain.commit_txn(txn, Interval(*commit))
    return chain


class TestStaging:
    def test_stage_and_commit(self):
        chain = VersionChain("x")
        chain.stage_write("t1", {"v": 1}, Interval(0, 1))
        assert chain.pending_count() == 1
        installed = chain.commit_txn("t1", Interval(2, 3))
        assert len(installed) == 1
        assert installed[0].commit == Interval(2, 3)
        assert chain.pending_count() == 0

    def test_abort_discards(self):
        chain = VersionChain("x")
        chain.stage_write("t1", {"v": 1}, Interval(0, 1))
        dropped = chain.abort_txn("t1")
        assert len(dropped) == 1
        assert len(chain) == 0
        assert chain.aborted_versions()

    def test_initial_version(self):
        chain = VersionChain("x", initial_image={"v": 0})
        assert len(chain) == 1
        assert chain.committed_versions()[0].is_initial

    def test_commit_unknown_txn_is_noop(self):
        chain = VersionChain("x")
        assert chain.commit_txn("ghost", Interval(0, 1)) == []


class TestOrderingAndImages:
    def test_sorted_by_commit(self):
        chain = chain_with(
            ("t2", (4, 5), (6, 7), 2),
            ("t1", (0, 1), (2, 3), 1),
        )
        values = [v.columns["v"] for v in chain.committed_versions()]
        assert values == [1, 2]

    def test_cumulative_images_full_column(self):
        chain = chain_with(
            ("t1", (0, 1), (2, 3), 1),
            ("t2", (4, 5), (6, 7), 2),
        )
        images = [v.image["v"] for v in chain.committed_versions()]
        assert images == [1, 2]

    def test_partial_column_images_merge(self):
        chain = VersionChain("x", initial_image={"a": 0, "b": 0})
        chain.stage_write("t1", {"a": 1}, Interval(0, 1))
        chain.commit_txn("t1", Interval(2, 3))
        chain.stage_write("t2", {"b": 2}, Interval(4, 5))
        chain.commit_txn("t2", Interval(6, 7))
        last = chain.committed_versions()[-1]
        assert last.image == {"a": 1, "b": 2}
        assert last.columns == {"b": 2}

    def test_mid_insert_recomputes_suffix_images(self):
        chain = VersionChain("x", initial_image={"a": 0, "b": 0})
        chain.stage_write("late", {"a": 9}, Interval(10, 11))
        chain.stage_write("early", {"b": 5}, Interval(0, 1))
        chain.commit_txn("late", Interval(12, 13))
        chain.commit_txn("early", Interval(2, 3))
        images = [v.image for v in chain.committed_versions()]
        assert images[-1] == {"a": 9, "b": 5}
        assert images[-2] == {"a": 0, "b": 5}

    def test_successor_predecessor(self):
        chain = chain_with(
            ("t1", (0, 1), (2, 3), 1),
            ("t2", (4, 5), (6, 7), 2),
        )
        first, second = chain.committed_versions()
        assert chain.successor_of(first) is second
        assert chain.successor_of(second) is None
        assert chain.predecessor_of(second) is first
        assert chain.predecessor_of(first) is None


class TestClassification:
    """The five Fig. 6 categories, computed on effective install (commit)
    intervals."""

    def setup_method(self):
        self.chain = chain_with(
            ("garbage", (0, 1), (1, 2), 10),
            ("pivot_overlap", (3, 4), (4.5, 6), 20),
            ("pivot", (4, 5), (5, 7), 30),
            ("overlap", (9, 10), (10, 12), 40),
            ("future", (20, 21), (21, 22), 50),
        )
        self.snapshot = Interval(11, 13)

    def test_pivot_identified(self):
        result = self.chain.classify(self.snapshot)
        assert result.pivot is not None and result.pivot.txn_id == "pivot"

    def test_future_excluded(self):
        result = self.chain.classify(self.snapshot)
        assert [v.txn_id for v in result.future] == ["future"]
        assert all(v.txn_id != "future" for v in result.candidates)

    def test_garbage_excluded(self):
        garbage = self.chain.garbage(self.snapshot)
        assert [v.txn_id for v in garbage] == ["garbage"]

    def test_candidates_minimal(self):
        result = self.chain.classify(self.snapshot)
        assert {v.txn_id for v in result.candidates} == {
            "pivot",
            "pivot_overlap",
            "overlap",
        }

    def test_snapshot_before_everything(self):
        result = self.chain.classify(Interval(-5, -4))
        assert result.pivot is None
        assert not result.candidates
        assert len(result.future) == 5

    def test_snapshot_after_everything(self):
        result = self.chain.classify(Interval(100, 101))
        assert result.pivot is not None
        # Only the last version (and its commit-overlaps) survive.
        assert result.pivot.txn_id == "future"

    def test_order_oracle_collapses_pivot_overlap(self):
        def oracle(a, b):
            order = {"pivot_overlap": 0, "pivot": 1}
            if a.txn_id in order and b.txn_id in order:
                return order[a.txn_id] < order[b.txn_id]
            return None

        result = self.chain.classify(self.snapshot, order_oracle=oracle)
        names = {v.txn_id for v in result.candidates}
        assert "pivot_overlap" not in names
        assert "pivot" in names

    def test_empty_chain(self):
        chain = VersionChain("x")
        result = chain.classify(Interval(0, 1))
        assert result.candidates == ()
        assert result.pivot is None


class TestMatching:
    def test_find_matching_committed(self):
        chain = chain_with(("t1", (0, 1), (2, 3), 7))
        assert chain.find_matching_committed({"v": 7})
        assert not chain.find_matching_committed({"v": 8})

    def test_find_matching_pending_covers_aborted(self):
        chain = VersionChain("x")
        chain.stage_write("t1", {"v": 9}, Interval(0, 1))
        assert chain.find_matching_pending({"v": 9})
        chain.abort_txn("t1")
        assert chain.find_matching_pending({"v": 9})


class TestPruning:
    def make_long_chain(self, n=10):
        specs = [
            (f"t{i}", (i * 10, i * 10 + 1), (i * 10 + 2, i * 10 + 3), i)
            for i in range(n)
        ]
        return chain_with(*specs)

    def test_prunes_garbage_before_horizon(self):
        chain = self.make_long_chain()
        pruned = chain.prune_garbage(Interval(95, 95), lambda txn: True)
        assert pruned > 0
        # The pivot relative to the horizon must survive.
        assert chain.committed_versions()

    def test_respects_txn_pin(self):
        chain = self.make_long_chain()
        pruned = chain.prune_garbage(Interval(95, 95), lambda txn: False)
        assert pruned == 0

    def test_images_stay_correct_after_prune(self):
        chain = VersionChain("x", initial_image={"a": 0, "b": 0})
        chain.stage_write("t1", {"a": 1}, Interval(0, 1))
        chain.commit_txn("t1", Interval(2, 3))
        chain.stage_write("t2", {"b": 2}, Interval(10, 11))
        chain.commit_txn("t2", Interval(12, 13))
        chain.prune_garbage(Interval(100, 100), lambda txn: True)
        survivors = chain.committed_versions()
        assert survivors[-1].image == {"a": 1, "b": 2}

    def test_never_empties_chain(self):
        chain = self.make_long_chain(3)
        chain.prune_garbage(Interval(1000, 1000), lambda txn: True)
        assert len(chain) >= 1

    def test_short_chain_skipped(self):
        chain = chain_with(("t1", (0, 1), (2, 3), 1))
        assert chain.prune_garbage(Interval(100, 100), lambda txn: True) == 0


class TestChainSortKey:
    """The key function is part of the chain's public contract: it drives
    the bisect index, and must be a *total* order for binary search to be
    sound."""

    def test_same_instant_batch_commit_orders_by_seq(self):
        # One transaction's batch commit installs several versions at the
        # same commit interval; same-instant writes even share the write
        # interval.  The seq component still orders them by staging order.
        chain = VersionChain("x")
        install = Interval(0, 1)
        for i in range(4):
            chain.stage_write(f"t{i}", {"v": i}, install)
        for i in range(4):
            chain.commit_txn(f"t{i}", Interval(2, 3))
        values = [v.columns["v"] for v in chain.committed_versions()]
        assert values == [0, 1, 2, 3]
        keys = [chain_sort_key(v) for v in chain.committed_versions()]
        assert keys == sorted(keys)
        # Total order: no two committed versions share a key.
        assert len(set(keys)) == len(keys)

    def test_key_is_total_order_under_identical_intervals(self):
        versions = []
        chain = VersionChain("x")
        for i in range(3):
            chain.stage_write(f"t{i}", {"v": i}, Interval(5, 6))
            chain.commit_txn(f"t{i}", Interval(7, 9))
        versions = chain.committed_versions()
        seqs = [v.seq for v in versions]
        assert seqs == sorted(seqs)
        # Sorting by the key reproduces the chain exactly (determinism).
        assert sorted(versions, key=chain_sort_key) == list(versions)

    def test_write_interval_breaks_commit_ties(self):
        chain = VersionChain("x")
        chain.stage_write("b", {"v": 2}, Interval(4, 5))
        chain.stage_write("a", {"v": 1}, Interval(0, 1))
        # Both land in the same instantaneous batch commit.
        chain.commit_txn("b", Interval(10, 11))
        chain.commit_txn("a", Interval(10, 11))
        values = [v.columns["v"] for v in chain.committed_versions()]
        assert values == [1, 2]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 100, allow_nan=False),  # install start
            st.floats(0.01, 5, allow_nan=False),  # install width
            st.floats(0.01, 5, allow_nan=False),  # gap to commit
            st.floats(0.01, 5, allow_nan=False),  # commit width
        ),
        min_size=1,
        max_size=12,
    ),
    st.floats(0, 120, allow_nan=False),
    st.floats(0.01, 5, allow_nan=False),
)
def test_candidate_set_property(specs, snap_start, snap_width):
    """Theorem 2 invariants: candidates, future and garbage partition the
    chain; nothing possibly-visible is excluded."""
    chain = VersionChain("x")
    for i, (start, width, gap, cwidth) in enumerate(specs):
        install = Interval(start, start + width)
        commit = Interval(install.ts_aft + gap, install.ts_aft + gap + cwidth)
        chain.stage_write(f"t{i}", {"v": i}, install)
        chain.commit_txn(f"t{i}", commit)
    snapshot = Interval(snap_start, snap_start + snap_width)
    result = chain.classify(snapshot)
    garbage = chain.garbage(snapshot)
    partition = set(result.candidates) | set(result.future) | set(garbage)
    assert partition == set(chain.committed_versions())
    # Future versions are *definitely* invisible.
    for version in result.future:
        assert snapshot.precedes(version.effective_install)
    # Every overlap version is a candidate.
    for version in chain.committed_versions():
        if version.effective_install.overlaps(snapshot):
            assert version in result.candidates
    # The pivot is a candidate and is the latest definitely-before version.
    if result.pivot is not None:
        assert result.pivot in result.candidates
        for version in garbage:
            assert (
                version.effective_install.ts_aft
                <= result.pivot.effective_install.ts_aft
            )


# -- the chain against the Fig. 6 linear scan (tests/fig6_oracle.py) ----------

def _commit(chain, txn_id, start, width, gap, cwidth):
    """Stage and commit one version.  Interval endpoints come from a coarse
    half-integer grid so exact boundary collisions (snapshot touching an
    install endpoint -- the "boundary sliver" candidates, and zero-width
    intervals tangent to each other) occur constantly rather than with
    float-collision probability."""
    chain.stage_write(
        txn_id, {"v": txn_id}, Interval(start / 2, (start + width) / 2)
    )
    chain.commit_txn(
        txn_id,
        Interval((start + width + gap) / 2, (start + width + gap + cwidth) / 2),
    )


def _build(specs):
    chain = VersionChain("x")
    for i, spec in enumerate(specs):
        _commit(chain, f"t{i}", *spec)
    return chain


_grid = st.integers(0, 60)
_width = st.integers(0, 8)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(_grid, _width, _width, _width), min_size=1, max_size=14
    ),
    _grid,
    _width,
)
def test_indexed_classification_matches_linear(specs, snap_start, snap_width):
    """The boundary partition over the key index must agree with the
    linear scan on every layout, including zero-width intervals and
    snapshots exactly tangent to install boundaries."""
    chain = _build(specs)
    snapshot = Interval(snap_start / 2, (snap_start + snap_width) / 2)
    fig6_oracle.check(chain, snapshot)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(_grid, _width, _width, _width), min_size=6, max_size=14
    ),
    st.lists(st.tuples(_grid, _width), min_size=1, max_size=6),
)
def test_indexed_memo_survives_interleaved_mutation(specs, snapshots):
    """Classify / mutate / re-classify: nothing the chain keeps between
    calls may survive a mutation and serve a stale partition."""
    chain = _build(specs)
    next_id = len(specs)
    for start, width in snapshots:
        snapshot = Interval(start / 2, (start + width) / 2)
        for _ in range(2):
            fig6_oracle.check(chain, snapshot)
        _commit(chain, f"m{next_id}", start, width + 1, 0, 1)
        next_id += 1


def test_single_version_fast_path_matches_linear():
    """Length-1 chains take a dedicated branch (scans and own-write reads
    still ask about them); all three outcomes -- future, pivot, overlap
    -- must agree with the linear scan, before and after the chain
    grows."""
    cases = [
        Interval(10, 11),   # snapshot after commit: version is the pivot
        Interval(0.1, 0.2),  # snapshot before install: version is future
        Interval(2, 9),     # overlapping: candidate without pivot
        Interval(8, 10),    # tangent at commit end (boundary sliver)
        Interval(0.1, 1),   # tangent at install start (boundary sliver)
    ]
    for snapshot in cases:
        chain = VersionChain("x")
        chain.stage_write("t0", {"v": 0}, Interval(1, 2))
        chain.commit_txn("t0", Interval(8, 9))
        fig6_oracle.check(chain, snapshot)
        chain.stage_write("t1", {"v": 1}, Interval(20, 21))
        chain.commit_txn("t1", Interval(22, 23))
        fig6_oracle.check(chain, snapshot)


def test_zero_width_tangency():
    """A zero-width snapshot touching a zero-width version satisfies both
    precedence predicates at once; Fig. 6 tests *future* first.  The
    tangent versions sort last among the definitely-before ones, with and
    without neighbours sharing their after-timestamp."""
    chain = VersionChain("x")
    for txn_id, install, commit in (
        ("old", (0, 1), (1, 2)),
        ("wide", (2, 3), (3, 5)),       # ends at the tangent point
        ("point-a", (4, 4), (5, 5)),    # zero-width at the tangent point
        ("point-b", (4, 5), (5, 5)),
        ("later", (6, 7), (7, 8)),
    ):
        chain.stage_write(txn_id, {"v": txn_id}, Interval(*install))
        chain.commit_txn(txn_id, Interval(*commit))
    snapshot = Interval(5, 5)
    fig6_oracle.check(chain, snapshot)
    result = chain.classify(snapshot)
    assert [v.txn_id for v in result.future] == ["point-a", "point-b", "later"]
    assert result.pivot.txn_id == "wide"
    for point in (1, 2, 3, 4, 6, 7, 8):
        fig6_oracle.check(chain, Interval(point, point))


_interleave_op = st.tuples(
    st.sampled_from(["install", "abort", "prune", "classify", "classify"]),
    _grid,
    _width,
    _width,
    _width,
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_interleave_op, min_size=2, max_size=24),
    st.sampled_from([None, "by-seq", "unknown"]),
)
def test_classify_matches_scan_under_interleaving(ops, oracle_kind):
    """Random read/install/abort/prune interleavings must classify exactly
    as the scan does -- every mutation shape the verifier can produce
    (tail appends, mid-chain inserts, GC prunes that return a chain to one
    version), with and without a ww-order oracle to collapse the
    pivot-overlap set."""
    order_oracle = {
        None: None,
        "by-seq": lambda a, b: a.seq < b.seq,
        "unknown": lambda a, b: None,
    }[oracle_kind]
    chain = VersionChain("x")
    next_id = 0
    for kind, start, width, gap, cwidth in ops:
        if kind == "classify":
            snapshot = Interval(start / 2, (start + width) / 2)
            fig6_oracle.check(chain, snapshot, order_oracle)
        elif kind == "prune":
            horizon = Interval(start / 2, start / 2)
            pinned = {v.txn_id for v in chain.committed_versions()[::3]}
            doomed = {
                id(v)
                for v in fig6_oracle.classify(
                    chain.committed_versions(), horizon
                ).garbage
                if v.txn_id not in pinned
            }
            survivors = [
                v for v in chain.committed_versions() if id(v) not in doomed
            ]
            pruned = chain.prune_garbage(horizon, lambda t: t not in pinned)
            assert pruned == len(doomed)
            assert chain.committed_versions() == survivors
            assert not chain.aborted_versions()
        else:
            txn_id = f"i{next_id}"
            next_id += 1
            if kind == "install":
                _commit(chain, txn_id, start, width, gap, cwidth)
            else:
                chain.stage_write(txn_id, {"v": txn_id}, Interval(start / 2, start))
                chain.abort_txn(txn_id)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(_grid, _width, _width, _width), min_size=6, max_size=14
    ),
    st.lists(st.tuples(_grid, _width), min_size=1, max_size=8),
)
def test_frontier_fast_path_matches_linear_on_boundary_slivers(
    specs, snapshots
):
    """Beyond-frontier snapshots (everything committed before the read)
    are where the walk back from the tail stops at once; sweep snapshots
    across the same grid the chain was built on so tangency with the last
    committed version is hit constantly."""
    chain = _build(specs)
    frontier = max(v.effective_install.ts_aft for v in chain.committed_versions())
    for start, width in snapshots:
        for base in (start / 2, frontier, frontier + start / 2):
            fig6_oracle.check(chain, Interval(base, base + width / 2))


# -- the same comparison at workload scale ------------------------------------

WORKLOADS = {
    "blindw-rw": lambda: run_workload(
        BlindW.rw(keys=256), PG_SERIALIZABLE, clients=8, txns=200, seed=5
    ),
    "blindw-rw-plus": lambda: run_workload(
        BlindW.rw_plus(keys=256), PG_SERIALIZABLE, clients=8, txns=150, seed=7
    ),
    "smallbank": lambda: run_workload(
        SmallBank(scale_factor=0.1), PG_SERIALIZABLE, clients=8, txns=150,
        seed=11,
    ),
}


class TestWorkloadScan:
    """Every classification a whole verification run asks for -- reads,
    scans, with the verifier's own ww-order oracle -- and every GC prune
    must match the linear scan, so nothing the chain deduces can differ
    from what the specification deduces.  CR's read pass decides
    one-version chains itself, so every read it checks is compared with
    the per-read reference over the same scan (``tests/cr_oracle.py``) and
    those decisions are counted next to the ``classify`` calls."""

    @pytest.fixture
    def checked_chains(self, monkeypatch):
        plain_classify = VersionChain.classify

        def classify(chain, snapshot, order_oracle=None):
            decided["classify"] += 1
            got = plain_classify(chain, snapshot, order_oracle)
            fig6_oracle.assert_same(
                got, fig6_oracle.classify(chain._chain, snapshot, order_oracle)
            )
            return got

        monkeypatch.setattr(VersionChain, "classify", classify)
        # Every collection's version prune -- the prefix slice and the
        # general path alike -- against the scan's garbage over all chains.
        with gc_oracle.checked(), cr_oracle.checked() as decided:
            yield decided

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_classification_matches_the_scan(self, name, checked_chains):
        run = WORKLOADS[name]()
        report = verify_run(run, PG_SERIALIZABLE, gc_every=64)
        assert report.ok
        assert checked_chains["classify"] + checked_chains["one_version"] > 200
        assert report.stats.gc_versions_pruned > 0

    def test_matches_the_scan_under_weaker_spec(self, checked_chains):
        """The claimed level changes which deductions fire (fewer
        mechanisms under RR, so a sparser ww-order oracle)."""
        run = WORKLOADS["blindw-rw"]()
        assert verify_run(run, PG_REPEATABLE_READ, gc_every=64).ok
        assert checked_chains["classify"] + checked_chains["one_version"] > 200
