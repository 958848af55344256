"""Interval algebra: the foundation of every mechanism theorem."""


import math

import pytest
from hypothesis import given, strategies as st

from repro.core.intervals import (
    INITIAL_INTERVAL,
    Interval,
    NEG_INF,
    POS_INF,
    UNFINISHED_INTERVAL,
)


def iv(a, b):
    return Interval(a, b)


class TestConstruction:
    def test_valid(self):
        interval = iv(1.0, 2.0)
        assert interval.ts_bef == 1.0
        assert interval.ts_aft == 2.0

    def test_degenerate_allowed(self):
        assert iv(1.0, 1.0).ts_bef == iv(1.0, 1.0).ts_aft
        # Infinite ends are ordered values, not refusals.
        assert iv(NEG_INF, POS_INF).overlaps(iv(0.0, 1.0))

    def test_reversed_rejected(self):
        with pytest.raises(ValueError):
            iv(2.0, 1.0)

    @pytest.mark.parametrize(
        "pair", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)]
    )
    def test_nan_rejected(self, pair):
        """NaN compares false with everything, so a reversed-pair test
        alone lets it through; the refusal names the pair."""
        with pytest.raises(ValueError, match="nan"):
            iv(*pair)

    def test_initial_and_unfinished_sentinels(self):
        assert INITIAL_INTERVAL.ts_aft == NEG_INF
        assert UNFINISHED_INTERVAL.ts_bef == POS_INF

    def test_ordering_by_before_timestamp(self):
        assert sorted([iv(2, 3), iv(1, 5), iv(1, 2)]) == [
            iv(1, 2),
            iv(1, 5),
            iv(2, 3),
        ]


class TestPredicates:
    def test_precedes_disjoint(self):
        assert iv(0, 1).precedes(iv(2, 3))
        assert not iv(2, 3).precedes(iv(0, 1))

    def test_precedes_touching_is_before(self):
        # Open intervals: sharing an endpoint still orders them.
        assert iv(0, 1).precedes(iv(1, 2))

    def test_overlap_symmetric(self):
        assert iv(0, 2).overlaps(iv(1, 3))
        assert iv(1, 3).overlaps(iv(0, 2))

    def test_containment_overlaps(self):
        assert iv(0, 10).overlaps(iv(4, 5))

    def test_no_overlap_when_ordered(self):
        assert not iv(0, 1).overlaps(iv(1, 2))

    def test_initial_precedes_everything(self):
        assert INITIAL_INTERVAL.precedes(iv(-1e12, 0))

    def test_unfinished_follows_everything(self):
        assert iv(0, 1e12).precedes(UNFINISHED_INTERVAL)


class TestFeasibility:
    def test_can_precede_with_overlap(self):
        # Overlapping intervals: either hidden order is possible.
        assert iv(0, 2).can_precede(iv(1, 3))
        assert iv(1, 3).can_precede(iv(0, 2))

    def test_cannot_precede_when_strictly_after(self):
        assert not iv(2, 3).can_precede(iv(0, 1))

    def test_touching_cannot_precede_backwards(self):
        # a in (1,2), b in (0,1): a < b impossible.
        assert not iv(1, 2).can_precede(iv(0, 1))

    def test_unfinished_cannot_precede_finished(self):
        assert not UNFINISHED_INTERVAL.can_precede(iv(0, 1))
        assert iv(0, 1).can_precede(UNFINISHED_INTERVAL)


_bounded = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def intervals(draw):
    a = draw(_bounded)
    b = draw(_bounded)
    lo, hi = min(a, b), max(a, b)
    return Interval(lo, hi)


class TestProperties:
    @given(intervals(), intervals())
    def test_trichotomy(self, a, b):
        """Exactly one of: a before b, b before a, a overlaps b."""
        truths = [a.precedes(b), b.precedes(a), a.overlaps(b)]
        # Degenerate equal-point intervals can satisfy both precedes.
        if a.ts_bef == a.ts_aft == b.ts_bef == b.ts_aft:
            return
        assert sum(truths) == 1

    @given(intervals(), intervals())
    def test_overlap_symmetry(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(intervals(), intervals())
    def test_precedes_implies_can_precede(self, a, b):
        if a.precedes(b) and (a.ts_aft - a.ts_bef) + (b.ts_aft - b.ts_bef) > 0:
            assert a.can_precede(b)

    @given(intervals(), intervals())
    def test_overlap_implies_both_orders_feasible(self, a, b):
        if a.overlaps(b):
            assert a.can_precede(b) and b.can_precede(a)
