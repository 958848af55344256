"""Discrete-event loop and client clock models."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.dbsim.clock import PerfectClock, SkewedClock, make_client_clocks
from repro.dbsim.events import EventLoop


class TestEventLoop:
    def test_executes_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule_at(3.0, lambda: order.append("c"))
        loop.schedule_at(1.0, lambda: order.append("a"))
        loop.schedule_at(2.0, lambda: order.append("b"))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_fifo_for_ties(self):
        loop = EventLoop()
        order = []
        loop.schedule_at(1.0, lambda: order.append("first"))
        loop.schedule_at(1.0, lambda: order.append("second"))
        loop.run()
        assert order == ["first", "second"]

    def test_now_advances(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(5.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [5.0]
        assert loop.now == 5.0

    def test_schedule_after(self):
        loop = EventLoop()
        seen = []
        loop.schedule_after(2.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [2.0]

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        loop.schedule_at(5.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule_after(-1.0, lambda: None)

    def test_stop(self):
        loop = EventLoop()
        loop.schedule_at(1.0, loop.stop)
        loop.schedule_at(2.0, lambda: pytest.fail("should not run"))
        loop.run()

    def test_cascading_events(self):
        loop = EventLoop()
        seen = []

        def emit(n):
            seen.append(n)
            if n < 5:
                loop.schedule_after(1.0, lambda: emit(n + 1))

        loop.schedule_at(0.0, lambda: emit(0))
        loop.run()
        assert seen == [0, 1, 2, 3, 4, 5]

    def test_event_budget(self):
        loop = EventLoop()

        def forever():
            loop.schedule_after(0.001, forever)

        loop.schedule_at(0.0, forever)
        with pytest.raises(RuntimeError):
            loop.run(max_events=100)


class TestClocks:
    def test_perfect_clock(self):
        clock = PerfectClock()
        assert clock.observe(1.5) == 1.5

    def test_constant_offset(self):
        clock = SkewedClock(offset=0.25)
        assert clock.observe(1.0) == 1.25

    def test_monotone_despite_jitter(self):
        rng = random.Random(0)
        clock = SkewedClock(offset=0.0, jitter=0.5, rng=rng)
        readings = [clock.observe(t * 0.01) for t in range(200)]
        assert readings == sorted(readings)

    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError):
            SkewedClock(jitter=0.1)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            SkewedClock(jitter=-0.1, rng=random.Random(0))

    def test_factory_perfect_by_default(self):
        clocks = make_client_clocks(4)
        assert all(isinstance(c, PerfectClock) for c in clocks)

    def test_factory_skewed(self):
        clocks = make_client_clocks(4, max_offset=0.01, jitter=0.001, seed=1)
        assert all(isinstance(c, SkewedClock) for c in clocks)
        # Deterministic for a fixed seed.
        again = make_client_clocks(4, max_offset=0.01, jitter=0.001, seed=1)
        assert [c.observe(1.0) for c in clocks] == [
            c.observe(1.0) for c in again
        ]

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=50))
    def test_monotonicity_property(self, times):
        clock = SkewedClock(offset=-0.5, jitter=0.2, rng=random.Random(7))
        readings = [clock.observe(t) for t in sorted(times)]
        assert readings == sorted(readings)
