"""Two-level pipeline: ordering guarantee (Theorem 1) and bookkeeping."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.metrics import MetricsRegistry
from repro.core.pipeline import (
    ClientFeed,
    NaiveGlobalSorter,
    TwoLevelPipeline,
    pipeline_from_client_streams,
    sorted_traces,
)
from repro.core.trace import Trace


def make_stream(client_id, timestamps):
    """A monotone client stream of commit traces at given before-times."""
    return [
        Trace.commit(ts, ts + 0.5, f"t{client_id}-{i}", client_id=client_id)
        for i, ts in enumerate(timestamps)
    ]


def interleaved_streams(n_clients=4, per_client=50, seed=0):
    rng = random.Random(seed)
    streams = {}
    for client in range(n_clients):
        t = rng.random()
        stamps = []
        for _ in range(per_client):
            t += rng.random()
            stamps.append(t)
        streams[client] = make_stream(client, stamps)
    return streams


class TestClientFeed:
    def test_batching(self):
        feed = ClientFeed(make_stream(0, [1, 2, 3, 4, 5]), batch_size=2)
        assert len(feed.next_batch()) == 2
        assert len(feed.next_batch()) == 2
        assert len(feed.next_batch()) == 1
        assert feed.exhausted
        assert feed.next_batch() == []

    def test_rejects_unsorted_stream(self):
        feed = ClientFeed(make_stream(0, [5, 1]), batch_size=8)
        with pytest.raises(ValueError):
            feed.next_batch()

    def test_unsorted_error_names_client_and_index(self):
        """The error must be attributable: offending client and the trace
        index within its stream, across batch boundaries."""
        feed = ClientFeed(
            make_stream(7, [1, 2, 3, 2.5]), batch_size=3, client_id=7
        )
        feed.next_batch()
        with pytest.raises(ValueError, match=r"client 7 .*trace index 3"):
            feed.next_batch()

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            ClientFeed([], batch_size=0)


class TestTwoLevelPipeline:
    def test_requires_feeds(self):
        with pytest.raises(ValueError):
            TwoLevelPipeline([])

    def test_single_client_passthrough(self):
        streams = {0: make_stream(0, [1, 2, 3])}
        out = list(pipeline_from_client_streams(streams))
        assert [t.ts_bef for t in out] == [1, 2, 3]

    def test_dispatch_order_theorem1(self):
        streams = interleaved_streams()
        out = list(pipeline_from_client_streams(streams, batch_size=7))
        stamps = [t.ts_bef for t in out]
        assert stamps == sorted(stamps)
        assert len(out) == sum(len(s) for s in streams.values())

    def test_unoptimized_same_output(self):
        streams = interleaved_streams(seed=5)
        optimized = [
            t.trace_id
            for t in pipeline_from_client_streams(streams, optimized=True)
        ]
        plain = [
            t.trace_id
            for t in pipeline_from_client_streams(streams, optimized=False)
        ]
        assert sorted(optimized) == sorted(plain)

    def test_empty_client_tolerated(self):
        streams = {0: make_stream(0, [1, 2]), 1: []}
        out = list(pipeline_from_client_streams(streams))
        assert len(out) == 2

    def test_all_empty(self):
        out = list(pipeline_from_client_streams({0: [], 1: []}))
        assert out == []

    def test_stats_counted(self):
        streams = interleaved_streams()
        metrics = MetricsRegistry()
        pipeline = pipeline_from_client_streams(
            streams, batch_size=10, metrics=metrics
        )
        total = sum(1 for _ in pipeline)
        assert metrics.counter_value("pipeline.traces.dispatched") == total
        heap = metrics.snapshot()["histograms"]["pipeline.heap.size"]
        assert heap["count"] > 0 and heap["max"] > 0
        assert pipeline.stats.peak_buffered >= heap["max"]

    def test_laggard_client_bounds_heap(self):
        """A very slow client should not make the optimized pipeline buffer
        everything from the fast ones."""
        fast = make_stream(0, [i * 0.001 for i in range(400)])
        slow = make_stream(1, [i * 0.4 for i in range(400)])
        streams = {0: fast, 1: slow}
        peaks = []
        for optimized in (True, False):
            metrics = MetricsRegistry()
            list(
                pipeline_from_client_streams(
                    streams, batch_size=16, optimized=optimized, metrics=metrics
                )
            )
            peaks.append(metrics.snapshot()["histograms"]["pipeline.heap.size"]["max"])
        assert peaks[0] <= peaks[1]


class TestNaiveSorter:
    def test_same_output_as_pipeline(self):
        streams = interleaved_streams(seed=9)
        feeds = [ClientFeed(s) for s in streams.values()]
        naive = NaiveGlobalSorter(feeds)
        out = [t.ts_bef for t in naive]
        assert out == sorted(out)
        assert naive.stats.peak_buffered == sum(len(s) for s in streams.values())


class TestSortedTraces:
    def test_helper(self):
        streams = interleaved_streams(seed=2)
        merged = sorted_traces(streams)
        assert [t.ts_bef for t in merged] == sorted(t.ts_bef for t in merged)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(  # per-client lists of inter-arrival gaps
        st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=0, max_size=30),
        min_size=1,
        max_size=6,
    ),
    st.integers(1, 16),
    st.booleans(),
)
def test_property_monotone_and_complete(gaps_per_client, batch_size, optimized):
    """Theorem 1 as a property: any set of monotone client streams is
    dispatched complete and in non-decreasing before-timestamp order."""
    streams = {}
    for client, gaps in enumerate(gaps_per_client):
        t = 0.0
        stamps = []
        for gap in gaps:
            t += gap
            stamps.append(t)
        streams[client] = make_stream(client, stamps)
    pipeline = pipeline_from_client_streams(
        streams, batch_size=batch_size, optimized=optimized
    )
    out = list(pipeline)
    stamps = [t.ts_bef for t in out]
    assert stamps == sorted(stamps)
    expected = sorted(t.trace_id for s in streams.values() for t in s)
    assert sorted(t.trace_id for t in out) == expected


def dispatched_ids(streams, **kwargs):
    return [
        t.trace_id
        for batch in pipeline_from_client_streams(streams, **kwargs).iter_batches()
        for t in batch
    ]


def sorted_ids(streams):
    return [t.trace_id for t in sorted_traces(streams)]


class TestRunMerge:
    """Sorted-run merging must dispatch exactly ``sorted_traces(streams)``
    -- the global ``(ts_bef, trace_id)`` sort -- edge cases included."""

    def test_empty_client_stream(self):
        streams = {0: make_stream(0, [1, 2, 3]), 1: [], 2: make_stream(2, [1.5])}
        assert dispatched_ids(streams) == sorted_ids(streams)
        assert len(sorted_ids(streams)) == 4

    def test_all_streams_empty(self):
        assert list(pipeline_from_client_streams({0: [], 1: []})) == []

    def test_watermark_ties_all_clients_one_ts(self):
        """Every client's every trace shares one before-timestamp: the
        whole order is trace-id arbitration."""
        streams = {c: make_stream(c, [7.0] * 9) for c in range(4)}
        assert dispatched_ids(streams, batch_size=4) == sorted_ids(streams)
        assert len(sorted_ids(streams)) == 36

    def test_final_batch_exactly_batch_size(self):
        """A client whose stream length is an exact batch-size multiple:
        the feed reports exhaustion only on the trailing empty batch, and
        the pipeline must still drain it."""
        streams = {
            0: make_stream(0, [float(i) for i in range(12)]),  # 3 * 4 exactly
            1: make_stream(1, [0.5, 5.5]),
        }
        assert dispatched_ids(streams, batch_size=4) == sorted_ids(streams)
        assert len(sorted_ids(streams)) == 14

    @pytest.mark.parametrize("optimized", [True, False])
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 64])
    @pytest.mark.parametrize(
        "stamps",
        [{1: [5, 6, 7], 2: [3, 4, 5]}, {1: [3, 4, 5], 2: [5, 6, 7]}],
        ids=["low-id-tie-buffered", "mirror"],
    )
    def test_cross_client_tie_with_the_watermark(self, stamps, batch_size, optimized):
        """A staged trace that ties the smallest buffered before-timestamp
        must wait for a lower-id trace with that timestamp still sitting
        in another client's local buffer: the watermark is a ``(ts_bef,
        trace_id)`` pair, so the order is the same at every batch size."""
        streams = {c: make_stream(c, ts) for c, ts in stamps.items()}
        assert dispatched_ids(
            streams, batch_size=batch_size, optimized=optimized
        ) == sorted_ids(streams)

    def test_iter_batches_matches_iteration(self):
        streams = interleaved_streams(seed=13)
        assert dispatched_ids(streams) == [
            t.trace_id for t in pipeline_from_client_streams(streams)
        ]

    def test_run_stats_counted(self):
        streams = interleaved_streams(n_clients=6, seed=17)
        metrics = MetricsRegistry()
        pipeline = pipeline_from_client_streams(streams, batch_size=8, metrics=metrics)
        total = sum(len(b) for b in pipeline.iter_batches())
        assert metrics.counter_value("pipeline.traces.dispatched") == total
        assert (
            metrics.counter_value("pipeline.run.merged")
            + metrics.counter_value("pipeline.run.fastpath")
            > 0
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(  # per-client lists of inter-arrival gaps (zero gaps = ties)
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 5.0, allow_nan=False)),
            min_size=0,
            max_size=25,
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([1, 2, 3, 64]),
    st.booleans(),
    st.booleans(),
)
def test_property_run_merge_equals_reference(
    gaps_per_client, batch_size, optimized, reverse_ids
):
    """The dispatch order is trace-for-trace identical (ties included) to
    ``sorted_traces`` over any set of monotone client streams, whichever
    client holds the lower ids."""
    streams = {}
    clients = list(enumerate(gaps_per_client))
    for client, gaps in reversed(clients) if reverse_ids else clients:
        t = 0.0
        stamps = []
        for gap in gaps:
            t += gap
            stamps.append(t)
        streams[client] = make_stream(client, stamps)
    assert dispatched_ids(
        streams, batch_size=batch_size, optimized=optimized
    ) == sorted_ids(streams)


class TestRandomizedEquivalence:
    """Seeded randomized check: over many random multi-client streams the
    pipeline's dispatch order (optimized and unoptimized) is exactly the
    globally sorted order, and its bookkeeping counts every trace."""

    @staticmethod
    def random_streams(rng):
        n_clients = rng.randint(1, 6)
        streams = {}
        for client in range(n_clients):
            t = rng.uniform(0.0, 5.0)
            stamps = []
            for _ in range(rng.randint(0, 40)):
                t += rng.choice([0.0, rng.random(), 3.0 * rng.random()])
                stamps.append(t)
            streams[client] = make_stream(client, stamps)
        return streams

    @pytest.mark.parametrize("optimized", [True, False])
    def test_matches_global_sort_over_random_streams(self, optimized):
        rng = random.Random(0xC0FFEE)
        for _ in range(50):
            streams = self.random_streams(rng)
            if not any(streams.values()):
                continue
            batch_size = rng.choice([1, 2, 7, 64])
            expected = sorted_traces(streams)
            metrics = MetricsRegistry()
            pipeline = pipeline_from_client_streams(
                streams, batch_size=batch_size, optimized=optimized, metrics=metrics
            )
            dispatched = list(pipeline)
            assert [t.trace_id for t in dispatched] == [
                t.trace_id for t in expected
            ]
            assert metrics.counter_value("pipeline.traces.dispatched") == sum(
                len(s) for s in streams.values()
            )
