"""Streaming aggregators: parity with the buffered implementations.

The whole point of :mod:`repro.obs.streaming` is that swapping it in
under the analysis layer moves no golden digest — so these tests prove
*bit-for-bit* float equality against ``TimeSeries.window_aggregate``,
not approximate agreement.
"""

import math
import random
from array import array

import pytest

from repro.obs.streaming import QOS_WINDOW, WINDOW_MODES, StreamingWindows
from repro.sim.monitor import TimeSeries


def _series(seed: int, n: int = 400, max_dt: float = 0.07) -> TimeSeries:
    rng = random.Random(seed)
    series = TimeSeries("s")
    t = 0.0
    for _ in range(n):
        t += rng.uniform(0.0, max_dt)
        series.add(t, rng.uniform(-5.0, 50.0))
    return series


def _values_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if math.isnan(x) or math.isnan(y):
            assert math.isnan(x) and math.isnan(y)
        else:
            assert x == y  # exact: same left-to-right accumulation


BUFFERED_FUNCS = {
    "mean": lambda vs: sum(vs) / len(vs),
    "sum": sum,
    "count": lambda vs: float(len(vs)),
    "max": max,
    "min": min,
}


class TestStreamingWindows:
    @pytest.mark.parametrize("mode", WINDOW_MODES)
    def test_bitwise_parity_with_window_aggregate(self, mode):
        series = _series(seed=11)
        empty = 0.0 if mode in ("sum", "count") else math.nan
        buffered = series.window_aggregate(
            QOS_WINDOW, BUFFERED_FUNCS[mode], empty_value=empty
        )
        agg = StreamingWindows(
            QOS_WINDOW, mode=mode, empty_value=empty,
            end=series.times[-1] + QOS_WINDOW,
        )
        for t, value in series.as_pairs():
            agg.add(t, value)
        times, values = agg.finish()
        assert times == buffered.times
        _values_equal(values, buffered.values)

    def test_parity_with_explicit_start_and_end(self):
        series = _series(seed=7)
        start, end = 1.0, 12.5
        buffered = series.window_aggregate(
            0.5, BUFFERED_FUNCS["mean"], start=start, end=end
        )
        agg = StreamingWindows(0.5, mode="mean", start=start, end=end)
        for t, value in series.as_pairs():
            agg.add(t, value)
        times, values = agg.finish()
        assert times == buffered.times
        _values_equal(values, buffered.values)

    def test_sample_at_end_is_dropped_and_edge_overflow_clamps(self):
        agg = StreamingWindows(1.0, mode="count", start=0.0, end=3.0)
        agg.add(0.5, 1.0)
        agg.add(2.9999999, 1.0)  # float division may round to index 3
        agg.add(3.0, 1.0)        # exactly at end: dropped
        times, values = agg.finish()
        assert times == [0.0, 1.0, 2.0]
        assert values == [1.0, 0.0, 1.0]

    def test_gap_windows_get_the_empty_value(self):
        agg = StreamingWindows(1.0, mode="mean", end=3.0)
        agg.add(0.1, 2.0)
        agg.add(2.1, 4.0)
        times, values = agg.finish()
        assert times == [0.0, 1.0, 2.0]
        assert values[0] == 2.0
        assert math.isnan(values[1])
        assert values[2] == 4.0

    def test_time_must_not_regress_across_windows(self):
        agg = StreamingWindows(1.0, mode="sum")
        agg.add(2.5, 1.0)
        with pytest.raises(ValueError, match="already closed"):
            agg.add(0.5, 1.0)

    def test_add_after_finish_raises(self):
        agg = StreamingWindows(1.0)
        agg.add(0.5, 1.0)
        agg.finish()
        with pytest.raises(ValueError, match="finished"):
            agg.add(1.5, 1.0)

    def test_finish_is_idempotent(self):
        agg = StreamingWindows(1.0, mode="sum", end=2.0)
        agg.add(0.5, 3.0)
        first = agg.finish()
        assert agg.finish() == first
        assert len(agg) == 2

    def test_rejects_bad_window_and_mode(self):
        with pytest.raises(ValueError):
            StreamingWindows(0.0)
        with pytest.raises(ValueError, match="unknown mode"):
            StreamingWindows(1.0, mode="median")

    def test_empty_stream_with_end_pads_everything(self):
        times, values = StreamingWindows(1.0, mode="count", end=2.5).finish()
        assert times == [0.0, 1.0, 2.0]
        assert values == [0.0, 0.0, 0.0]

    def test_empty_stream_without_end_is_empty(self):
        assert StreamingWindows(1.0).finish() == ([], [])


class TestBulkIngest:
    """``add_many`` is bit-identical to the unit calls."""

    @pytest.mark.parametrize("mode", WINDOW_MODES)
    def test_add_many_matches_add_bitwise(self, mode):
        series = _series(seed=31)
        end = series.times[-1] + QOS_WINDOW
        one = StreamingWindows(QOS_WINDOW, mode=mode, end=end)
        for t, v in series.as_pairs():
            one.add(t, v)
        bulk = StreamingWindows(QOS_WINDOW, mode=mode, end=end)
        bulk.add_many(array("d", series.times), array("d", series.values))
        one_times, one_values = one.finish()
        bulk_times, bulk_values = bulk.finish()
        assert bulk_times == one_times
        _values_equal(bulk_values, one_values)

    def test_chunk_boundaries_do_not_matter(self):
        series = _series(seed=13)
        end = series.times[-1] + QOS_WINDOW
        whole = StreamingWindows(QOS_WINDOW, end=end)
        whole.add_many(series.times, series.values)
        chunked = StreamingWindows(QOS_WINDOW, end=end)
        for lo in range(0, len(series), 7):
            hi = lo + 7
            chunked.add_many(series.times[lo:hi], series.values[lo:hi])
        assert whole.finish()[0] == chunked.finish()[0]
        _values_equal(whole.finish()[1], chunked.finish()[1])

    def test_out_of_order_batch_fails_like_add_and_leaves_same_state(self):
        def build():
            agg = StreamingWindows(1.0, mode="sum", end=5.0)
            agg.add(2.5, 1.0)
            return agg

        bulk = build()
        with pytest.raises(ValueError, match="already closed"):
            bulk.add_many([3.1, 0.5], [1.0, 1.0])
        unit = build()
        unit.add(3.1, 1.0)
        with pytest.raises(ValueError, match="already closed"):
            unit.add(0.5, 1.0)
        # Both paths folded the in-order prefix and then refused; the
        # aggregators stay usable and agree from here on.
        bulk.add(4.5, 2.0)
        unit.add(4.5, 2.0)
        assert bulk.finish() == unit.finish()

    def test_add_many_after_finish_raises(self):
        agg = StreamingWindows(1.0)
        agg.finish()
        with pytest.raises(ValueError, match="finished"):
            agg.add_many([0.5], [1.0])
