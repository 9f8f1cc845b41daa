"""The window fold against a bucket model, bit for bit.

Swapping aggregation code under the decoder must move no golden
digest, so the fold is compared with exact float equality, not
approximately.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.monitor import TimeSeries, window_fold


def _bucket_model(samples, window, start, end, mean):
    """Buffer every window's samples, then add each bucket left to right."""
    n_windows = max(0, math.ceil((end - start) / window))
    if n_windows == 0:
        return [], []
    buckets = [[] for _ in range(n_windows)]
    for t, value in samples:
        if start <= t < end:
            buckets[min(int((t - start) / window), n_windows - 1)].append(value)
    values = []
    for bucket in buckets:
        total = 0.0
        for value in bucket:
            total += value
        if mean:
            total = total / len(bucket) if bucket else math.nan
        values.append(total)
    return [start + i * window for i in range(n_windows)], values


def _assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        if math.isnan(y):
            assert math.isnan(x)
        else:
            assert x == y


@given(
    samples=st.lists(
        st.tuples(
            st.floats(min_value=-5.0, max_value=60.0),
            st.floats(min_value=-1e6, max_value=1e6),
        ),
        max_size=200,
    ),
    window=st.floats(min_value=0.05, max_value=5.0),
    start=st.floats(min_value=-5.0, max_value=5.0),
    span=st.floats(min_value=0.0, max_value=50.0),
    mean=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_fold_matches_bucket_model(samples, window, start, span, mean):
    end = start + span
    times, values = window_fold(samples, window, start, end, mean)
    want_times, want_values = _bucket_model(samples, window, start, end, mean)
    assert times == want_times
    _assert_bitwise_equal(values, want_values)


def test_sample_at_end_is_dropped_and_edge_overflow_clamps():
    samples = [(0.5, 1.0), (2.9999999, 1.0), (3.0, 1.0)]
    times, values = window_fold(samples, 1.0, 0.0, 3.0, mean=False)
    assert times == [0.0, 1.0, 2.0]
    assert values == [1.0, 0.0, 1.0]


def test_gap_windows_are_nan_for_mean_and_zero_for_sum():
    samples = [(0.1, 2.0), (2.1, 4.0)]
    _, means = window_fold(samples, 1.0, 0.0, 3.0, mean=True)
    assert means[0] == 2.0 and math.isnan(means[1]) and means[2] == 4.0
    _, sums = window_fold(samples, 1.0, 0.0, 3.0, mean=False)
    assert sums == [2.0, 0.0, 4.0]


def test_empty_input_with_end_pads_every_window():
    assert window_fold([], 1.0, 0.0, 2.5, mean=False) == ([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])


def test_no_end_means_zero_windows():
    assert window_fold([(0.5, 1.0)], 1.0, 0.0, 0.0, mean=True) == ([], [])
    # A subnormal span divided by the window rounds to zero windows.
    assert window_fold([(0.0, 1.0)], 2.0, 0.0, 5e-324, mean=True) == ([], [])
    assert len(TimeSeries().window_average(1.0)) == 0


def test_start_offset_shifts_the_windows():
    samples = [(0.9, 7.0), (1.2, 1.0), (1.4, 2.0), (2.6, 5.0)]
    times, values = window_fold(samples, 0.5, 1.0, 2.5, mean=True)
    assert times == [1.0, 1.5, 2.0]
    assert values[0] == 1.5 and math.isnan(values[1]) and math.isnan(values[2])


@pytest.mark.parametrize("window", [0.0, -0.2])
def test_nonpositive_window_raises(window):
    with pytest.raises(ValueError, match="window must be positive"):
        window_fold([], window, 0.0, 1.0, mean=True)
