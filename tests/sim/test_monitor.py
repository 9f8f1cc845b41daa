"""Unit tests for time series and monitors."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.monitor import TimeSeries, window_fold


def make_series(pairs):
    ts = TimeSeries("t")
    for t, v in pairs:
        ts.add(t, v)
    return ts


def test_empty_series_stats_are_nan():
    ts = TimeSeries()
    assert math.isnan(ts.mean())
    assert math.isnan(ts.maximum())
    assert math.isnan(ts.minimum())
    assert math.isnan(ts.stdev())


def test_single_sample_stdev_is_zero():
    # One sample has no spread — stdev must be 0.0, not NaN.
    ts = make_series([(0, 5.0)])
    assert ts.stdev() == 0.0


def test_add_and_basic_stats():
    ts = make_series([(0, 1.0), (1, 2.0), (2, 3.0)])
    assert len(ts) == 3
    assert ts.mean() == 2.0
    assert ts.maximum() == 3.0
    assert ts.minimum() == 1.0
    assert ts.stdev() == pytest.approx(math.sqrt(2.0 / 3.0))


def test_add_rejects_time_going_backwards():
    ts = make_series([(5, 1.0)])
    with pytest.raises(ValueError):
        ts.add(4.0, 2.0)


def test_between_is_half_open():
    ts = make_series([(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)])
    sub = ts.between(1.0, 3.0)
    assert sub.as_pairs() == [(1.0, 1.0), (2.0, 2.0)]


def test_window_average_basic():
    ts = make_series([(0.05, 10.0), (0.15, 20.0), (0.25, 30.0)])
    win = ts.window_average(0.2, start=0.0, end=0.4)
    assert win.times == [0.0, 0.2]
    assert win.values[0] == pytest.approx(15.0)
    assert win.values[1] == pytest.approx(30.0)


def test_window_average_empty_window_is_nan():
    ts = make_series([(0.05, 10.0), (0.45, 20.0)])
    win = ts.window_average(0.2, start=0.0, end=0.6)
    assert math.isnan(win.values[1])


def test_window_sum_empty_is_zero():
    _, sums = window_fold([(0.05, 10.0)], 0.2, 0.0, 0.6, mean=False)
    assert sums == [10.0, 0.0, 0.0]


def test_window_rejects_nonpositive():
    ts = make_series([(0.0, 1.0)])
    with pytest.raises(ValueError):
        ts.window_average(0.0)


def test_window_default_end_covers_last_sample():
    ts = make_series([(0.0, 1.0), (1.0, 2.0)])
    win = ts.window_average(0.5)
    assert len(win) >= 3
    assert win.values[0] == 1.0


def test_samples_outside_range_excluded():
    _, sums = window_fold([(0.0, 1.0), (5.0, 99.0)], 1.0, 0.0, 2.0, mean=False)
    assert sum(sums) == 1.0


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=50)
def test_window_sum_preserves_total(pairs):
    pairs = sorted(pairs, key=lambda p: p[0])
    _, sums = window_fold(pairs, 7.3, 0.0, 101.0, mean=False)
    assert sum(sums) == pytest.approx(sum(v for _, v in pairs), rel=1e-9, abs=1e-6)


@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=2, max_size=50
    )
)
@settings(max_examples=50)
def test_mean_between_min_and_max(values):
    ts = make_series([(float(i), v) for i, v in enumerate(values)])
    assert ts.minimum() - 1e-9 <= ts.mean() <= ts.maximum() + 1e-9


def test_nan_samples_ignored_by_stats():
    ts = make_series([(0.0, 1.0), (1.0, float("nan")), (2.0, 3.0)])
    assert ts.mean() == pytest.approx(2.0)
    assert ts.maximum() == 3.0
    assert ts.minimum() == 1.0


def test_between_preserves_name():
    ts = make_series([(0.0, 1.0)])
    assert ts.between(0.0, 1.0).name == ts.name
