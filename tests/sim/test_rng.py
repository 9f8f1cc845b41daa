"""Unit and property tests for random streams and distributions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import (
    ConstantVariate,
    ExponentialVariate,
    LogNormalVariate,
    NormalVariate,
    RandomStreams,
    UniformVariate,
)


def test_same_name_returns_same_stream_object():
    streams = RandomStreams(1)
    assert streams.stream("a") is streams.stream("a")


def test_different_names_give_independent_sequences():
    streams = RandomStreams(1)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_same_seed_reproduces_sequences():
    one = RandomStreams(42)
    two = RandomStreams(42)
    assert [one.stream("x").random() for _ in range(10)] == [
        two.stream("x").random() for _ in range(10)
    ]


def test_different_seeds_differ():
    assert RandomStreams(1).stream("x").random() != RandomStreams(2).stream("x").random()


def test_fork_is_deterministic_and_distinct():
    base = RandomStreams(7)
    f1 = base.fork("rep-1")
    f2 = base.fork("rep-1")
    f3 = base.fork("rep-2")
    assert f1.seed == f2.seed
    assert f1.seed != f3.seed
    assert f1.seed != base.seed


def test_constant_variate():
    rng = RandomStreams(0).stream("c")
    dist = ConstantVariate(3.5)
    assert all(dist.sampler(rng)() == 3.5 for _ in range(10))
    assert dist.mean() == 3.5


def test_uniform_variate_bounds_and_mean():
    rng = RandomStreams(0).stream("u")
    dist = UniformVariate(2.0, 4.0)
    samples = [dist.sampler(rng)() for _ in range(2000)]
    assert all(2.0 <= s <= 4.0 for s in samples)
    assert sum(samples) / len(samples) == pytest.approx(3.0, abs=0.1)
    assert dist.mean() == 3.0


def test_uniform_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        UniformVariate(4.0, 2.0)


def test_exponential_mean():
    rng = RandomStreams(0).stream("e")
    dist = ExponentialVariate(0.5)
    samples = [dist.sampler(rng)() for _ in range(5000)]
    assert sum(samples) / len(samples) == pytest.approx(0.5, rel=0.1)
    assert dist.mean() == 0.5


def test_exponential_rejects_nonpositive_mean():
    with pytest.raises(ValueError):
        ExponentialVariate(0.0)


def test_normal_clamping():
    rng = RandomStreams(0).stream("n")
    dist = NormalVariate(0.0, 1.0, low=0.0)
    assert all(dist.sampler(rng)() >= 0.0 for _ in range(1000))


def test_normal_rejects_negative_sigma():
    with pytest.raises(ValueError):
        NormalVariate(0.0, -1.0)


def test_lognormal_mean():
    dist = LogNormalVariate(0.0, 0.5)
    assert dist.mean() == pytest.approx(math.exp(0.125))


def test_distribution_low_high_validation():
    with pytest.raises(ValueError):
        NormalVariate(0, 1, low=5.0, high=1.0)


@given(st.floats(min_value=-1e6, max_value=1e6), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50)
def test_constant_variate_is_always_value(value, seed):
    rng = RandomStreams(seed).stream("s")
    assert ConstantVariate(value).sampler(rng)() == value


@given(
    st.floats(min_value=0.001, max_value=1e3),
    st.floats(min_value=0.001, max_value=1e3),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=50)
def test_clamps_respected_for_exponential(mean, low, seed):
    rng = RandomStreams(seed).stream("s")
    dist = ExponentialVariate(mean, low=low)
    assert dist.sampler(rng)() >= low


@given(st.integers(min_value=0, max_value=2**63 - 1), st.text(min_size=1, max_size=20))
@settings(max_examples=50)
def test_stream_determinism_property(seed, name):
    a = RandomStreams(seed).stream(name).random()
    b = RandomStreams(seed).stream(name).random()
    assert a == b
