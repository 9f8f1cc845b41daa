"""Unit tests for the PDP address pool."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addressing import ip
from repro.umts.pool import AddressPool, PoolExhaustedError


def test_allocates_distinct_addresses():
    pool = AddressPool("10.199.0.0/24")
    addrs = {pool.allocate() for _ in range(50)}
    assert len(addrs) == 50


def test_reserved_addresses_never_allocated():
    pool = AddressPool("10.199.0.0/29", reserved=["10.199.0.1"])
    allocated = [pool.allocate() for _ in range(5)]
    assert ip("10.199.0.1") not in allocated
    assert ip("10.199.0.0") not in allocated  # network address


def test_exhaustion_raises():
    pool = AddressPool("10.199.0.0/30", reserved=["10.199.0.1"])
    pool.allocate()  # .2 is the only host left (.3 is broadcast)
    with pytest.raises(PoolExhaustedError):
        pool.allocate()


def test_release_and_reuse():
    pool = AddressPool("10.199.0.0/30", reserved=["10.199.0.1"])
    addr = pool.allocate()
    pool.release(addr)
    assert pool.allocate() == addr


def test_release_unallocated_raises():
    pool = AddressPool("10.199.0.0/24")
    with pytest.raises(ValueError):
        pool.release(ip("10.199.0.5"))


def test_in_use_counter():
    pool = AddressPool("10.199.0.0/24")
    a = pool.allocate()
    pool.allocate()
    assert pool.in_use == 2
    pool.release(a)
    assert pool.in_use == 1


def test_contains():
    pool = AddressPool("10.199.0.0/16")
    assert "10.199.3.7" in pool
    assert ip("10.199.0.1") in pool
    assert "10.200.0.1" not in pool


@given(st.integers(min_value=1, max_value=60))
@settings(max_examples=20)
def test_allocate_release_cycles_property(n):
    pool = AddressPool("10.199.0.0/24", reserved=["10.199.0.1"])
    live = []
    for i in range(n):
        live.append(pool.allocate())
        if i % 3 == 2:
            pool.release(live.pop(0))
    assert len(set(live)) == len(live)
    assert pool.in_use == len(live)


def test_allocation_order_is_deterministic_host_order():
    # Two pools over the same prefix hand out identical sequences:
    # ascending host order, skipping reserved (no set/hash ordering).
    first = AddressPool("10.199.0.0/28", reserved=["10.199.0.1", "10.199.0.3"])
    second = AddressPool("10.199.0.0/28", reserved=["10.199.0.1", "10.199.0.3"])
    sequence = [str(first.allocate()) for _ in range(5)]
    assert sequence == [str(second.allocate()) for _ in range(5)]
    assert sequence == [
        "10.199.0.2",
        "10.199.0.4",
        "10.199.0.5",
        "10.199.0.6",
        "10.199.0.7",
    ]


def test_exhausted_pool_recovers_after_release():
    pool = AddressPool("10.199.0.0/29", reserved=["10.199.0.1"])
    held = [pool.allocate() for _ in range(5)]  # .2 .. .6 (.7 broadcast)
    with pytest.raises(PoolExhaustedError):
        pool.allocate()
    pool.release(held[2])
    assert pool.allocate() == held[2]
