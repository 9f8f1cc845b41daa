"""Unit tests for the packet model."""

import pytest

from repro.net.addressing import PROTO_ICMP, PROTO_TCP, PROTO_UDP, UNSPECIFIED
from repro.net.packet import IP_HEADER_SIZE, ROOT_XID, UDP_HEADER_SIZE, Packet


def test_defaults():
    p = Packet("10.0.0.1")
    assert p.src == UNSPECIFIED
    assert p.proto == PROTO_UDP
    assert p.ttl == 64
    assert p.mark == 0
    assert p.xid == ROOT_XID
    assert p.sent_at is None


def test_udp_length_includes_headers():
    p = Packet("10.0.0.1", size=1024)
    assert p.length == IP_HEADER_SIZE + UDP_HEADER_SIZE + 1024


def test_icmp_length():
    p = Packet("10.0.0.1", proto=PROTO_ICMP, size=56)
    assert p.length == 20 + 8 + 56


def test_other_proto_length():
    p = Packet("10.0.0.1", proto=PROTO_TCP, size=100)
    assert p.length == 20 + 100


def test_uids_are_unique_and_increasing():
    a = Packet("10.0.0.1")
    b = Packet("10.0.0.1")
    assert b.uid > a.uid


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Packet("10.0.0.1", size=-1)


def test_nonpositive_ttl_rejected():
    with pytest.raises(ValueError):
        Packet("10.0.0.1", ttl=0)


def test_copy_preserves_fields_but_not_uid():
    p = Packet("10.0.0.2", src="10.0.0.1", size=10, sport=1, dport=2, xid=7)
    p.mark = 3
    p.bound_dev = "ppp0"
    twin = p.copy()
    assert twin.uid != p.uid
    assert twin.dst == p.dst
    assert twin.src == p.src
    assert twin.mark == 3
    assert twin.xid == 7
    assert twin.bound_dev == "ppp0"
    twin.bound_dev = None
    assert p.bound_dev == "ppp0"


def test_repr_mentions_endpoints():
    p = Packet("10.0.0.2", src="10.0.0.1", sport=5, dport=6)
    text = repr(p)
    assert "10.0.0.1:5" in text and "10.0.0.2:6" in text
