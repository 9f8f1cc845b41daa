"""Unit tests for netfilter chains, matches and targets."""

import pytest

from repro.net.addressing import IPv4Network, ip
from repro.net.packet import Packet
from repro.netfilter.chains import (
    HOOK_OUTPUT,
    Chain,
    Netfilter,
    PacketContext,
    Rule,
)
from repro.netfilter.matches import (
    DestinationMatch,
    DportMatch,
    InInterfaceMatch,
    MarkMatch,
    OutInterfaceMatch,
    ProtocolMatch,
    SourceMatch,
    SportMatch,
    XidMatch,
)
from repro.netfilter.targets import (
    AcceptTarget,
    DropTarget,
    JumpTarget,
    LogTarget,
    MarkTarget,
    ReturnTarget,
    Verdict,
)


def ctx_for(packet, out_iface=None, in_iface=None):
    return PacketContext(packet, HOOK_OUTPUT, in_iface=in_iface, out_iface=out_iface, now=0.0)


def test_xid_match():
    p = Packet("10.0.0.1", xid=510)
    assert XidMatch(510).matches(ctx_for(p))
    assert not XidMatch(511).matches(ctx_for(p))


def test_xid_match_inverted():
    p = Packet("10.0.0.1", xid=510)
    assert not XidMatch(510, invert=True).matches(ctx_for(p))
    assert XidMatch(511, invert=True).matches(ctx_for(p))


def test_destination_match_prefix():
    p = Packet("138.96.250.100")
    assert DestinationMatch("138.96.250.0/24").matches(ctx_for(p))
    assert DestinationMatch("138.96.250.100").matches(ctx_for(p))
    assert not DestinationMatch("10.0.0.0/8").matches(ctx_for(p))


@pytest.mark.parametrize("cls", [DestinationMatch, SourceMatch])
@pytest.mark.parametrize("invert", [False, True])
def test_prefix_match_from_parsed_address_equals_text(cls, invert):
    """A match built from a parsed address is the text-built ``/32``."""
    host = "138.96.250.100"
    parsed = cls(ip(host), invert=invert)
    text = cls(host, invert=invert)
    assert repr(parsed) == repr(text)
    assert repr(parsed).endswith(f" {host}/32")
    assert parsed.prefix == text.prefix == IPv4Network(f"{host}/32")
    for other in (host, "138.96.250.101", "10.0.0.1"):
        packet = Packet(other, src=other)
        assert parsed.matches(ctx_for(packet)) == text.matches(ctx_for(packet))
        assert parsed.matches(ctx_for(packet)) == ((other == host) != invert)


def test_source_match():
    p = Packet("10.0.0.1", src="192.168.1.5")
    assert SourceMatch("192.168.1.0/24").matches(ctx_for(p))
    assert not SourceMatch("192.168.2.0/24").matches(ctx_for(p))


def test_out_interface_match():
    p = Packet("10.0.0.1")
    assert OutInterfaceMatch("ppp0").matches(ctx_for(p, out_iface="ppp0"))
    assert not OutInterfaceMatch("ppp0").matches(ctx_for(p, out_iface="eth0"))


def test_in_interface_match():
    p = Packet("10.0.0.1")
    assert InInterfaceMatch("eth0").matches(ctx_for(p, in_iface="eth0"))
    assert not InInterfaceMatch("eth0").matches(ctx_for(p, in_iface="ppp0"))


def test_mark_match_with_mask():
    p = Packet("10.0.0.1")
    p.mark = 0x5
    assert MarkMatch(0x5).matches(ctx_for(p))
    assert MarkMatch(0x1, mask=0x1).matches(ctx_for(p))
    assert not MarkMatch(0x2, mask=0x2).matches(ctx_for(p))


def test_protocol_and_port_matches():
    p = Packet("10.0.0.1", sport=1000, dport=2000)
    assert ProtocolMatch(17).matches(ctx_for(p))
    assert SportMatch(1000).matches(ctx_for(p))
    assert DportMatch(2000).matches(ctx_for(p))
    assert not DportMatch(2001).matches(ctx_for(p))


def test_mark_target_sets_mark_and_continues():
    p = Packet("10.0.0.1")
    chain = Chain("OUTPUT")
    chain.append(Rule([], MarkTarget(7)))
    verdict = chain.traverse(ctx_for(p))
    assert p.mark == 7
    assert verdict == Verdict.ACCEPT  # fell through to policy


def test_drop_target_terminates():
    p = Packet("10.0.0.1")
    chain = Chain("OUTPUT")
    chain.append(Rule([], DropTarget()))
    chain.append(Rule([], MarkTarget(9)))
    assert chain.traverse(ctx_for(p)) == Verdict.DROP
    assert p.mark == 0


def test_accept_target_terminates():
    chain = Chain("OUTPUT", policy=Verdict.DROP)
    chain.append(Rule([], AcceptTarget()))
    assert chain.traverse(ctx_for(Packet("10.0.0.1"))) == Verdict.ACCEPT


def test_policy_applies_when_no_rule_matches():
    chain = Chain("OUTPUT", policy=Verdict.DROP)
    chain.append(Rule([XidMatch(510)], AcceptTarget()))
    assert chain.traverse(ctx_for(Packet("10.0.0.1", xid=0))) == Verdict.DROP
    assert chain.policy_packets == 1


def test_rule_counters():
    rule = Rule([XidMatch(510)], AcceptTarget())
    chain = Chain("OUTPUT")
    chain.append(rule)
    p = Packet("10.0.0.1", xid=510, size=100)
    chain.traverse(ctx_for(p))
    chain.traverse(ctx_for(Packet("10.0.0.1", xid=0)))
    assert rule.packets == 1
    assert rule.bytes == p.length


def test_return_target_in_user_chain():
    user = Chain("mychain", policy=None)
    user.append(Rule([XidMatch(1)], ReturnTarget()))
    user.append(Rule([], DropTarget()))
    main = Chain("OUTPUT")
    main.append(Rule([], JumpTarget(user)))
    main.append(Rule([], MarkTarget(3)))
    p = Packet("10.0.0.1", xid=1)
    verdict = main.traverse(ctx_for(p))
    assert verdict == Verdict.ACCEPT
    assert p.mark == 3  # continued after the jump
    p2 = Packet("10.0.0.1", xid=2)
    assert main.traverse(ctx_for(p2)) == Verdict.DROP


def test_log_target_records():
    log = LogTarget(prefix="umts: ")
    chain = Chain("OUTPUT")
    chain.append(Rule([], log))
    chain.traverse(ctx_for(Packet("10.0.0.1")))
    assert len(log.entries) == 1
    assert log.entries[0][1].startswith("umts: ")


def test_insert_puts_rule_first():
    chain = Chain("OUTPUT")
    chain.append(Rule([], MarkTarget(1)))
    chain.insert(Rule([], DropTarget()))
    assert chain.traverse(ctx_for(Packet("10.0.0.1"))) == Verdict.DROP


def test_delete_missing_rule_raises():
    chain = Chain("OUTPUT")
    with pytest.raises(ValueError):
        chain.delete(Rule([], DropTarget()))


def test_netfilter_hook_mangle_before_filter():
    nf = Netfilter()
    # mangle marks, filter drops marked packets: proves ordering.
    nf.table("mangle").chain("OUTPUT").append(Rule([], MarkTarget(1)))
    nf.table("filter").chain("OUTPUT").append(Rule([MarkMatch(1)], DropTarget()))
    p = Packet("10.0.0.1")
    assert nf.run_hook("OUTPUT", p) is False
    assert nf.dropped == 1


def test_netfilter_run_chain_single_table():
    nf = Netfilter()
    nf.table("filter").chain("OUTPUT").append(Rule([], DropTarget()))
    p = Packet("10.0.0.1")
    assert nf.run_chain("mangle", "OUTPUT", p) is True
    assert nf.run_chain("filter", "OUTPUT", p) is False


def test_postrouting_has_no_filter_chain():
    nf = Netfilter()
    assert "POSTROUTING" not in nf.table("filter").chains
    assert "POSTROUTING" in nf.table("mangle").chains


def test_user_chain_creation_and_duplicate():
    nf = Netfilter()
    nf.table("filter").new_chain("slice-510")
    with pytest.raises(ValueError):
        nf.table("filter").new_chain("slice-510")
