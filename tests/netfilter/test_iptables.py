"""Unit tests for the iptables command facade."""

import pytest

from repro.net.packet import Packet
from repro.netfilter.chains import Netfilter
from repro.netfilter.iptables import Iptables, IptablesError
from repro.netfilter.targets import Verdict


@pytest.fixture()
def ipt():
    return Iptables(Netfilter())


def run_output(nf, packet, out_iface=None):
    return nf.run_hook("OUTPUT", packet, out_iface=out_iface)


def test_paper_marking_rule(ipt):
    ipt.run(
        "iptables -t mangle -A OUTPUT -m xid --xid 510 -d 138.96.250.100 "
        "-j MARK --set-mark 1"
    )
    p = Packet("138.96.250.100", xid=510)
    run_output(ipt.netfilter, p)
    assert p.mark == 1
    other = Packet("138.96.250.100", xid=511)
    run_output(ipt.netfilter, other)
    assert other.mark == 0


def test_paper_isolation_drop_rule(ipt):
    ipt.run("iptables -t filter -A OUTPUT -o ppp0 -m xid ! --xid 510 -j DROP")
    intruder = Packet("10.199.0.1", xid=511)
    assert run_output(ipt.netfilter, intruder, out_iface="ppp0") is False
    allowed = Packet("10.199.0.1", xid=510)
    assert run_output(ipt.netfilter, allowed, out_iface="ppp0") is True
    elsewhere = Packet("10.199.0.1", xid=511)
    assert run_output(ipt.netfilter, elsewhere, out_iface="eth0") is True


def test_delete_by_spec(ipt):
    ipt.run("-t mangle -A OUTPUT -m xid --xid 510 -d 1.2.3.4 -j MARK --set-mark 1")
    ipt.run("-t mangle -D OUTPUT -m xid --xid 510 -d 1.2.3.4 -j MARK --set-mark 1")
    assert ipt.list_rules("mangle", "OUTPUT") == []


def test_delete_missing_spec_raises(ipt):
    with pytest.raises(IptablesError):
        ipt.run("-t mangle -D OUTPUT -m xid --xid 510 -j MARK --set-mark 1")


def test_flush_chain(ipt):
    ipt.run("-A OUTPUT -j ACCEPT")
    ipt.run("-A INPUT -j ACCEPT")
    ipt.run("-F OUTPUT")
    assert ipt.list_rules("filter", "OUTPUT") == []
    assert len(ipt.list_rules("filter", "INPUT")) == 1


def test_flush_whole_table(ipt):
    ipt.run("-A OUTPUT -j ACCEPT")
    ipt.run("-A INPUT -j ACCEPT")
    ipt.run("-F")
    assert ipt.list_rules("filter", "OUTPUT") == []
    assert ipt.list_rules("filter", "INPUT") == []


def test_policy_command(ipt):
    ipt.run("-P OUTPUT DROP")
    assert ipt.netfilter.table("filter").chain("OUTPUT").policy == Verdict.DROP


def test_insert_at_head(ipt):
    ipt.run("-A OUTPUT -j ACCEPT")
    rule = ipt.run("-I OUTPUT -o ppp0 -j DROP")
    assert ipt.list_rules("filter", "OUTPUT")[0] is rule


def test_insert_with_index(ipt):
    first = ipt.run("-A OUTPUT -j ACCEPT")
    ipt.run("-I OUTPUT 2 -j DROP")
    rules = ipt.list_rules("filter", "OUTPUT")
    assert rules[0] is first


def test_protocol_and_ports(ipt):
    ipt.run("-A OUTPUT -p udp --dport 8999 -j DROP")
    p = Packet("10.0.0.1", dport=8999)
    assert run_output(ipt.netfilter, p) is False
    tcp = Packet("10.0.0.1", proto=6, dport=8999)
    assert run_output(ipt.netfilter, tcp) is True


def test_mark_match_string(ipt):
    ipt.run("-t mangle -A POSTROUTING -m mark --mark 0x1 -j LOG")
    marked = Packet("10.0.0.1")
    marked.mark = 1
    ipt.netfilter.run_hook("POSTROUTING", marked)
    rule = ipt.list_rules("mangle", "POSTROUTING")[0]
    assert rule.packets == 1


def test_source_match_string(ipt):
    ipt.run("-A INPUT -s 192.168.0.0/16 -j DROP")
    p = Packet("10.0.0.1", src="192.168.4.4")
    assert ipt.netfilter.run_hook("INPUT", p) is False


def test_unknown_protocol_raises(ipt):
    with pytest.raises(IptablesError):
        ipt.run("-A OUTPUT -p sctp -j DROP")


def test_rule_without_target_raises(ipt):
    with pytest.raises(IptablesError):
        ipt.run("-A OUTPUT -o ppp0")


def test_mark_without_setmark_raises(ipt):
    with pytest.raises(IptablesError):
        ipt.run("-t mangle -A OUTPUT -j MARK")


def test_unknown_target_raises(ipt):
    with pytest.raises(IptablesError):
        ipt.run("-A OUTPUT -j REJECT")


def test_no_operation_raises(ipt):
    with pytest.raises(IptablesError):
        ipt.run("-t filter")


def test_bad_chain_raises(ipt):
    with pytest.raises(IptablesError):
        ipt.run("-A NOSUCH -j ACCEPT")


@pytest.mark.parametrize(
    "command",
    [
        "-P OUTPUT BOGUS",
        "-I OUTPUT \u00b2 -j DROP",
        "-A OUTPUT -p udp --dport x -j ACCEPT",
        "-t mangle -A OUTPUT -j MARK --set-mark zz",
        "-A OUTPUT -d 1.2.3.999 -j DROP",
        "-A OUTPUT -o 'ppp0 -j DROP",
    ],
)
def test_malformed_line_raises_iptables_error(ipt, command):
    with pytest.raises(IptablesError) as caught:
        ipt.run(command)
    assert isinstance(caught.value.__cause__, ValueError)
    assert ipt.history == [command]
    for table in ("filter", "mangle"):
        assert ipt.list_rules(table, "OUTPUT") == []


def test_history_recorded(ipt):
    ipt.run("-A OUTPUT -j ACCEPT")
    assert ipt.history == ["-A OUTPUT -j ACCEPT"]


def test_typed_api_append_and_delete(ipt):
    from repro.netfilter.chains import Rule
    from repro.netfilter.matches import OutInterfaceMatch
    from repro.netfilter.targets import DropTarget

    rule = ipt.append("filter", "OUTPUT", Rule([OutInterfaceMatch("ppp0")], DropTarget()))
    assert ipt.list_rules("filter", "OUTPUT") == [rule]
    ipt.delete("filter", "OUTPUT", rule)
    assert ipt.list_rules("filter", "OUTPUT") == []


def test_typed_delete_of_a_rule_not_in_the_chain_raises_iptables_error(ipt):
    from repro.netfilter.chains import Rule
    from repro.netfilter.matches import OutInterfaceMatch
    from repro.netfilter.targets import DropTarget

    rule = ipt.append("filter", "OUTPUT", Rule([OutInterfaceMatch("ppp0")], DropTarget()))
    ipt.flush("filter", "OUTPUT")
    with pytest.raises(IptablesError, match="rule not in chain OUTPUT: -o ppp0 -j DROP"):
        ipt.delete("filter", "OUTPUT", rule)


def test_policy_on_user_chain_rejected(ipt):
    ipt.netfilter.table("filter").new_chain("custom")
    with pytest.raises(IptablesError):
        ipt.policy("filter", "custom", "DROP")


def test_list_rules_bad_chain(ipt):
    with pytest.raises(IptablesError):
        ipt.list_rules("filter", "NOSUCH")


def test_insert_typed_api_index(ipt):
    from repro.netfilter.chains import Rule
    from repro.netfilter.targets import AcceptTarget, DropTarget

    first = ipt.append("filter", "OUTPUT", Rule([], AcceptTarget()))
    second = ipt.insert("filter", "OUTPUT", Rule([], DropTarget()), index=1)
    assert ipt.list_rules("filter", "OUTPUT") == [first, second]
