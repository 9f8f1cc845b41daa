"""Integration tests for the umts command over the full scenario.

These drive the exact user-visible behaviour §2.2/§2.3 describe: the
five subcommands, the one-slice-at-a-time policy, vsys ACLs, and the
packet-level isolation between slices.
"""

import pytest

from repro.core.isolation import UMTS_TABLE
from repro.testbed.scenarios import OneLabScenario
from repro.vserver.slice import Slice
from repro.vsys.daemon import VsysError


@pytest.fixture()
def scenario():
    return OneLabScenario(seed=11)


def test_start_status_stop_cycle(scenario):
    umts = scenario.umts_command()
    started = umts.start_blocking()
    assert started.ok, started.text
    assert "pppd: ppp0 up" in started.text
    status = umts.status_blocking()
    assert "state: up" in status.lines[0]
    assert any("locked by: unina_umts" in line for line in status.lines)
    stopped = umts.stop_blocking()
    assert stopped.ok, stopped.text
    status = umts.status_blocking()
    assert "state: down" in status.lines[0]
    assert any("unlocked" in line for line in status.lines)


def test_start_twice_fails(scenario):
    umts = scenario.umts_command()
    assert umts.start_blocking().ok
    second = umts.start_blocking()
    assert not second.ok
    assert "already holds" in second.text or "locked" in second.text


def test_stop_without_start_fails(scenario):
    umts = scenario.umts_command()
    result = umts.stop_blocking()
    assert not result.ok
    assert "not active" in result.text


def test_add_requires_lock(scenario):
    umts = scenario.umts_command()
    result = umts.add_destination_blocking("138.96.250.100")
    assert not result.ok


def test_add_and_del_destination(scenario):
    umts = scenario.umts_command()
    umts.start_blocking()
    added = umts.add_destination_blocking("138.96.250.100")
    assert added.ok
    status = umts.status_blocking()
    assert any("destinations: 138.96.250.100" in line for line in status.lines)
    deleted = umts.del_destination_blocking("138.96.250.100")
    assert deleted.ok
    status = umts.status_blocking()
    assert not any("destinations" in line for line in status.lines)


def test_bad_destination_reports_error(scenario):
    umts = scenario.umts_command()
    umts.start_blocking()
    result = umts.add_destination_blocking("notanip")
    assert not result.ok
    assert "umts:" in result.text


@pytest.mark.parametrize(
    "argv, reply",
    [
        (["add", "bogus"], "umts: Expected 4 octets in 'bogus'"),
        (["add", "1.2.3.256"], "umts: Octet 256 (> 255) not permitted in '1.2.3.256'"),
        (
            ["add", "01.2.3.4"],
            "umts: Leading zeros are not permitted in '01' in '01.2.3.4'",
        ),
        (["del", "138.96.250.100"], "umts: destination 138.96.250.100 was never added"),
    ],
)
def test_refused_destination_reply_is_pinned(scenario, argv, reply):
    """A destination the back-end refuses gets exactly this one line,
    and no ``iptables`` command runs for it."""
    umts = scenario.umts_command()
    assert umts.start_blocking().ok
    history = list(scenario.napoli.stack.iptables.history)
    result = umts._conn.call_blocking(argv)
    assert (result.code, result.lines) == (1, [reply])
    assert scenario.napoli.stack.iptables.history == history


def test_usage_for_unknown_command(scenario):
    umts = scenario.umts_command()
    result = umts._conn.call_blocking(["frobnicate"])
    assert not result.ok
    assert "usage" in result.text


def test_unauthorized_slice_cannot_open_vsys(scenario):
    rogue = Slice("rogue_slice", 666)
    rogue_sliver = scenario.napoli.create_sliver(rogue)
    with pytest.raises(VsysError):
        rogue_sliver.vsys_open("umts")


def test_second_slice_cannot_start_while_locked(scenario):
    other = Slice("other_exp", 600)
    other_sliver = scenario.napoli.create_sliver(other)
    scenario.napoli.authorize_umts("other_exp")
    first = scenario.umts_command()
    assert first.start_blocking().ok
    from repro.core.frontend import UmtsCommand

    second = UmtsCommand(other_sliver)
    result = second.start_blocking()
    assert not result.ok
    assert "locked by slice 'unina_umts'" in result.text


def test_other_slice_cannot_stop(scenario):
    other = Slice("other_exp", 600)
    other_sliver = scenario.napoli.create_sliver(other)
    scenario.napoli.authorize_umts("other_exp")
    assert scenario.umts_command().start_blocking().ok
    from repro.core.frontend import UmtsCommand

    result = UmtsCommand(other_sliver).stop_blocking()
    assert not result.ok
    assert "held by slice 'unina_umts'" in result.text


def test_umts_slice_traffic_uses_ppp0(scenario):
    umts = scenario.umts_command()
    umts.start_blocking()
    umts.add_destination_blocking(scenario.inria_addr)
    got = []
    server = scenario.inria_sliver.socket()
    server.bind(port=9000)
    server.on_receive = lambda payload, src, sport, pkt: got.append(str(src))
    scenario.napoli_sliver.socket().sendto("x", 50, scenario.inria_addr, 9000)
    scenario.sim.run(until=scenario.sim.now + 10.0)
    assert len(got) == 1
    # Source address proves the packet went out via the UMTS connection.
    assert got[0] == scenario.umts_address()


def test_non_destination_traffic_stays_on_eth0(scenario):
    umts = scenario.umts_command()
    umts.start_blocking()
    # No destination registered: traffic to INRIA keeps using eth0.
    got = []
    server = scenario.inria_sliver.socket()
    server.bind(port=9000)
    server.on_receive = lambda payload, src, sport, pkt: got.append(str(src))
    scenario.napoli_sliver.socket().sendto("x", 50, scenario.inria_addr, 9000)
    scenario.sim.run(until=scenario.sim.now + 10.0)
    assert got == [scenario.napoli_addr]


def test_other_slice_cannot_use_ppp0_even_bound(scenario):
    """The paper's special case: a foreign slice binds to the UMTS
    interface; the drop rule must stop its packets."""
    other = Slice("other_exp", 600)
    scenario.napoli.create_sliver(other)
    umts = scenario.umts_command()
    umts.start_blocking()
    rogue_sock = scenario.napoli.slivers["other_exp"].socket()
    rogue_sock.bind_to_device("ppp0")
    dropped_before = scenario.napoli.stack.dropped_filter
    rogue_sock.sendto("sneaky", 20, "10.199.0.1", 53)
    scenario.sim.run(until=scenario.sim.now + 5.0)
    assert scenario.napoli.stack.dropped_filter == dropped_before + 1


def test_other_slice_traffic_to_ppp_peer_dropped(scenario):
    """Second special case: packets addressed to the PPP endpoint."""
    other = Slice("other_exp", 600)
    scenario.napoli.create_sliver(other)
    umts = scenario.umts_command()
    umts.start_blocking()
    ggsn_addr = str(scenario.operator.ggsn.internal_address)
    dropped_before = scenario.napoli.stack.dropped_filter
    # The peer host route points at ppp0, so this would egress ppp0.
    scenario.napoli.slivers["other_exp"].socket().sendto("x", 20, ggsn_addr, 53)
    scenario.sim.run(until=scenario.sim.now + 5.0)
    assert scenario.napoli.stack.dropped_filter == dropped_before + 1


def test_stop_restores_clean_state(scenario):
    umts = scenario.umts_command()
    umts.start_blocking()
    umts.add_destination_blocking(scenario.inria_addr)
    umts.stop_blocking()
    stack = scenario.napoli.stack
    assert "ppp0" not in stack.interfaces
    assert stack.ip.route_list(UMTS_TABLE) == []
    assert stack.iptables.list_rules("mangle", "OUTPUT") == []
    assert stack.iptables.list_rules("filter", "OUTPUT") == []
    # Traffic to INRIA works normally over eth0.
    got = []
    server = scenario.inria_sliver.socket()
    server.bind(port=9001)
    server.on_receive = lambda payload, src, sport, pkt: got.append(str(src))
    scenario.napoli_sliver.socket().sendto("x", 50, scenario.inria_addr, 9001)
    scenario.sim.run(until=scenario.sim.now + 5.0)
    assert got == [scenario.napoli_addr]


def test_destinations_persist_across_sessions(scenario):
    umts = scenario.umts_command()
    umts.start_blocking()
    umts.add_destination_blocking(scenario.inria_addr)
    umts.stop_blocking()
    assert umts.start_blocking().ok
    status = umts.status_blocking()
    assert any("destinations: 138.96.250.100" in line for line in status.lines)


def test_restart_after_stop_gets_fresh_address_or_same(scenario):
    umts = scenario.umts_command()
    umts.start_blocking()
    first = scenario.umts_address()
    umts.stop_blocking()
    umts.start_blocking()
    second = scenario.umts_address()
    assert first is not None and second is not None
    from repro.net.addressing import ip

    assert ip(second) in scenario.operator.ggsn.pool.prefix


def test_backend_event_log(scenario):
    umts = scenario.umts_command()
    umts.start_blocking()
    umts.stop_blocking()
    events = [msg for _, msg in scenario.napoli.umts_backend.events]
    assert any("lock acquired" in e for e in events)
    assert any("lock released" in e for e in events)


def test_wire_level_isolation_invariant(scenario):
    """Every packet ever transmitted on ppp0 belongs to the UMTS slice.

    ppp0's ``transmit``, wrapped on the instance, records every packet
    any sender hands it during a busy run (owner traffic and rival
    attempts): only xid 510 may reach it — the strongest statement of
    §2.3's isolation.
    """
    other = Slice("noisy_exp", 640)
    noisy = scenario.napoli.create_sliver(other)
    umts = scenario.umts_command()
    umts.start_blocking()
    umts.add_destination_blocking(scenario.inria_addr)
    ppp0 = scenario.napoli.stack.iface("ppp0")
    egress = []
    transmit = ppp0.transmit

    def recording_transmit(packet):
        egress.append(packet)
        transmit(packet)

    ppp0.transmit = recording_transmit
    # Owner sends a burst; rival tries everything it can think of.
    owner_sock = scenario.napoli_sliver.socket()
    rival_sock = noisy.socket()
    rival_bound = noisy.socket()
    rival_bound.bind_to_device("ppp0")
    ggsn_addr = str(scenario.operator.ggsn.internal_address)
    for i in range(10):
        owner_sock.sendto("legit", 100, scenario.inria_addr, 9000 + i)
        rival_sock.sendto("nope", 100, ggsn_addr, 53)
        rival_bound.sendto("nope", 100, ggsn_addr, 53)
    scenario.sim.run(until=scenario.sim.now + 10.0)
    assert len(egress) >= 10
    assert sorted({p.xid for p in egress}) == [scenario.slice.xid]


@pytest.mark.parametrize(
    "stale, message",
    [
        ("route add default dev ppp0 table umts", "umts: route already exists"),
        ("rule add fwmark 0x1 lookup umts pref 100", "umts: rule already exists"),
    ],
)
def test_refused_ip_line_fails_start_with_a_reply(scenario, stale, message):
    """A stale entry the back-end's ``ip`` line collides with fails the
    request with a ``umts:`` reply, whichever layer refused it."""
    scenario.napoli.stack.ip.run(stale)
    started = scenario.umts_command().start_blocking()
    assert started.code == 1
    assert started.lines[0].startswith(message), started.lines


def test_connection_reports_the_ipcp_dns_while_up(scenario):
    """pppd's ``usepeerdns``: IPCP hands the mobile the GGSN's address."""
    assert scenario.umts_command().start_blocking().ok
    primary, _secondary = scenario.napoli.connection.pppd.ipcp.dns_servers
    assert primary == scenario.operator.ggsn.internal_address


def test_back_to_back_status_calls_do_not_interleave():
    scenario = OneLabScenario(seed=3)
    umts = scenario.umts_command()
    first = umts.status()
    with pytest.raises(VsysError):
        umts.status()
    scenario.sim.run(until=scenario.sim.now + 5.0)
    assert first.value.lines == ["state: down", "interface: unlocked"]


def test_stop_skips_a_rule_removed_by_hand_and_still_unlocks():
    """``umts stop`` carries out every teardown step: the DROP rule a
    hand ``iptables -F`` already removed is named and skipped, and the
    hangup and unlock still happen."""
    scenario = OneLabScenario(seed=3)
    umts = scenario.umts_command()
    assert umts.start_blocking().ok
    stack = scenario.napoli.stack
    stack.iptables.run("-t filter -F OUTPUT")
    stopped = umts.stop_blocking()
    assert stopped.ok, stopped.text
    assert stopped.lines[-2:] == [
        "umts: skipped, already gone: no rule matching spec in filter/OUTPUT: "
        "-o ppp0 -m xid ! --xid 510 -j DROP",
        "umts: rules deleted, interface unlocked",
    ]
    assert stack.iptables.history[-1] == "-t filter -D OUTPUT -o ppp0 -m xid ! --xid 510 -j DROP"
    assert stack.ip.history[-3:] == [
        "rule del pref 100", "rule del pref 101", f"route flush table {UMTS_TABLE}",
    ]
    assert not any(rule.table == UMTS_TABLE for rule in stack.ip.rule_list())
    assert stack.ip.route_list(UMTS_TABLE) == []
    status = umts.status_blocking()
    assert "state: down" in status.lines[0]
    assert "interface: unlocked" in status.lines
    assert "ppp0" not in stack.interfaces
    assert not scenario.napoli.umts_backend.isolation.active
    # The next session starts and stops cleanly.
    assert umts.start_blocking().ok
    assert umts.stop_blocking().lines[-1] == "umts: rules deleted, interface unlocked"


def test_carrier_loss_cleanup_skips_a_rule_removed_by_hand():
    scenario = OneLabScenario(seed=3)
    umts = scenario.umts_command()
    assert umts.start_blocking().ok
    scenario.napoli.stack.iptables.run("-t filter -F OUTPUT")
    scenario.operator.drop_call(scenario.operator.calls[0], "coverage lost")
    scenario.sim.run(until=scenario.sim.now + 5.0)
    backend = scenario.napoli.umts_backend
    assert not backend.isolation.active
    assert not backend.lock.locked
    events = [message for _, message in backend.events]
    assert events[-3:] == [
        "cleanup: skipped, already gone: no rule matching spec in filter/OUTPUT: "
        "-o ppp0 -m xid ! --xid 510 -j DROP",
        "cleanup: rules removed after 'carrier lost'",
        "cleanup: lock of unina_umts force-released after 'carrier lost'",
    ]


def test_del_skips_a_mark_rule_flushed_by_hand():
    """``umts del`` treats a MARK rule already flushed by hand as
    ``umts stop`` does: the step is skipped and named, the reply is
    exit 0 and the destination is forgotten."""
    scenario = OneLabScenario(seed=3)
    umts = scenario.umts_command()
    assert umts.start_blocking().ok
    assert umts.add_destination_blocking("138.96.250.100").ok
    stack = scenario.napoli.stack
    stack.iptables.run("-t mangle -F OUTPUT")
    deleted = umts.del_destination_blocking("138.96.250.100")
    assert deleted.ok, deleted.text
    assert deleted.lines == [
        "umts: skipped, already gone: no rule matching spec in mangle/OUTPUT: "
        "-m xid --xid 510 -d 138.96.250.100/32 -j MARK --set-mark 0x1",
        "umts: rule for 138.96.250.100 deleted",
    ]
    assert stack.iptables.history[-1] == (
        "-t mangle -D OUTPUT -m xid --xid 510 -d 138.96.250.100 -j MARK --set-mark 0x1"
    )
    status = umts.status_blocking()
    assert status.ok
    assert not any(line.startswith("destinations:") for line in status.lines)
