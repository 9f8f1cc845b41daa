"""Differential test: the isolation back-end against its own shell trace.

:class:`IsolationManager` records each ``ip``/``iptables`` command line
it stands for and carries it out as a typed call.  Replaying the
recorded lines through :meth:`IpRoute2.run` and :meth:`Iptables.run`
on a fresh node must rebuild the same state after every step: the same
chains (rule texts, in order), RPDB rules and routes, and the same
error from the same step.  ``remove`` runs every teardown step and
returns the error text of each step that found its rule or route gone;
its replay likewise runs every line and collects the same errors.
Random sequences mix ``install``, ``add``, ``del`` and ``remove``
with adds before ``install``, duplicate adds,
deletes of destinations never added, refused addresses, and lines run
by hand on the live node (which land in the trace too): a flushed
chain, a stale RPDB rule or route, an identical MARK rule appended
before the manager's.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.isolation import UMTS_TABLE, IsolationManager
from repro.net.interface import EthernetInterface, PPPInterface
from repro.net.stack import IPStack
from repro.netfilter.iptables import IptablesError
from repro.routing.iproute2 import IpRouteError
from repro.sim.engine import Simulator

DESTINATIONS = ["138.96.250.100", "143.225.229.3", "8.8.8.8", "bogus", "1.2.3.256"]
XIDS = [510, 600]
PPP_ADDRESSES = ["10.199.3.7", "10.199.3.8"]
HAND_LINES = [
    ("iptables", "-t mangle -F OUTPUT"),
    ("iptables", "-t filter -F OUTPUT"),
    (
        "iptables",
        "-t mangle -A OUTPUT -m xid --xid 510 -d 138.96.250.100 -j MARK --set-mark 0x1",
    ),
    ("iptables", "-t mangle -I OUTPUT -m xid --xid 600 -d 8.8.8.8 -j MARK --set-mark 0x1"),
    ("ip", "rule del pref 100"),
    ("ip", "rule add fwmark 0x1 lookup umts pref 100"),
    ("ip", "route add default dev ppp0 table umts"),
    ("ip", "route flush table umts"),
]
FACADE_ERRORS = (IptablesError, IpRouteError)

hand_steps = st.tuples(st.just("hand"), st.sampled_from(HAND_LINES))
steps = st.one_of(
    st.tuples(st.just("install"), st.sampled_from(XIDS), st.sampled_from(PPP_ADDRESSES)),
    st.tuples(st.just("remove")),
    st.tuples(st.just("add"), st.sampled_from(DESTINATIONS)),
    st.tuples(st.just("del"), st.sampled_from(DESTINATIONS)),
    # Twice as likely: hand lines are what make the manager's calls fail.
    hand_steps,
    hand_steps,
)


def make_stack():
    stack = IPStack(Simulator(), "node")
    eth = stack.add_interface(EthernetInterface("eth0"))
    stack.configure_interface(eth, "143.225.229.100", 24)
    stack.ip.route_add("default", "eth0", via="143.225.229.1")
    ppp = stack.add_interface(PPPInterface("ppp0"))
    ppp.configure_p2p("10.199.3.7", "10.199.0.1")
    return stack


def state(stack):
    """Every chain's rule texts, the RPDB rules and both tables."""
    chains = {
        (table_name, chain_name): [repr(rule) for rule in chain.rules]
        for table_name, table in stack.netfilter.tables.items()
        for chain_name, chain in table.chains.items()
    }
    rules = [repr(rule) for rule in stack.ip.rule_list()]
    routes = {name: [repr(r) for r in stack.ip.route_list(name)] for name in ("main", UMTS_TABLE)}
    return chains, rules, routes


def outcome(call, *args):
    """``None``, or the raised error as (type, message)."""
    try:
        call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def apply(live, iso, step):
    kind = step[0]
    if kind == "install":
        return outcome(iso.install, step[1], step[2])
    if kind == "remove":
        return iso.remove()
    if kind == "add":
        return outcome(iso.add_destination, step[1])
    if kind == "del":
        try:
            return iso.del_destination(step[1])
        except ValueError as exc:
            return type(exc), str(exc)
    facade, line = step[1]
    return outcome((live.iptables if facade == "iptables" else live.ip).run, line)


def replay(replica, ip_lines, iptables_lines, keep_going=False):
    """Run the lines through the text parsers.  The first error, if
    any; with ``keep_going``, every line runs and the errors are
    collected."""
    errors = []
    for run, lines in ((replica.ip.run, ip_lines), (replica.iptables.run, iptables_lines)):
        for line in lines:
            error = outcome(run, line)
            if error is not None:
                errors.append(error)
                if not keep_going:
                    break
    if keep_going:
        return errors
    assert len(errors) <= 1, errors
    return errors[0] if errors else None


def check_against_replay(live, iso, replica, sequence):
    for step in sequence:
        ip_mark, iptables_mark = len(live.ip.history), len(live.iptables.history)
        error = apply(live, iso, step)
        ip_lines = live.ip.history[ip_mark:]
        iptables_lines = live.iptables.history[iptables_mark:]
        if isinstance(error, list):  # a teardown: every step ran, refusals listed
            replayed = replay(replica, ip_lines, iptables_lines, keep_going=True)
            assert all(issubclass(kind, FACADE_ERRORS) for kind, _ in replayed), replayed
            # The replay runs the ip lines first; teardown starts with iptables.
            assert sorted(message for _, message in replayed) == sorted(error), step
            assert state(live) == state(replica), step
            continue
        if error is not None and not issubclass(error[0], FACADE_ERRORS):
            # Refused before any command: nothing recorded.
            assert ip_lines == iptables_lines == [], (step, error)
            error = None
        replayed = replay(replica, ip_lines, iptables_lines)
        assert replayed == error, (step, ip_lines, iptables_lines)
        assert state(live) == state(replica), step
    assert replica.ip.history == live.ip.history
    assert replica.iptables.history == live.iptables.history


@settings(max_examples=500, deadline=None)
@given(st.lists(steps, max_size=30))
def test_typed_back_end_matches_its_replayed_trace(sequence):
    live = make_stack()
    check_against_replay(live, IsolationManager(live), make_stack(), sequence)


def test_del_removes_the_first_identical_rule():
    """``-D`` by specification: a hand-made twin appended before the
    manager's MARK rule is the one ``del`` removes."""
    live = make_stack()
    iso = IsolationManager(live)
    sequence = [
        ("install", 510, "10.199.3.7"),
        ("hand", HAND_LINES[2]),
        ("add", "138.96.250.100"),
    ]
    replica = make_stack()
    check_against_replay(live, iso, replica, sequence)
    hand, ours = live.iptables.list_rules("mangle", "OUTPUT")
    assert repr(hand) == repr(ours)
    check_against_replay(live, iso, replica, [("del", "138.96.250.100")])
    assert live.iptables.list_rules("mangle", "OUTPUT") == [ours]
    # ``umts stop`` then finds no rule of its own left to delete.
    check_against_replay(live, iso, replica, [("remove",)])
    assert live.iptables.list_rules("mangle", "OUTPUT") == [ours]
