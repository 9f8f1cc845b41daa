"""Pin the per-packet work of the data path.

Address parsing (``repro.net.addressing.ip``) and the table walk
(``RoutingTable.lookup``) happen once per configuration change, not
once per packet: the stack compares address integers, and the RPDB's
decision cache answers repeated lookups.  No generator process resumes
per packet either (``Process._resume``): the D-ITG sender is a
self-rescheduling callback, and a data-mode PPP frame reaches an idle
serial consumer without a Store hand-off.  So a seed-3 VoIP run makes
as many of those calls with 4 s flows as with 2 s flows, on either
path.  Calls are counted by code object under :func:`sys.setprofile`,
which also counts the ``from repro.net.addressing import ip`` aliases.
"""

import sys

import pytest

from repro import OneLabScenario, run_characterization, voip_g711
from repro.net import addressing
from repro.routing.table import RoutingTable
from repro.sim.process import Process
from repro.testbed.experiment import PATH_ETHERNET, PATH_UMTS

COUNTED = {
    addressing.ip.__code__: "ip",
    RoutingTable.lookup.__code__: "table_lookup",
    Process._resume.__code__: "process_resume",
}


def per_packet_calls(path, duration):
    """Calls to each counted function during one VoIP run."""
    scenario = OneLabScenario(seed=3)
    counts = dict.fromkeys(COUNTED.values(), 0)

    def profile(frame, event, arg):
        if event == "call":
            name = COUNTED.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    sys.setprofile(profile)
    try:
        result = run_characterization(
            voip_g711(duration=duration), path=path, seed=3, scenario=scenario
        )
    finally:
        sys.setprofile(None)
    assert result.summary.packets_sent > 0
    return counts


@pytest.mark.parametrize("path", [PATH_UMTS, PATH_ETHERNET])
def test_address_parsing_and_table_walks_do_not_grow_with_packets(path):
    short = per_packet_calls(path, 2.0)
    long = per_packet_calls(path, 4.0)
    assert short["table_lookup"] > 0
    assert long == short
