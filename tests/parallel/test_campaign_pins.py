"""Pinned campaign digests: the chaos, grammar and fleet runners' outputs.

The other campaign tests compare two runs of the same code with each
other, so a refactor that changes every run the same way passes them.
These digests are fixed values: any change to a session driver, the
released-state check, the grammar-event applier or a trace event moves
one of them.  All three values are identical on CPython 3.10, 3.11,
3.12 and 3.13.
"""

import pytest

from repro.fleet import FleetSpec
from repro.parallel import chaos_jobs, fleet_jobs, run_campaign, scenario_jobs

#: Four nodes in two groups, two grammar points round-robin.  The
#: ladder moves and the handover of ``climb/fade`` land on live calls,
#: so the digest covers the grammar-event applier on the fleet side.
#: Both points are ``home/local``: the fleet rejects roaming and
#: remote-SIM points, which it does not model.
PINNED_FLEET = FleetSpec(
    nodes=4,
    group_size=2,
    duration=40,
    stagger=6,
    scenarios=("climb/fade/home/local", "r99/none/home/local"),
)


@pytest.mark.parametrize(
    "jobs, digest",
    [
        pytest.param(
            chaos_jobs,
            "22c43f14b1dd2c85b3c0cb14d51a6525abb2f02c06c18630b6f6ddd2e999ec81",
            id="chaos",
        ),
        pytest.param(
            scenario_jobs,
            "7268892e01a474186950325abd9e1110d732acf53e25597a96051195516091c9",
            id="grammar",
        ),
        pytest.param(
            lambda: fleet_jobs(PINNED_FLEET),
            "fc46907303194101d33b8c0b15930c10445ad528868b73fffca786e48a5c027f",
            id="fleet",
        ),
    ],
)
def test_campaign_digest_is_pinned(jobs, digest):
    assert run_campaign(jobs()).digest == digest
