"""The UMTS network: radio bearers, cells, GGSN, operators.

The paper's experiments ran over real 3G networks; this package is the
synthetic equivalent calibrated to their measurements.  The pieces:

- :mod:`repro.umts.rab` — discrete bearer grades and the demand-driven
  adaptation that produces Figure 4's 50-second effect;
- :mod:`repro.umts.cell` — registration and signal quality (what the
  modem's AT commands observe);
- :mod:`repro.umts.datacall` — one PDP context: radio channels + the
  GGSN-side pppd;
- :mod:`repro.umts.ggsn` — the gateway, address pool and the ingress
  firewall that makes mobiles unreachable from outside;
- :mod:`repro.umts.pool` — the GGSN's PDP address pool;
- :mod:`repro.umts.operator` — the bundle, with profiles for the
  paper's two networks (commercial, Alcatel-Lucent private micro-cell).
"""

from repro.umts.cell import UmtsCell
from repro.umts.datacall import DataCall
from repro.umts.ggsn import EstablishedFlowMatch, Ggsn
from repro.umts.operator import (
    RadioProfile,
    UmtsError,
    UmtsOperator,
    commercial_operator,
    private_microcell,
)
from repro.umts.pool import AddressPool, PoolExhaustedError
from repro.umts.rab import (
    DEFAULT_UPLINK_GRADES,
    RENEG_IDLE,
    RENEG_PENDING,
    RabConfig,
    RabController,
)

__all__ = [
    "AddressPool",
    "DEFAULT_UPLINK_GRADES",
    "DataCall",
    "EstablishedFlowMatch",
    "Ggsn",
    "PoolExhaustedError",
    "RENEG_IDLE",
    "RENEG_PENDING",
    "RabConfig",
    "RabController",
    "RadioProfile",
    "UmtsCell",
    "UmtsError",
    "UmtsOperator",
    "commercial_operator",
    "private_microcell",
]
