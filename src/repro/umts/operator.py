"""UMTS operators: the RAN + core network bundle, with the two profiles
the paper used.

The OneLab work ran over (i) a **private micro-cell** at the
Alcatel-Lucent 3G Reality Center in Vimercate and (ii) a **commercial
network** of "one of the principal European telecom operators".  The
profile factories at the bottom encode the differences that matter for
the experiments: the commercial network firewalls inbound traffic and
adapts the uplink bearer lazily (the ~50 s effect in Figure 4); the
micro-cell is open, quieter, and grants upgrades quickly.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional

from repro.net.interface import EthernetInterface
from repro.net.link import Channel, Link
from repro.net.stack import IPStack
from repro.ppp.daemon import Pppd
from repro.sim.engine import Simulator
from repro.sim.rng import Distribution, LogNormalVariate, RandomStreams
from repro.umts.cell import UmtsCell
from repro.umts.datacall import DataCall
from repro.umts.ggsn import Ggsn
from repro.umts.rab import RabConfig, RabController


class UmtsError(Exception):
    """Attach/session errors raised by the operator."""


class RadioProfile:
    """Per-direction radio-path parameters."""

    def __init__(
        self,
        base_delay: float,
        jitter: Optional[Distribution],
        queue_bytes: int,
    ):
        self.base_delay = base_delay
        self.jitter = jitter
        self.queue_bytes = queue_bytes


class UmtsOperator:
    """One operator: cells, GGSN, address pool, session management."""

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        name: str,
        apn: str,
        pool_prefix: str = "10.199.0.0/16",
        ggsn_internal: str = "10.199.0.1",
        uplink_profile: Optional[RadioProfile] = None,
        downlink_profile: Optional[RadioProfile] = None,
        rab_config: Optional[RabConfig] = None,
        block_inbound: bool = True,
        ggsn_name: Optional[str] = None,
    ):
        self.sim = sim
        self.streams = streams
        self.name = name
        self.apn = apn
        self.downlink_rate_bps = 1_800_000.0
        self.rab_config = rab_config if rab_config is not None else RabConfig()
        self.uplink_profile = uplink_profile or RadioProfile(
            base_delay=0.09,
            jitter=LogNormalVariate(math.log(0.006), 1.1, high=0.5),
            queue_bytes=48_000,
        )
        self.downlink_profile = downlink_profile or RadioProfile(
            base_delay=0.07,
            jitter=LogNormalVariate(math.log(0.004), 1.0, high=0.3),
            queue_bytes=200_000,
        )
        self.max_sessions = 64
        # ggsn_name must be unique per Internet router: the Gi peer
        # interface is derived from it, so two operators serving the
        # same APN (home + roaming partner) need distinct names.
        self.ggsn = Ggsn(
            sim,
            ggsn_name if ggsn_name is not None else f"ggsn.{apn}",
            pool_prefix,
            ggsn_internal,
            block_inbound=block_inbound,
        )
        self.cells: List[UmtsCell] = []
        self.calls: List[DataCall] = []
        self._session_ids = itertools.count()
        self.sessions_opened = 0
        self.sessions_closed = 0

    # -- topology -------------------------------------------------------

    def new_cell(self, **kwargs) -> UmtsCell:
        """Deploy a cell on this operator's RAN."""
        kwargs.setdefault("name", f"cell-{len(self.cells)}")
        cell = UmtsCell(self, **kwargs)
        self.cells.append(cell)
        return cell

    def connect_to_internet(
        self,
        router: IPStack,
        ggsn_address: str,
        router_address: str,
        prefix_len: int = 30,
    ) -> Link:
        """Wire the GGSN's Gi interface to an Internet router.

        Adds the default route on the GGSN and the pool route on the
        router, so mobiles are reachable end-to-end.
        """
        gi = self.ggsn.stack.add_interface(EthernetInterface("gi"))
        self.ggsn.stack.configure_interface(gi, ggsn_address, prefix_len)
        peer_name = f"to-{self.ggsn.stack.name}"
        peer = router.add_interface(EthernetInterface(peer_name))
        router.configure_interface(peer, router_address, prefix_len)
        link = Link(self.sim, gi, peer, rate_bps=155_000_000.0, delay=0.002)
        self.ggsn.stack.ip.route_add("default", "gi", via=router_address)
        router.ip.route_add(
            str(self.ggsn.pool.prefix), peer_name, via=ggsn_address
        )
        return link

    # -- session management -----------------------------------------------

    def open_data_call(self, modem, apn: Optional[str] = None, cell=None) -> DataCall:
        """PDP context activation: allocate an address, build the radio
        bearer, start the GGSN-side pppd.  Raises :class:`UmtsError`
        when the APN is wrong or the operator is at capacity."""
        if apn is not None and apn != self.apn:
            raise UmtsError(f"unknown APN {apn!r} (operator serves {self.apn!r})")
        if len(self.calls) >= self.max_sessions:
            raise UmtsError("operator session capacity reached")
        faults = self.sim.faults
        if faults is not None:
            # Triggered session faults (GGSN drop, RAB preemption) are
            # delivered to us whenever they activate; refusal happens
            # right here, before any bearer resources are committed.
            faults.subscribe("session", self._session_fault)
            if faults.fire("session", "refuse"):
                raise UmtsError("PDP context activation refused by network")
        address = self.ggsn.pool.allocate()
        session = next(self._session_ids)
        # The serving cell may cap or extend the bearer ladder (a
        # GPRS-only cell next to an HSDPA one); otherwise the
        # operator-wide config applies.
        rab_config = self.rab_config
        if cell is not None and getattr(cell, "rab_config", None) is not None:
            rab_config = cell.rab_config
        rng_up = self.streams.stream(f"{self.name}.uplink.{session}")
        rng_down = self.streams.stream(f"{self.name}.downlink.{session}")
        uplink = Channel(
            self.sim,
            lambda frame: None,  # rebound by DataCall
            rate_bps=rab_config.grades[rab_config.initial_grade_index],
            delay=self.uplink_profile.base_delay,
            queue_bytes=self.uplink_profile.queue_bytes,
            jitter=self.uplink_profile.jitter,
            rng=rng_up,
            name=f"{self.name}:ul:{session}",
            length_of=lambda frame: frame.wire_length,
        )
        downlink = Channel(
            self.sim,
            lambda frame: None,  # rebound by DataCall
            rate_bps=self.downlink_rate_bps,
            delay=self.downlink_profile.base_delay,
            queue_bytes=self.downlink_profile.queue_bytes,
            jitter=self.downlink_profile.jitter,
            rng=rng_down,
            name=f"{self.name}:dl:{session}",
            length_of=lambda frame: frame.wire_length,
        )
        rab = RabController(self.sim, uplink, rab_config)
        call = DataCall(self.sim, uplink, downlink, rab, self, address)
        server = Pppd(
            self.sim,
            self.ggsn.stack,
            call.transport,
            role="server",
            ifname=f"ppp-s{session}",
            local_address=self.ggsn.internal_address,
            assign_address=address,
            dns1=self.ggsn.internal_address,
            rng=self.streams.stream(f"{self.name}.magic.{session}"),
        )
        call.server_pppd = server
        server.start()
        self.calls.append(call)
        self.sessions_opened += 1
        return call

    def close_data_call(self, call: DataCall, reason: str = "closed") -> None:
        """Release one session's resources (mobile- or network-initiated)."""
        if not call.active:
            return
        call.active = False
        call.rab.stop()
        if call.server_pppd is not None:
            call.server_pppd.carrier_lost(reason)
        self.ggsn.pool.release(call.assigned_address)
        if call in self.calls:
            self.calls.remove(call)
        self.sessions_closed += 1

    def drop_call(self, call: DataCall, reason: str = "network drop") -> None:
        """Network-initiated teardown (failure injection in tests)."""
        call.network_drop(reason)
        self.close_data_call(call, reason)

    def _session_fault(self, spec) -> bool:
        """Apply one triggered ``session`` fault to the oldest live call.

        Returns False (leaving the trigger pending) when no call is up
        yet — a mid-call fault scheduled before the dial completed waits
        for the session it is meant to kill.
        """
        if not self.calls:
            return False
        call = self.calls[0]
        if spec.mode == "drop":
            self.drop_call(call, spec.params.get("reason", "GGSN dropped session"))
            return True
        if spec.mode == "rab_preempt":
            call.rab.preempt()
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<UmtsOperator {self.name!r} sessions={len(self.calls)}>"


# -- the two profiles the paper used ---------------------------------------


def commercial_operator(
    sim: Simulator,
    streams: RandomStreams,
    name: str = "IT Mobile (commercial)",
    apn: str = "internet.operator.it",
    rab_config: Optional[RabConfig] = None,
) -> UmtsOperator:
    """A principal European operator's public UMTS network.

    Defaults reproduce the paper's measurements: 144 kbit/s initial
    uplink bearer upgraded to 384 kbit/s only after ~50 s of sustained
    demand, inbound connections firewalled.
    """
    return UmtsOperator(
        sim,
        streams,
        name=name,
        apn=apn,
        rab_config=rab_config if rab_config is not None else RabConfig(),
        block_inbound=True,
    )


def private_microcell(
    sim: Simulator,
    streams: RandomStreams,
    name: str = "Alcatel-Lucent 3G Reality Center",
    apn: str = "onelab.vimercate.it",
) -> UmtsOperator:
    """The private micro-cell at the 3G Reality Center.

    Lightly loaded and administered by the experimenters: no ingress
    firewall, quieter radio path, and bearer upgrades granted within a
    few seconds instead of ~50.
    """
    quick_rab = RabConfig(
        initial_grade_index=1,
        sustain_time=6.0,
        grant_delay=2.0,
    )
    return UmtsOperator(
        sim,
        streams,
        name=name,
        apn=apn,
        pool_prefix="10.201.0.0/16",
        ggsn_internal="10.201.0.1",
        uplink_profile=RadioProfile(
            base_delay=0.07,
            jitter=LogNormalVariate(math.log(0.003), 0.9, high=0.2),
            queue_bytes=48_000,
        ),
        downlink_profile=RadioProfile(
            base_delay=0.06,
            jitter=LogNormalVariate(math.log(0.002), 0.8, high=0.15),
            queue_bytes=200_000,
        ),
        rab_config=quick_rab,
        block_inbound=False,
    )
