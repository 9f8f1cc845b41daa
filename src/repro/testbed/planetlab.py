"""The PlanetLab node: stack + VServer slivers + vsys + UMTS hardware.

A :class:`PlanetLabNode` composes everything a real node runs: the
network stack with its wired interface, the vsys daemon, slivers of
the slices instantiated on it, the kernel module registry, and — once
:meth:`install_umts_card` is called — the modem, connection manager and
the ``umts`` vsys back-end from :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.core.backend import SCRIPT_NAME, UmtsBackend
from repro.core.connection import UmtsConnectionManager
from repro.core.errors import HardwareMissingError
from repro.core.isolation import UMTS_TABLE, IsolationManager
from repro.modem.device import Modem3G
from repro.net.interface import EthernetInterface
from repro.net.stack import IPStack
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.testbed.internet import Internet
from repro.testbed.kernel import KernelModuleRegistry
from repro.umts.cell import UmtsCell
from repro.vserver.slice import Slice, Sliver
from repro.vserver.vnet import VnetPlus
from repro.vsys.daemon import VsysDaemon


class PlanetLabNode:
    """One node of the (simulated) Private OneLab testbed."""

    def __init__(self, sim: Simulator, name: str, streams: RandomStreams):
        self.sim = sim
        self.name = name
        self.streams = streams
        self.stack = IPStack(sim, name)
        self.vnet = VnetPlus(self.stack)
        self.vsys = VsysDaemon(sim, name)
        self.kernel = KernelModuleRegistry()
        self.slivers: Dict[str, Sliver] = {}
        self.bwlimiter = None
        self.modem: Optional[Modem3G] = None
        self.connection: Optional[UmtsConnectionManager] = None
        self.isolation: Optional[IsolationManager] = None
        self.umts_backend: Optional[UmtsBackend] = None

    # -- wired connectivity ------------------------------------------------

    def attach_lan(
        self,
        internet: Internet,
        address: str,
        gateway: str,
        prefix_len: int = 24,
        delay: float = 0.002,
        jitter=None,
    ):
        """Give the node its Ethernet uplink through the Internet core.

        Sets the node's address, the subnet's router address, and the
        default route via the gateway — the standard PlanetLab setup
        where ``eth0`` carries both control and experiment traffic,
        including PlanetLab's per-slice egress cap (``bwlimit``, 10
        Mbit/s per slice).
        """
        eth = self.stack.add_interface(EthernetInterface("eth0"))
        self.stack.configure_interface(eth, address, prefix_len)
        link = internet.attach(
            eth,
            gateway,
            prefix_len,
            delay=delay,
            jitter=jitter,
            rng=self.streams.stream(f"{self.name}.lan") if jitter else None,
            name=f"to-{self.name}",
        )
        self.stack.ip.route_add("default", "eth0", via=gateway)
        self.bwlimiter = self.stack.install_bwlimiter("eth0")
        return link

    @property
    def address(self) -> Optional[str]:
        """The node's eth0 address, once attached."""
        eth = self.stack.interfaces.get("eth0")
        return str(eth.address) if eth is not None and eth.address else None

    # -- slices -------------------------------------------------------------

    def create_sliver(self, slice_: Slice) -> Sliver:
        """Instantiate a slice on this node."""
        if slice_.name in self.slivers:
            raise ValueError(f"slice {slice_.name!r} already on {self.name}")
        sliver = Sliver(slice_, self.name, self.stack, self.vsys)
        self.slivers[slice_.name] = sliver
        return sliver

    def resolve_xid(self, slice_name: str) -> int:
        """Map a slice name to its VServer context id (for the back-end)."""
        return self.slivers[slice_name].xid

    # -- UMTS hardware ---------------------------------------------------------

    def install_umts_card(
        self,
        card_cls: Type[Modem3G],
        cell: UmtsCell,
        apn: str,
        pin: Optional[str] = None,
        load_modules: bool = True,
    ) -> UmtsBackend:
        """Plug a UMTS card in and register the ``umts`` vsys script.

        ``load_modules=False`` models a stock PlanetLab node without the
        paper's kernel patches: installation fails with
        :class:`HardwareMissingError`.
        """
        if self.umts_backend is not None:
            raise HardwareMissingError(f"{self.name} already has a UMTS card")
        driver = card_cls.required_module
        if load_modules:
            self.kernel.load_umts_support(driver)
        if not self.kernel.has_umts_support(driver):
            raise HardwareMissingError(
                f"{self.name}: kernel lacks PPP/{driver} modules "
                "(stock PlanetLab kernel — the paper's patches are required)"
            )
        self.modem = card_cls(
            self.sim, sim_pin=pin, rng=self.streams.stream(f"{self.name}.modem")
        )
        self.modem.plug_into(cell)
        self.connection = UmtsConnectionManager(
            self.sim,
            self.stack,
            self.modem,
            apn=apn,
            pin=pin,
            streams=self.streams.fork(f"{self.name}.umts"),
        )
        self.isolation = IsolationManager(self.stack)
        self.umts_backend = UmtsBackend(
            self.sim,
            self.connection,
            self.isolation,
            resolve_xid=self.resolve_xid,
        )
        self.vsys.register(SCRIPT_NAME, self.umts_backend.handler, acl=[])
        return self.umts_backend

    def authorize_umts(self, slice_name: str) -> None:
        """Add a slice to the umts script's vsys ACL."""
        if self.umts_backend is None:
            raise HardwareMissingError(f"{self.name} has no UMTS card installed")
        self.vsys.allow(SCRIPT_NAME, slice_name)

    def released(self) -> bool:
        """Whether the UMTS session left nothing behind on this node.

        The lock is free, no isolation is active, there is no ``ppp0``
        and the UMTS routing table is empty.
        """
        backend = self.umts_backend
        return (
            not backend.lock.locked
            and not backend.isolation.active
            and "ppp0" not in self.stack.interfaces
            and self.stack.ip.route_list(UMTS_TABLE) == []
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        umts = "umts" if self.umts_backend is not None else "no-umts"
        return f"<PlanetLabNode {self.name} {umts} slivers={sorted(self.slivers)}>"
