"""The GGSN's PDP address pool.

:class:`AddressPool` hands out mobile addresses in deterministic host
order with FIFO reuse and raises a typed :class:`PoolExhaustedError`
when it drains.
"""

from __future__ import annotations

from typing import List, Set

from repro.net.addressing import IPv4Address, IPv4Network, NetworkLike, network


class PoolExhaustedError(Exception):
    """No free addresses remain in the pool."""


class AddressPool:
    """Allocates mobile addresses from one prefix.

    The network and broadcast addresses and any reserved addresses
    (the GGSN's own) are never handed out.  Released addresses are
    reused FIFO, like a real GGSN's round-robin pool.
    """

    def __init__(self, prefix: NetworkLike, reserved: List[str] = ()):
        self.prefix: IPv4Network = network(prefix)
        self._reserved: Set[IPv4Address] = {
            self.prefix.network_address,
            self.prefix.broadcast_address,
        }
        for addr in reserved:
            self._reserved.add(IPv4Address(addr))
        self._in_use: Set[IPv4Address] = set()
        self._released: List[IPv4Address] = []
        self._cursor = iter(self.prefix.hosts())

    @property
    def in_use(self) -> int:
        """How many addresses are currently allocated."""
        return len(self._in_use)

    def allocate(self) -> IPv4Address:
        """Hand out a free address; raises :class:`PoolExhaustedError`."""
        while self._released:
            addr = self._released.pop(0)
            if addr not in self._in_use:
                self._in_use.add(addr)
                return addr
        for addr in self._cursor:
            if addr in self._reserved or addr in self._in_use:
                continue
            self._in_use.add(addr)
            return addr
        raise PoolExhaustedError(f"pool {self.prefix} exhausted")

    def release(self, addr: IPv4Address) -> None:
        """Return an address to the pool."""
        if addr not in self._in_use:
            raise ValueError(f"{addr} was not allocated from this pool")
        self._in_use.remove(addr)
        self._released.append(addr)

    def __contains__(self, addr) -> bool:
        return IPv4Address(str(addr)) in self.prefix
