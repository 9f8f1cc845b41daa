"""Routing tables with longest-prefix-match lookup."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.net.addressing import (
    AddressLike,
    IPv4Address,
    IPv4Network,
    NetworkLike,
    ip,
    network,
    prefix_ints,
)


class Route:
    """One routing-table entry.

    Mirrors the fields of an ``ip route`` entry that matter here:
    destination ``prefix``, optional gateway ``via``, output device
    ``dev``, optional preferred source address ``src`` and a ``metric``
    used to break ties between equal-length prefixes.
    """

    __slots__ = ("prefix", "via", "dev", "src", "metric", "_net", "_mask", "_plen")

    def __init__(
        self,
        prefix: NetworkLike,
        dev: str,
        via: Optional[AddressLike] = None,
        src: Optional[AddressLike] = None,
        metric: int = 0,
    ):
        self.prefix: IPv4Network = network(prefix)
        self.dev = dev
        self.via: Optional[IPv4Address] = ip(via) if via is not None else None
        self.src: Optional[IPv4Address] = ip(src) if src is not None else None
        self.metric = metric
        # The prefix as integers, so lookups compare ints rather than
        # going through ``IPv4Network.__contains__``.
        self._net, self._mask, self._plen = prefix_ints(self.prefix)

    def key(self) -> tuple:
        """Identity key used for replace/delete semantics."""
        return (self.prefix, self.dev, self.via, self.metric)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Route) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        parts = ["default" if self.prefix.prefixlen == 0 else str(self.prefix)]
        if self.via is not None:
            parts.append(f"via {self.via}")
        parts.append(f"dev {self.dev}")
        if self.src is not None:
            parts.append(f"src {self.src}")
        if self.metric:
            parts.append(f"metric {self.metric}")
        return " ".join(parts)


class RoutingTable:
    """A named list of routes with longest-prefix-match lookup.

    ``decisions`` is the owning RPDB's decision cache: every write to
    the table empties it, since a route change can change any answer.
    A table built on its own gets a private dict nobody reads.
    """

    def __init__(self, name: str, decisions: Optional[Dict[Any, Any]] = None):
        self.name = name
        self._routes: List[Route] = []
        self._decisions: Dict[Any, Any] = {} if decisions is None else decisions

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self):
        return iter(self._routes)

    def add(self, route: Route, replace: bool = False) -> None:
        """Install a route.

        Duplicate (same prefix/dev/via/metric) installs raise unless
        ``replace`` is set, mirroring ``ip route add`` vs ``replace``.
        """
        existing = [r for r in self._routes if r.key() == route.key()]
        if existing:
            if not replace:
                raise ValueError(f"route already exists: {route!r}")
            for r in existing:
                self._routes.remove(r)
        self._routes.append(route)
        self._decisions.clear()

    def delete(
        self,
        prefix: NetworkLike,
        dev: Optional[str] = None,
        via: Optional[AddressLike] = None,
    ) -> None:
        """Remove routes matching the given prefix (and dev/via if given)."""
        target = network(prefix)
        gateway = ip(via) if via is not None else None
        survivors = []
        removed = 0
        for route in self._routes:
            if (
                route.prefix == target
                and (dev is None or route.dev == dev)
                and (gateway is None or route.via == gateway)
            ):
                removed += 1
            else:
                survivors.append(route)
        if not removed:
            raise ValueError(f"no such route: {prefix}")
        self._routes = survivors
        self._decisions.clear()

    def flush(self) -> None:
        """Remove every route."""
        self._routes.clear()
        self._decisions.clear()

    def remove_dev(self, dev: str) -> int:
        """Remove all routes through ``dev`` (interface went away)."""
        before = len(self._routes)
        self._routes = [r for r in self._routes if r.dev != dev]
        self._decisions.clear()
        return before - len(self._routes)

    def lookup(self, dst: AddressLike, oif: Optional[str] = None) -> Optional[Route]:
        """Longest-prefix match; ties broken by lowest metric, then
        earliest install (Linux picks the first found; we keep it
        deterministic).  ``oif`` restricts candidates to one output
        device (the SO_BINDTODEVICE-constrained lookup)."""
        destination = ip(dst)._ip  # type: ignore[attr-defined]
        best: Optional[Route] = None
        best_plen = -1
        best_metric = 0
        for route in self._routes:
            if destination & route._mask != route._net:
                continue
            if oif is not None and route.dev != oif:
                continue
            plen = route._plen
            if plen > best_plen or (plen == best_plen and route.metric < best_metric):
                best, best_plen, best_metric = route, plen, route.metric
        return best

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RoutingTable {self.name!r} routes={len(self._routes)}>"
