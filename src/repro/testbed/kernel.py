"""Kernel modules of the PlanetLab node.

§2.3: "To add support for the UMTS interfaces we needed to add both
kernel modules and user-space tools.  The kernel modules [...] are
those related to the management of the PPP connection (ppp_generic,
ppp_filter, ppp_async, ppp_sync_tty, ppp_deflate, and ppp_bsdcomp) and
those required by the two NICs, i.e. pl2303 and usbserial for the
Huawei card, and nozomi for the Globetrotter card."

The registry models presence and dependency ordering — what the paper's
patched node distribution ships versus a stock PlanetLab node, where
dialing simply cannot work.
"""

from __future__ import annotations

from typing import Dict, List, Set

#: module -> modules it depends on (insmod order constraints).
PLANETLAB_UMTS_MODULES: Dict[str, List[str]] = {
    "ppp_generic": ["slhc"],
    "slhc": [],
    "ppp_filter": ["ppp_generic"],
    "ppp_async": ["ppp_generic", "crc_ccitt"],
    "crc_ccitt": [],
    "ppp_sync_tty": ["ppp_generic"],
    "ppp_deflate": ["ppp_generic", "zlib_deflate"],
    "zlib_deflate": [],
    "ppp_bsdcomp": ["ppp_generic"],
    "usbserial": [],
    "pl2303": ["usbserial"],
    "nozomi": [],
}

#: the PPP set every UMTS-capable node needs regardless of the card.
PPP_MODULE_SET = [
    "ppp_generic",
    "ppp_filter",
    "ppp_async",
    "ppp_sync_tty",
    "ppp_deflate",
    "ppp_bsdcomp",
]

#: card driver -> full driver stack to load.
CARD_MODULE_SETS = {
    "nozomi": ["nozomi"],
    "usbserial": ["usbserial", "pl2303"],
}


class ModuleError(Exception):
    """Unknown module or unmet dependency."""


class KernelModuleRegistry:
    """Tracks which modules are loaded on one node."""

    def __init__(self) -> None:
        self.available = dict(PLANETLAB_UMTS_MODULES)
        self._loaded: Set[str] = set()

    def is_loaded(self, name: str) -> bool:
        """Whether ``name`` is currently loaded."""
        return name in self._loaded

    def loaded_modules(self) -> List[str]:
        """Sorted names of loaded modules (``lsmod``)."""
        return sorted(self._loaded)

    def load(self, name: str) -> None:
        """``modprobe``: load ``name`` and its dependencies."""
        if name not in self.available:
            raise ModuleError(f"no such module: {name}")
        for dependency in self.available[name]:
            if not self.is_loaded(dependency):
                self.load(dependency)
        self._loaded.add(name)

    def unload(self, name: str) -> None:
        """``rmmod``: refuse while another loaded module depends on it."""
        if name not in self._loaded:
            raise ModuleError(f"module not loaded: {name}")
        for other in self._loaded:
            if other != name and name in self.available.get(other, []):
                raise ModuleError(f"{name} is in use by {other}")
        self._loaded.remove(name)

    def load_umts_support(self, card_driver: str) -> List[str]:
        """Load the PPP set plus the card's driver stack.

        Returns the list of modules loaded, in order.
        """
        if card_driver not in CARD_MODULE_SETS:
            raise ModuleError(f"unsupported UMTS card driver: {card_driver}")
        before = set(self._loaded)
        for module in PPP_MODULE_SET + CARD_MODULE_SETS[card_driver]:
            self.load(module)
        return [m for m in self.loaded_modules() if m not in before]

    def has_umts_support(self, card_driver: str) -> bool:
        """Whether dialing with this card could work right now."""
        needed = PPP_MODULE_SET + CARD_MODULE_SETS.get(card_driver, ["__missing__"])
        return all(self.is_loaded(m) for m in needed)
