"""Deterministic sim-time profiling: where does simulated time go?

A :class:`SimProfiler` hangs off the engine as ``sim.profile`` and is
fed one call per dispatched event.  It attributes two deterministic
quantities to each **subsystem** (the module that owns the dispatched
callback) and each **process** (the named generator the callback
resumes):

- ``events`` — how many dispatches the subsystem/process received;
- ``sim_time`` — how far each dispatch advanced the virtual clock,
  i.e. the simulated time the rest of the system spent *waiting* for
  that subsystem's next move.  Summed over a run this decomposes the
  final clock value exactly.

Wall-clock cost per subsystem is tracked too, but — like everything
wall-based in this stack — it is volatile and excluded from
:meth:`SimProfiler.snapshot` unless explicitly requested, so profiles
of a deterministic run are byte-stable.

The profiler follows the observability layer's zero-cost contract:
``sim.profile`` is ``None`` by default, the engine's dispatch walk
checks it once per batch of same-instant events, and attaching it
never changes dispatch order — golden run digests are unaffected.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

_MODULE_PREFIX = "repro."


class ProfileEntry:
    """Accumulated attribution for one subsystem or process."""

    __slots__ = ("events", "sim_time", "wall_time")

    def __init__(self) -> None:
        self.events = 0
        self.sim_time = 0.0
        self.wall_time = 0.0


def _subsystem_of(callback: Any) -> str:
    """The subsystem key for a dispatched callback (module-based)."""
    module = getattr(callback, "__module__", None) or "unknown"
    if module.startswith(_MODULE_PREFIX):
        module = module[len(_MODULE_PREFIX):]
    return module


def _process_of(callback: Any) -> Optional[str]:
    """The owning process name, when the callback resumes one."""
    owner = getattr(callback, "__self__", None)
    if owner is None:
        return None
    name = getattr(owner, "name", None)
    # Process/Signal/Store owners all carry a ``name``; only processes
    # also carry ``alive``, which is what we attribute to.
    if name and hasattr(owner, "alive"):
        return str(name)
    return None


class SimProfiler:
    """Per-subsystem / per-process simulated-time attribution.

    Usage::

        profiler = SimProfiler()
        sim.profile = profiler
        scenario.run()
        for line in profiler.report_lines():
            print(line)
    """

    def __init__(self) -> None:
        self.subsystems: Dict[str, ProfileEntry] = {}
        self.processes: Dict[str, ProfileEntry] = {}
        self.total_events = 0
        self.total_sim_time = 0.0
        self._last_now = 0.0

    def record(self, callback: Any, now: float, wall: float) -> None:
        """Attribute one dispatched event to its subsystem and process."""
        advance = now - self._last_now
        if advance < 0.0:  # a fresh run after reset; don't go negative
            advance = 0.0
        self._last_now = now
        for entries, key in (
            (self.subsystems, _subsystem_of(callback)),
            (self.processes, _process_of(callback)),
        ):
            if key is None:
                continue
            entry = entries.get(key)
            if entry is None:
                entry = entries[key] = ProfileEntry()
            entry.events += 1
            entry.sim_time += advance
            entry.wall_time += wall
        self.total_events += 1
        self.total_sim_time += advance

    # -- output ------------------------------------------------------------

    def snapshot(self, include_volatile: bool = False) -> Dict[str, Any]:
        """A plain-dict profile, deterministically ordered.

        Wall-clock sums are host-dependent and only included with
        ``include_volatile=True``.
        """

        def table(entries: Dict[str, ProfileEntry]) -> Dict[str, Dict[str, Any]]:
            out: Dict[str, Dict[str, Any]] = {}
            for key in sorted(entries):
                entry = entries[key]
                row: Dict[str, Any] = {
                    "events": entry.events,
                    "sim_time": entry.sim_time,
                }
                if include_volatile:
                    row["wall_time"] = entry.wall_time
                out[key] = row
            return out

        return {
            "total_events": self.total_events,
            "total_sim_time": self.total_sim_time,
            "subsystems": table(self.subsystems),
            "processes": table(self.processes),
        }

    def report_lines(self) -> List[str]:
        """Human-readable profile tables (sim-time descending)."""
        lines: List[str] = []

        def table(title: str, entries: Dict[str, ProfileEntry]) -> None:
            if not entries:
                return
            lines.append(f"{title}  (events / sim seconds)")
            ordered = sorted(
                entries.items(), key=lambda kv: (-kv[1].sim_time, kv[0])
            )
            for key, entry in ordered:
                lines.append(
                    f"  {key:<32} {entry.events:>8} {entry.sim_time:>12.6f}s"
                )

        lines.append(
            f"profiled {self.total_events} events over "
            f"{self.total_sim_time:.6f} simulated seconds"
        )
        table("by subsystem", self.subsystems)
        table("by process", self.processes)
        return lines
