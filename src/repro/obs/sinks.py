"""Trace sinks: in-memory capture, JSONL export, the flight recorder.

A sink is anything with ``on_event(event)``; the :class:`TraceBus`
fans every emitted :class:`~repro.obs.trace.TraceEvent` out to all of
them.  The :class:`FlightRecorder` is the failure-forensics sink: it
keeps only the last N events in a ring buffer, and when an error-kind
event arrives (a ``UmtsCommandError``, a failed dial phase) it freezes
a copy — the post-mortem of what the stack did right before dying.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, List, Optional

from repro.obs.trace import KIND_ERROR, TraceEvent, format_event

#: Default :class:`FlightRecorder` ring size.  256 events is ~4 full
#: datacall bring-ups of trace traffic — enough context to explain any
#: single failure while bounding memory regardless of run length.
DEFAULT_FLIGHT_CAPACITY = 256


class ListSink:
    """Collect every event in order (tests and the CLI use this)."""

    def __init__(self):
        self.events: List[TraceEvent] = []

    def on_event(self, event: TraceEvent) -> None:
        """Append the event."""
        self.events.append(event)

    def clear(self) -> None:
        """Drop everything collected so far."""
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink:
    """Write one JSON object per event to a file.

    Accepts a path (opened and owned; :meth:`close` closes it) or any
    file-like object with ``write`` (left open for the caller).
    """

    def __init__(self, target):
        if hasattr(target, "write"):
            self._file = target
            self._owns = False
        else:
            self._file = open(target, "w", encoding="utf-8")
            self._owns = True
        self.written = 0

    def on_event(self, event: TraceEvent) -> None:
        """Serialize and write the event as one line."""
        self._file.write(json.dumps(event.to_dict(), sort_keys=True))
        self._file.write("\n")
        self.written += 1

    def close(self) -> None:
        """Flush, and close the file if this sink opened it."""
        self._file.flush()
        if self._owns:
            self._file.close()


class FlightRecorder:
    """Bounded ring buffer that freezes a dump when an error flies by.

    ``capacity`` bounds the ring (default
    :data:`DEFAULT_FLIGHT_CAPACITY`); ``trigger_kinds`` are the event
    kinds that cause a snapshot (by default only ``error``).  Each
    trigger appends the frozen event list (trigger included, oldest
    first) to :attr:`dumps`; ``on_dump`` is called with it for live
    reporting.  :attr:`seen` counts every event that crossed the ring,
    including the ones it has since evicted.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_FLIGHT_CAPACITY,
        trigger_kinds=(KIND_ERROR,),
        on_dump: Optional[Callable[[List[TraceEvent]], None]] = None,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        self.trigger_kinds = frozenset(trigger_kinds)
        self.on_dump = on_dump
        self._ring: deque = deque(maxlen=capacity)
        self.dumps: List[List[TraceEvent]] = []
        self.seen = 0

    def on_event(self, event: TraceEvent) -> None:
        """Record the event; snapshot the ring on a trigger kind."""
        self._ring.append(event)
        self.seen += 1
        if event.kind in self.trigger_kinds:
            dump = list(self._ring)
            self.dumps.append(dump)
            if self.on_dump is not None:
                self.on_dump(dump)

    def __len__(self) -> int:
        return len(self._ring)

    def recent(self) -> List[TraceEvent]:
        """The current ring contents, oldest first."""
        return list(self._ring)

    def last_dump(self) -> Optional[List[TraceEvent]]:
        """The most recent frozen dump, if any trigger fired."""
        return self.dumps[-1] if self.dumps else None

    def dump_lines(self) -> List[str]:
        """The last dump formatted for humans."""
        events = self.last_dump()
        if not events:
            return ["flight recorder: no dump captured"]
        header = (
            f"flight recorder dump: last {len(events)} events "
            f"(trigger: {events[-1].name})"
        )
        return [header] + ["  " + format_event(event) for event in events]
