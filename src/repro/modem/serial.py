"""Serial ports between the host tools and the modem.

The port carries Python objects: strings are command/response lines
(the AT dialogue), :class:`~repro.ppp.frame.PPPFrame` objects are the
data-mode traffic.  Byte-level framing is not modelled: carrying
parsed objects keeps the tools' logic readable without changing any
behaviour the experiments see.

Fault modes on the modem → host direction:

- ``drop`` / ``garble`` hit any item (line noise on the local cable);
- ``latency`` / ``at_drop`` hit *strings only* — they model a
  MobileAtlas-style remote SIM where the AT dialogue is tunnelled over
  the wide-area network while the user plane stays local, so only
  command/response lines see the tunnel's delay and loss.  Delayed
  lines stay FIFO: a later response is never delivered before an
  earlier delayed one.

Each direction is one FIFO (:class:`~repro.sim.process.Store`), and a
queued item reaches its reader's process on a zero-delay engine event.
A data-mode :class:`~repro.ppp.frame.PPPFrame` skips that event when
the FIFO is empty and the one reader blocked on it is the consumer
that registered a frame handler: the modem's serial loop (in data
mode) for host writes, pppd's transport reader for modem writes.  The
handler then runs in the writer's dispatch, at the same simulated time
and in the same order as through the FIFO.  Everything else queues:
AT lines, ``+++``, ``NO CARRIER`` and garbled items, and a frame that
finds an item queued ahead of it, the consumer busy (the modem's
``+++`` guard time or an AT command) or another reader on the line
(wvdial's chat or hangup).  The fault modes and the delayed-line
horizon apply first, unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from repro.faults.plan import Garbled
from repro.ppp.frame import PPPFrame
from repro.sim.engine import Simulator
from repro.sim.process import Process, Store, StoreGet

#: A frame handler: takes the frame and returns True, or returns False
#: to leave it to the FIFO.
FrameHandler = Callable[[PPPFrame], bool]


def _refuse(frame: PPPFrame) -> bool:
    return False


class SerialPort:
    """A bidirectional host↔modem serial line.

    The host side is what comgt/wvdial/pppd hold; the modem side is
    private to the device (``_modem_read``/``_modem_write``).
    """

    def __init__(self, sim: Simulator, name: str = "ttyUSB0"):
        self.sim = sim
        self.name = name
        self._to_modem = Store(sim, f"{name}.out")
        self._to_host = Store(sim, f"{name}.in")
        self.host_writes = 0
        self.modem_writes = 0
        self.dropped_items = 0
        self.garbled_items = 0
        self.delayed_items = 0
        # When a delayed line is in flight, everything behind it must
        # queue too (FIFO over the remote-SIM tunnel); this is the sim
        # time at which the line becomes free again.
        self._delivery_horizon = 0.0
        # The data-mode consumer of each direction: its reader process
        # and its frame handler (see the module docstring).
        self._modem_reader: Optional[Process] = None
        self._modem_frame: FrameHandler = _refuse
        self._host_reader: Optional[Process] = None
        self._host_frame: FrameHandler = _refuse

    def attach_reader(self, reader: Process, on_frame: FrameHandler) -> None:
        """Hand modem → host frames to ``on_frame`` while ``reader``
        waits alone on the idle line (pppd's transport)."""
        self._host_reader = reader
        self._host_frame = on_frame

    def _attach_modem(self, reader: Process, on_frame: FrameHandler) -> None:
        """The modem side of :meth:`attach_reader`."""
        self._modem_reader = reader
        self._modem_frame = on_frame

    # -- host side ------------------------------------------------------

    def write(self, item: Any) -> None:
        """Host → modem (a command line or a PPP frame)."""
        self.host_writes += 1
        if (
            isinstance(item, PPPFrame)
            and self._to_modem.waits_alone(self._modem_reader)
            and self._modem_frame(item)
        ):
            return
        self._to_modem.put(item)

    def read(self, timeout: Optional[float] = None) -> Union[Store, StoreGet]:
        """Yieldable token resolving to the next modem → host item.

        With ``timeout`` the yield resumes with the
        :data:`~repro.sim.process.TIMEOUT` sentinel when the line stays
        silent that long (how chat scripts survive a dead modem).
        """
        return self._to_host.get(timeout)

    def read_available(self) -> int:
        """Items waiting for the host."""
        return len(self._to_host)

    # -- modem side --------------------------------------------------------

    def _modem_write(self, item: Any) -> None:
        self.modem_writes += 1
        faults = self.sim.faults
        if faults is not None:
            spec = faults.fire("serial", "drop", "garble")
            if spec is not None:
                if spec.mode == "drop":
                    self.dropped_items += 1
                    return
                self.garbled_items += 1
                item = Garbled(item)
            elif isinstance(item, str):
                # Remote-SIM tunnel faults apply to AT lines only; the
                # user plane (PPP frames) never crosses the tunnel.
                spec = faults.fire("serial", "at_drop", "latency")
                if spec is not None:
                    if spec.mode == "at_drop":
                        self.dropped_items += 1
                        return
                    delay = float(spec.params.get("delay", 0.5))
                    self.delayed_items += 1
                    when = max(self.sim.now + delay, self._delivery_horizon)
                    self._delivery_horizon = when
                    self.sim.post(when - self.sim.now, self._to_host.put, item)
                    return
        if self._delivery_horizon > self.sim.now:
            # A delayed line is still in flight: keep FIFO order by
            # routing this item through the scheduler behind it (the
            # engine's seq tiebreak preserves submission order).
            self.sim.post(
                self._delivery_horizon - self.sim.now, self._to_host.put, item
            )
            return
        if (
            isinstance(item, PPPFrame)
            and self._to_host.waits_alone(self._host_reader)
            and self._host_frame(item)
        ):
            return
        self._to_host.put(item)

    def _modem_read(self) -> Union[Store, StoreGet]:
        return self._to_modem.get()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SerialPort {self.name}>"
