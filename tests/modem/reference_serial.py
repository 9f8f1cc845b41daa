"""Reference model for :class:`repro.modem.serial.SerialPort`: FIFO only.

This is the port as it was before data-mode frames went straight to an
idle consumer.  Every item, in either direction, goes through a
:class:`~repro.sim.process.Store`, so it reaches its reader on a
zero-delay engine event.  :func:`reference_serial_loop` and
:func:`reference_read_loop` are the modem's serial loop and pppd's
transport reader as they were then; ``ReferenceModem`` and
``ReferenceTransport`` in the oracle run them in place of today's.  It
exists only as the oracle of ``tests/modem/test_serial_equivalence.py``.
"""

from repro.faults.plan import Garbled
from repro.modem.device import AT_RESPONSE_DELAY, ESCAPE_GUARD_TIME
from repro.ppp.frame import PPPFrame
from repro.sim.process import Store


class ReferenceSerialPort:
    """A bidirectional host↔modem serial line, one Store per direction."""

    def __init__(self, sim, name="ttyUSB0"):
        self.sim = sim
        self.name = name
        self._to_modem = Store(sim, f"{name}.out")
        self._to_host = Store(sim, f"{name}.in")
        self.host_writes = 0
        self.modem_writes = 0
        self.dropped_items = 0
        self.garbled_items = 0
        self.delayed_items = 0
        self._delivery_horizon = 0.0

    # Today's consumers register a frame handler; this port ignores it.

    def attach_reader(self, reader, on_frame):
        pass

    def _attach_modem(self, reader, on_frame):
        pass

    def write(self, item):
        self.host_writes += 1
        self._to_modem.put(item)

    def read(self, timeout=None):
        return self._to_host.get(timeout)

    def _modem_write(self, item):
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
            self.sim.post(
                self._delivery_horizon - self.sim.now, self._to_host.put, item
            )
            return
        self._to_host.put(item)

    def _modem_read(self):
        return self._to_modem.get()


def reference_serial_loop(modem):
    """``Modem3G._serial_loop`` with its per-item data-mode sub-generator."""
    while True:
        item = yield modem.port._modem_read()
        if modem.data_mode:
            handled = yield from _handle_data_mode_item(modem, item)
            if handled:
                continue
        if isinstance(item, str):
            yield AT_RESPONSE_DELAY
            yield from modem._handle_command(item.strip())


def _handle_data_mode_item(modem, item):
    """Returns True when the item was consumed by data mode."""
    if isinstance(item, PPPFrame):
        if modem._data_call is not None:
            modem._data_call.send_uplink(item)
        return True
    if isinstance(item, str) and item.strip() == "+++":
        yield ESCAPE_GUARD_TIME
        modem.data_mode = False
        modem._respond("OK")
        return True
    return False


def reference_read_loop(transport):
    """``SerialPppTransport._read_loop``, every frame through the Store."""
    while True:
        item = yield transport.port.read()
        if isinstance(item, PPPFrame):
            transport.frames_received += 1
            if transport._receiver is not None:
                transport._receiver(item)
        elif isinstance(item, Garbled):
            transport.frames_garbled += 1
        elif isinstance(item, str) and item.strip() == "NO CARRIER":
            if transport.on_carrier_lost is not None:
                transport.on_carrier_lost()
            return
