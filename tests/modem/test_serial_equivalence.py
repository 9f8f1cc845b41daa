"""Equivalence: the serial port's direct frame hand-over vs the FIFO-only port.

``tests/modem/reference_serial.py`` is the port as it was before a
data-mode frame could go straight to an idle consumer, with the modem's
serial loop and pppd's transport reader of that time.  Random schedules
drive both rigs: the host writes AT lines, ``+++``, frames and runs a
chat (which stops the transport and holds the line); the modem side
writes response lines, frames and ``NO CARRIER``, and the network drops
the call.  Some frames ask pppd for a reply frame, written back from
inside the receive handler.  Each schedule runs with and without a
serial fault plan (``drop``, ``garble``, ``at_drop``, ``latency``).

Both consumers must handle the same items at the same simulated times
in the same order, and the port and transport counters must agree.
Actions sit on a grid that no consumer timer (the AT response delay,
the ``+++`` guard time, the dial delay, the tunnel latency) can hit
exactly: a hand-over in the writer's dispatch changes what else runs
first within one instant, never the instant an item is handled.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.modem.chat import chat
from repro.modem.device import Modem3G, RegistrationStatus
from repro.modem.serial import SerialPort
from repro.modem.wvdial import SerialPppTransport
from repro.obs.metrics import MetricsRegistry
from repro.ppp.frame import PPP_LCP, PPPFrame
from repro.sim.engine import Simulator
from repro.sim.process import spawn
from tests.modem.reference_serial import (
    ReferenceSerialPort,
    reference_read_loop,
    reference_serial_loop,
)

#: Spacing of the action grid (s); see the module docstring.
STEP = 0.0173
FAULT_PLAN = (
    "serial:drop@p=0.08",
    "serial:garble@p=0.08",
    "serial:at_drop@p=0.1",
    "serial:latency@p=0.15,delay=0.37",
)
HOST_LINES = ["AT", "ATI", "ATE1", "ATE0", "AT+CSQ", "AT+CREG?", "ATH", "ATZ", "ATD*99#", "+++"]
MODEM_LINES = ["OK", "RING", "+CSQ: 12,0", "NO CARRIER"]
PORT_COUNTERS = ("host_writes", "modem_writes", "dropped_items", "garbled_items", "delayed_items")


class FakeCall:
    """The data call: logs what the modem relays uplink."""

    advertised_rate_bps = 384000.0

    def __init__(self, rig):
        self._rig = rig

    def set_downlink(self, callback):
        pass

    def set_on_drop(self, callback):
        pass

    def send_uplink(self, frame):
        self._rig.modem_log.append((self._rig.sim.now, "uplink", frame.payload))

    def hangup(self, reason):
        self._rig.modem_log.append((self._rig.sim.now, "hangup", reason))


class FakeNetwork:
    def __init__(self, rig):
        self._rig = rig

    def signal_quality(self, rng):
        return 12

    def open_data_call(self, modem, apn=None):
        return FakeCall(self._rig)


class LoggedModem(Modem3G):
    def _handle_command(self, line):
        self.rig.modem_log.append((self.sim.now, "at", line))
        yield from super()._handle_command(line)

    def _respond(self, *lines):
        self.rig.modem_log.append((self.sim.now, "respond", lines))
        super()._respond(*lines)


class ReferenceModem(LoggedModem):
    def _serial_loop(self):
        return reference_serial_loop(self)


class ReferenceTransport(SerialPppTransport):
    def _read_loop(self):
        return reference_read_loop(self)


class Rig:
    """A port, the modem in data mode, and pppd's transport on the host side."""

    def __init__(self, reference, faults):
        self.sim = Simulator()
        if faults:
            FaultPlan.from_spec(*FAULT_PLAN).install(self.sim, rng=random.Random(5))
        self.port = (ReferenceSerialPort if reference else SerialPort)(self.sim)
        self._transport_cls = ReferenceTransport if reference else SerialPppTransport
        self.modem_log = []
        self.host_log = []
        self.modem = (ReferenceModem if reference else LoggedModem)(
            self.sim, self.port, rng=random.Random(0)
        )
        self.modem.rig = self
        self.modem.network = FakeNetwork(self)
        self.modem.registration = RegistrationStatus.REGISTERED_HOME
        # As right after CONNECT.
        self.modem._data_call = FakeCall(self)
        self.modem.data_mode = True
        self.transports = []
        self._new_transport()
        self._frames = 0
        self._chatting = False

    def _new_transport(self):
        transport = self._transport_cls(self.sim, self.port, on_carrier_lost=self._carrier_lost)
        transport.set_receiver(self._receive)
        self.transports.append(transport)

    def _receive(self, frame):
        self.host_log.append((self.sim.now, "frame", frame.payload))
        kind, index = frame.payload
        if kind == "echo":
            self.transports[-1].send_frame(PPPFrame(PPP_LCP, ("reply", index)))

    def _carrier_lost(self):
        self.host_log.append((self.sim.now, "carrier lost"))
        self._new_transport()

    def _frame(self, kind):
        self._frames += 1
        return PPPFrame(PPP_LCP, (kind, self._frames))

    def _chat(self, command):
        self.transports[-1].stop()
        terminal, info = yield from chat(self.port, command, timeout=1.5)
        self.host_log.append((self.sim.now, "chat", terminal, tuple(info)))
        self._chatting = False
        self._new_transport()

    def act(self, kind, arg):
        if kind == "host_line":
            self.port.write(arg)
        elif kind == "host_frame":
            self.port.write(self._frame("host"))
        elif kind == "modem_line":
            self.port._modem_write(arg)
        elif kind == "modem_frame":
            self.port._modem_write(self._frame("echo" if arg else "data"))
        elif kind == "network_drop":
            self.modem._network_hangup("network drop")
        elif kind == "chat" and not self._chatting:
            self._chatting = True
            spawn(self.sim, self._chat(arg), name="chat")

    def run(self, schedule):
        for tick, (kind, arg) in schedule:
            self.sim.schedule(tick * STEP, self.act, kind, arg)
        self.sim.run()
        return self

    def counters(self):
        port = {name: getattr(self.port, name) for name in PORT_COUNTERS}
        transports = [(t.frames_received, t.frames_garbled) for t in self.transports]
        return port, transports


ACTIONS = st.one_of(
    st.tuples(st.just("host_line"), st.sampled_from(HOST_LINES)),
    st.tuples(st.just("host_frame"), st.none()),
    st.tuples(st.just("host_frame"), st.none()),
    st.tuples(st.just("modem_line"), st.sampled_from(MODEM_LINES)),
    st.tuples(st.just("modem_frame"), st.booleans()),
    st.tuples(st.just("modem_frame"), st.booleans()),
    st.tuples(st.just("chat"), st.sampled_from(["AT", "ATI", "AT+CSQ"])),
    st.tuples(st.just("network_drop"), st.none()),
)
SCHEDULES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1200), ACTIONS),
    max_size=40,
    unique_by=lambda action: action[0],
)


@settings(max_examples=300, deadline=None)
@given(SCHEDULES)
def test_direct_hand_over_matches_the_fifo_only_port(schedule):
    for faults in (False, True):
        ours = Rig(reference=False, faults=faults).run(schedule)
        ref = Rig(reference=True, faults=faults).run(schedule)
        assert ours.modem_log == ref.modem_log, faults
        assert ours.host_log == ref.host_log, faults
        assert ours.counters() == ref.counters(), faults
        assert ours.modem.data_mode == ref.modem.data_mode


def test_idle_data_mode_frames_skip_the_loops():
    """A frame to an idle consumer is handled in the writer's dispatch:
    neither the modem loop nor the transport reader resumes for it."""
    rig = Rig(reference=False, faults=False)
    for tick in range(1, 5):
        rig.sim.schedule(tick * 0.1, rig.act, "host_frame", None)
        rig.sim.schedule(tick * 0.1 + 0.05, rig.act, "modem_frame", True)
    rig.sim.run(until=0.01)  # both loops start and block on the idle line
    rig.sim.metrics = MetricsRegistry()
    rig.sim.run()
    # The eight scheduled writes are the only events dispatched.
    assert rig.sim.metrics.counter("engine.events_dispatched").value == 8
    uplinks = [entry for entry in rig.modem_log if entry[1] == "uplink"]
    assert len(uplinks) == 8  # four host frames and four replies
    assert rig.counters()[1] == [(4, 0)]


def test_frame_written_during_the_escape_guard_time_is_not_sent_uplink():
    rig = Rig(reference=False, faults=False)
    rig.sim.schedule(0.5, rig.act, "host_frame", None)
    rig.sim.schedule(1.0, rig.act, "host_line", "+++")
    rig.sim.schedule(1.5, rig.act, "host_frame", None)
    rig.sim.run()
    assert rig.modem_log == [
        (0.5, "uplink", ("host", 1)),
        (2.0, "respond", ("OK",)),
    ]
    assert not rig.modem.data_mode
    # The queued frame reached the loop after the guard and was ignored.
    assert len(rig.port._to_modem) == 0
