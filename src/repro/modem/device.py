"""The 3G modem: an AT-command state machine with a PPP data mode.

The modem is plugged into a UMTS network (anything implementing the
small :class:`NetworkAttachment` duck-type: registration delay, signal
quality, data-call setup).  After power-on it registers automatically,
exactly like a real card with a ready SIM; ``AT+CREG?`` polls the
progress (what comgt does), ``ATD*99#`` activates the PDP context and
switches the serial line to data mode, relaying PPP frames between the
host and the radio bearer.
"""

from __future__ import annotations

import enum
import random as _random
from typing import Optional

from repro.modem.serial import SerialPort
from repro.ppp.frame import PPPFrame
from repro.sim.engine import Simulator
from repro.sim.process import spawn
from repro.sim.rng import RandomStreams


class ModemError(Exception):
    """Configuration or attachment error."""


class RegistrationStatus(enum.IntEnum):
    """``AT+CREG?`` status codes (3GPP TS 27.007)."""

    NOT_REGISTERED = 0
    REGISTERED_HOME = 1
    SEARCHING = 2
    DENIED = 3
    REGISTERED_ROAMING = 5


#: Time the firmware takes to answer a plain AT command.
AT_RESPONSE_DELAY = 0.05
#: PDP context activation adds a couple of seconds before CONNECT.
DEFAULT_DIAL_DELAY = 2.0
#: Guard time around "+++" before the escape is honoured.
ESCAPE_GUARD_TIME = 1.0


class Modem3G:
    """Base class for the two supported cards."""

    #: card model string reported by ATI (subclasses override).
    model = "Generic 3G modem"
    #: manufacturer string reported by ATI.
    manufacturer = "Generic"
    #: kernel module the PlanetLab node must load for the card.
    required_module = "usbserial"

    def __init__(
        self,
        sim: Simulator,
        port: Optional[SerialPort] = None,
        sim_pin: Optional[str] = None,
        rng: Optional[_random.Random] = None,
    ):
        self.sim = sim
        self.port = port if port is not None else SerialPort(sim)
        self.sim_pin = sim_pin
        self._pin_ok = sim_pin is None
        if rng is None:
            # Derive the fallback from the seed-0 named-stream family so
            # an un-wired modem still draws deterministically.
            rng = RandomStreams(0).stream(f"modem.{self.port.name}")
        self._rng = rng
        self.network = None
        self.registration = RegistrationStatus.NOT_REGISTERED
        self.apn: Optional[str] = None
        self.echo_commands = False
        self.data_mode = False
        self._data_call = None
        self.dial_delay = DEFAULT_DIAL_DELAY
        self.at_log: list = []
        self._process = spawn(sim, self._serial_loop(), name=f"modem:{self.port.name}")
        self.port._attach_modem(self._process, self._take_frame)

    # -- attachment ----------------------------------------------------

    def plug_into(self, network) -> None:
        """Attach to a UMTS network and start auto-registration.

        ``network`` provides ``registration_delay(rng)``,
        ``registration_result(modem)``, ``signal_quality(rng)`` and
        ``open_data_call(modem)``.
        """
        self.network = network
        self.registration = RegistrationStatus.SEARCHING
        spawn(self.sim, self._register(), name="modem-register")

    def handover_to(self, network) -> None:
        """Inter-cell handover: re-camp on ``network`` without a re-dial.

        Models the make-before-break hard handover UTRAN performs for
        a moving terminal: the old cell is told we left, the new cell
        answers the registration immediately (no fresh network search —
        the RNC prepared the target), and an active data call survives;
        only the bearer grade may change afterwards, which the scenario
        driver renegotiates explicitly.
        """
        old = self.network
        if old is not None and hasattr(old, "detach"):
            old.detach(self)
        self.network = network
        self.registration = network.registration_result(self)
        trace = self.sim.trace
        if trace is not None:
            trace.emit(
                "modem.handover",
                port=self.port.name,
                cell=getattr(network, "name", "?"),
                operator=getattr(network, "operator_name", "?"),
                in_call=self._data_call is not None,
            )

    def _register(self):
        if self.network is None:
            # Coverage vanished before the search even started.
            self.registration = RegistrationStatus.NOT_REGISTERED
            return
        delay = self.network.registration_delay(self._rng)
        yield delay
        if self.network is None:
            self.registration = RegistrationStatus.NOT_REGISTERED
            return
        self.registration = self.network.registration_result(self)

    # -- serial processing ----------------------------------------------

    def _serial_loop(self):
        while True:
            item = yield self.port._modem_read()
            if self.data_mode:
                if isinstance(item, PPPFrame):
                    self._take_frame(item)
                    continue
                if isinstance(item, str) and item.strip() == "+++":
                    yield ESCAPE_GUARD_TIME
                    self.data_mode = False
                    self._respond("OK")
                    continue
            if isinstance(item, str):
                yield AT_RESPONSE_DELAY
                yield from self._handle_command(item.strip())

    def _take_frame(self, frame: PPPFrame) -> bool:
        """Relay a host frame uplink; False outside data mode.

        The loop above runs it for a queued frame; the port runs it in
        the host's write dispatch while the loop waits on the idle line.
        """
        if not self.data_mode:
            return False
        call = self._data_call
        if call is not None:
            call.send_uplink(frame)
        return True

    def _respond(self, *lines: str) -> None:
        for line in lines:
            self.port._modem_write(line)

    # -- AT command dispatch ------------------------------------------------

    def _handle_command(self, line: str):
        self.at_log.append(line)
        upper = line.upper()
        if self.echo_commands:
            self._respond(line)
        if upper in ("AT", "ATZ", "AT&F"):
            if upper != "AT":
                yield from self._reset()
            self._respond("OK")
        elif upper in ("ATE0", "ATE1"):
            self.echo_commands = upper.endswith("1")
            self._respond("OK")
        elif upper == "ATI":
            self._respond(self.manufacturer, self.model, "OK")
        elif upper == "AT+CPIN?":
            if self._pin_ok:
                self._respond("+CPIN: READY", "OK")
            else:
                self._respond("+CPIN: SIM PIN", "OK")
        elif upper.startswith("AT+CPIN="):
            yield from self._enter_pin(line)
        elif upper == "AT+CREG?":
            self._respond(*self._registration_response())
        elif upper == "AT+CSQ":
            yield from self._signal_quality()
        elif upper == "AT+COPS?":
            yield from self._operator_query()
        elif upper.startswith("AT+CGDCONT="):
            yield from self._define_pdp_context(line)
        elif upper.startswith("ATD"):
            yield from self._dial(line)
        elif upper == "ATH":
            self._hangup("local")
            self._respond("OK")
        else:
            self._respond("ERROR")

    def _registration_response(self):
        """Response lines for ``AT+CREG?``, honouring any active fault."""
        faults = self.sim.faults
        if faults is not None:
            spec = faults.fire("registration", "cme_error", "denied", "searching")
            if spec is not None:
                if spec.mode == "cme_error":
                    return ("+CME ERROR: no network service",)
                if spec.mode == "denied":
                    return (f"+CREG: 0,{int(RegistrationStatus.DENIED)}", "OK")
                return (f"+CREG: 0,{int(RegistrationStatus.SEARCHING)}", "OK")
        return (f"+CREG: 0,{int(self.registration)}", "OK")

    def _reset(self):
        self._hangup("reset")
        self.echo_commands = False
        self.apn = None
        yield 0.1

    def _enter_pin(self, line: str):
        if self._pin_ok:
            self._respond("OK")
            return
        supplied = line.split("=", 1)[1].strip().strip('"')
        yield 0.2
        if supplied == self.sim_pin:
            self._pin_ok = True
            self._respond("OK")
        else:
            self._respond("+CME ERROR: incorrect password")

    def _signal_quality(self):
        if self.network is None:
            self._respond("+CSQ: 99,99", "OK")
            return
        yield 0.0
        rssi = self.network.signal_quality(self._rng)
        self._respond(f"+CSQ: {rssi},0", "OK")

    def _operator_query(self):
        yield 0.0
        if self.network is None or not self._registered():
            self._respond("+COPS: 0", "OK")
        else:
            self._respond(f'+COPS: 0,0,"{self.network.operator_name}"', "OK")

    def _define_pdp_context(self, line: str):
        # AT+CGDCONT=1,"IP","apn.operator.it"
        yield 0.0
        try:
            args = line.split("=", 1)[1]
            fields = [f.strip().strip('"') for f in args.split(",")]
            self.apn = fields[2]
        except (IndexError, ValueError):
            self._respond("ERROR")
            return
        self._respond("OK")

    def _registered(self) -> bool:
        return self.registration in (
            RegistrationStatus.REGISTERED_HOME,
            RegistrationStatus.REGISTERED_ROAMING,
        )

    def _dial(self, line: str):
        if not self._pin_ok:
            self._respond("+CME ERROR: SIM PIN required")
            return
        if self.network is None or not self._registered():
            yield 0.5
            self._respond("NO CARRIER")
            return
        faults = self.sim.faults
        if faults is not None and faults.fire("dial", "no_carrier"):
            # PDP activation rejected before any bearer came up.
            yield 0.5
            self._respond("NO CARRIER")
            return
        yield self.dial_delay
        try:
            call = self.network.open_data_call(self, apn=self.apn)
        except Exception:
            self._respond("NO CARRIER")
            return
        self._data_call = call
        call.set_downlink(self._downlink_frame)
        call.set_on_drop(self._network_hangup)
        self.data_mode = True
        self._respond(f"CONNECT {int(call.advertised_rate_bps)}")

    # -- data path -----------------------------------------------------------

    def _downlink_frame(self, frame: PPPFrame) -> None:
        if self.data_mode:
            self.port._modem_write(frame)

    def _network_hangup(self, reason: str) -> None:
        if self._data_call is not None:
            self._data_call = None
            self.data_mode = False
            self.port._modem_write("NO CARRIER")

    def _hangup(self, reason: str) -> None:
        if self._data_call is not None:
            call, self._data_call = self._data_call, None
            self.data_mode = False
            call.hangup(reason)

    @property
    def connected(self) -> bool:
        """True while a data call is active."""
        return self._data_call is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} on {self.port.name} creg={self.registration}>"
