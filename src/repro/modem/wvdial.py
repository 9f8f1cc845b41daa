"""wvdial — establishing the data call, and the serial PPP transport.

wvdial resets the modem, defines the PDP context for the operator's
APN, dials ``*99#`` and waits for CONNECT; at that point the serial
line is in data mode and pppd takes over.  :class:`SerialPppTransport`
is that takeover: it adapts the host side of the serial port to the
frame-transport interface :class:`~repro.ppp.daemon.Pppd` expects, and
surfaces "NO CARRIER" as a carrier-lost event.  An inbound frame that
finds the transport's reader waiting alone on an idle line reaches
pppd in the modem's write dispatch (see :mod:`repro.modem.serial`);
one queued behind another item goes through the reader's loop, as
"NO CARRIER" and garbled items always do.

Fault surface: outbound LCP/IPCP frames consult the ``ppp`` injection
point (Configure-Request loss, IPCP stall), and inbound
:class:`~repro.faults.plan.Garbled` items are counted and dropped —
the HDLC FCS would have rejected them on a real line.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.faults.plan import Garbled
from repro.modem.chat import DEFAULT_CHAT_TIMEOUT, chat
from repro.modem.serial import SerialPort
from repro.ppp.frame import PPP_IPCP, PPP_LCP, PPPFrame
from repro.sim.engine import Simulator
from repro.sim.process import TIMEOUT, Process, spawn


class Wvdial:
    """The dialer bound to one serial port."""

    def __init__(
        self,
        port: SerialPort,
        apn: str,
        phone: str = "*99#",
    ):
        self.port = port
        self.apn = apn
        self.phone = phone

    def run(self):
        """The dial sequence.  Generator returning (code, lines).

        On success (exit 0) the serial port is in data mode and the
        last output line is the CONNECT message.  The whole sequence is
        one ``dial.dial`` span; a failure also emits an error event.
        """
        trace = self.port.sim.trace
        span = trace.span("dial.dial", apn=self.apn) if trace is not None else None
        code, lines = yield from self._script()
        if span is not None:
            if code == 0:
                span.end(code=code)
            else:
                span.fail(lines[-1] if lines else "", code=code)
        if code != 0 and trace is not None:
            trace.error("dial.dial.failed", detail=lines[-1] if lines else "")
        return code, lines

    def _script(self):
        for command in ("ATZ", f'AT+CGDCONT=1,"IP","{self.apn}"'):
            terminal, _ = yield from chat(self.port, command, timeout=DEFAULT_CHAT_TIMEOUT)
            if terminal != "OK":
                return 1, [f"wvdial: {command} failed ({terminal})"]
        terminal, _ = yield from chat(self.port, f"ATD{self.phone}", timeout=DEFAULT_CHAT_TIMEOUT)
        if terminal.startswith("CONNECT"):
            return 0, [f"wvdial: carrier acquired ({terminal})"]
        return 1, [f"wvdial: dial failed ({terminal})"]

    def hangup(self):
        """Escape to command mode and hang up.  Generator returning (code, lines).

        Robust to the modem already being in command mode (a failed
        negotiation, carrier already lost): "+++" then answers ERROR
        instead of OK, and a line that has gone completely silent runs
        into the per-read deadline rather than blocking forever.
        """
        self.port.write("+++")
        while True:
            item = yield self.port.read(DEFAULT_CHAT_TIMEOUT)
            if item is TIMEOUT:
                break
            if isinstance(item, str) and item.strip() in ("OK", "ERROR"):
                break
        terminal, _ = yield from chat(self.port, "ATH", timeout=DEFAULT_CHAT_TIMEOUT)
        if terminal == "OK":
            return 0, ["wvdial: disconnected"]
        return 1, [f"wvdial: hangup failed ({terminal})"]


class SerialPppTransport:
    """pppd's frame transport over a serial port in data mode."""

    def __init__(
        self,
        sim: Simulator,
        port: SerialPort,
        on_carrier_lost: Optional[Callable[[], None]] = None,
    ):
        self.sim = sim
        self.port = port
        self.on_carrier_lost = on_carrier_lost
        self._receiver: Optional[Callable[[PPPFrame], None]] = None
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_dropped = 0
        self.frames_garbled = 0
        self._reader: Process = spawn(sim, self._read_loop(), name=f"ppp-tty:{port.name}")
        port.attach_reader(self._reader, self._take_frame)

    def set_receiver(self, callback: Callable[[PPPFrame], None]) -> None:
        """Register pppd's inbound frame handler."""
        self._receiver = callback

    def send_frame(self, frame: PPPFrame) -> None:
        """pppd → modem."""
        faults = self.sim.faults
        if faults is not None:
            mode: Optional[str] = None
            if frame.protocol == PPP_LCP:
                mode = "lcp_drop"
            elif frame.protocol == PPP_IPCP:
                mode = "ipcp_stall"
            if mode is not None and faults.fire("ppp", mode):
                self.frames_dropped += 1
                return
        self.frames_sent += 1
        self.port.write(frame)

    def stop(self) -> None:
        """Detach from the port (pppd exited)."""
        self._reader.interrupt("transport stopped")

    def _take_frame(self, frame: PPPFrame) -> bool:
        """Hand an inbound frame to pppd.

        The loop below runs it for a queued frame; the port runs it in
        the modem's write dispatch while the loop waits on the idle line.
        """
        self.frames_received += 1
        if self._receiver is not None:
            self._receiver(frame)
        return True

    def _read_loop(self):
        while True:
            item = yield self.port.read()
            if isinstance(item, PPPFrame):
                self._take_frame(item)
            elif isinstance(item, Garbled):
                # Failed the HDLC frame check; count and discard.
                self.frames_garbled += 1
            elif isinstance(item, str) and item.strip() == "NO CARRIER":
                if self.on_carrier_lost is not None:
                    self.on_carrier_lost()
                return
