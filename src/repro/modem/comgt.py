"""comgt — GPRS/UMTS network registration.

The paper uses comgt "to register into the operator network".  The
tool's default script checks the modem is alive, deals with the SIM
PIN, then polls ``AT+CREG?`` until the card reports registered (home
or roaming), finally reading signal quality.  :meth:`Comgt.run` is
that script as a simulation process returning a (exit code, output
lines) pair — the same contract vsys back-ends use.

Every AT exchange runs under a per-command deadline, and the CREG poll
is driven by a constant-interval :class:`~repro.core.retry.RetryPolicy`
budget — a modem that stops answering (fault injection, dead line)
surfaces as a clean exit-1 the connection manager can classify and
retry, never a hung process.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.retry import RetryPolicy
from repro.modem.chat import DEFAULT_CHAT_TIMEOUT, chat
from repro.modem.device import RegistrationStatus
from repro.modem.serial import SerialPort

_REGISTERED = (
    int(RegistrationStatus.REGISTERED_HOME),
    int(RegistrationStatus.REGISTERED_ROAMING),
)


class Comgt:
    """The registration tool bound to one serial port."""

    def __init__(
        self,
        port: SerialPort,
        pin: Optional[str] = None,
        poll_interval: float = 2.0,
        max_attempts: int = 30,
    ):
        self.port = port
        self.pin = pin
        self.poll_interval = poll_interval
        self.max_attempts = max_attempts
        self.poll_policy = RetryPolicy(
            max_attempts=max_attempts,
            base_delay=poll_interval,
            multiplier=1.0,
            max_delay=poll_interval,
        )

    def run(self):
        """The default comgt script.  Generator returning (code, lines).

        The whole registration is one ``dial.register`` span; a nonzero
        exit also emits an error event (the flight-recorder trigger).
        """
        trace = self.port.sim.trace
        span = trace.span("dial.register") if trace is not None else None
        code, lines = yield from self._script(trace)
        if span is not None:
            if code == 0:
                span.end(code=code)
            else:
                span.fail(lines[-1] if lines else "", code=code)
        if code != 0 and trace is not None:
            trace.error("dial.register.failed", detail=lines[-1] if lines else "")
        return code, lines

    def _chat(self, command: str):
        return (yield from chat(self.port, command, timeout=DEFAULT_CHAT_TIMEOUT))

    def _script(self, trace):
        terminal, _ = yield from self._chat("AT")
        if terminal != "OK":
            return 1, [f"comgt: modem not responding ({terminal})"]
        terminal, info = yield from self._chat("AT+CPIN?")
        if terminal != "OK":
            return 1, [f"comgt: SIM query failed ({terminal})"]
        if info and "SIM PIN" in info[0]:
            if self.pin is None:
                return 1, ["comgt: SIM PIN required but none configured"]
            terminal, _ = yield from self._chat(f'AT+CPIN="{self.pin}"')
            if terminal != "OK":
                return 1, [f"comgt: PIN rejected ({terminal})"]
        for attempt in self.poll_policy.attempts():
            terminal, info = yield from self._chat("AT+CREG?")
            if terminal != "OK":
                return 1, [f"comgt: CREG query failed ({terminal})"]
            status = _parse_creg(info)
            if trace is not None:
                trace.emit("comgt.creg", attempt=attempt, creg=status)
            if status in _REGISTERED:
                lines = [f"comgt: registered on network (CREG {status})"]
                terminal, info = yield from self._chat("AT+CSQ")
                if terminal == "OK" and info:
                    lines.append(f"comgt: signal {info[0].replace('+CSQ: ', '')}")
                terminal, info = yield from self._chat("AT+COPS?")
                if terminal == "OK" and info:
                    lines.append(f"comgt: operator {info[0]}")
                return 0, lines
            if status == int(RegistrationStatus.DENIED):
                return 1, ["comgt: registration denied by network"]
            yield self.poll_policy.delay(attempt)
        return 1, ["comgt: registration timed out"]


def _parse_creg(info: List[str]) -> int:
    """Extract the status digit from a ``+CREG: 0,<stat>`` line."""
    for line in info:
        if line.startswith("+CREG:"):
            try:
                return int(line.split(",")[1])
            except (IndexError, ValueError):
                return int(RegistrationStatus.NOT_REGISTERED)
    return int(RegistrationStatus.NOT_REGISTERED)
