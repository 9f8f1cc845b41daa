"""The UMTS connection manager: comgt → wvdial → pppd, and teardown.

This is the privileged machinery ``umts start``/``umts stop`` drive.
``connect()`` and ``disconnect()`` are generators so the vsys back-end
can run them as simulation processes — registration, PDP activation
and PPP negotiation all take simulated time, exactly like the real
dial-up takes seconds of wall clock.
"""

from __future__ import annotations

import enum
import random as _random
from typing import List, Optional

from repro.core.retry import PERMANENT, RetryPolicy, classify_comgt, classify_wvdial
from repro.modem.comgt import Comgt
from repro.modem.device import Modem3G
from repro.modem.wvdial import SerialPppTransport, Wvdial
from repro.net.stack import IPStack
from repro.ppp.daemon import Pppd
from repro.sim.engine import Simulator
from repro.sim.process import Signal
from repro.sim.rng import RandomStreams

#: Registration (comgt) retry schedule: 2 s, 4 s between attempts.
DEFAULT_REGISTRATION_POLICY = RetryPolicy(
    max_attempts=3, base_delay=2.0, multiplier=2.0, max_delay=30.0, jitter=0.25
)
#: Dial + PPP retry schedule: each attempt covers wvdial *and* the
#: negotiation, because a failed negotiation needs a fresh carrier.
DEFAULT_DIAL_POLICY = RetryPolicy(
    max_attempts=3, base_delay=2.0, multiplier=2.0, max_delay=30.0, jitter=0.25
)


class ConnectionState(enum.Enum):
    """Lifecycle of the dial-up connection."""

    DOWN = "down"
    REGISTERING = "registering"
    DIALING = "dialing"
    NEGOTIATING = "negotiating"
    UP = "up"
    STOPPING = "stopping"


class UmtsConnectionManager:
    """Owns the modem and the PPP session for one node."""

    def __init__(
        self,
        sim: Simulator,
        stack: IPStack,
        modem: Modem3G,
        apn: str,
        streams: RandomStreams,
        pin: Optional[str] = None,
        ifname: str = "ppp0",
    ):
        self.sim = sim
        self.stack = stack
        self.modem = modem
        self.apn = apn
        self.pin = pin
        self.ifname = ifname
        self.streams = streams
        self.state = ConnectionState.DOWN
        self.pppd: Optional[Pppd] = None
        self.transport: Optional[SerialPppTransport] = None
        self.connected_at: Optional[float] = None
        self.connects = 0
        self.disconnects = 0
        self.carrier_losses = 0
        self.retries = 0
        self._retry_rng: Optional[_random.Random] = None
        #: fired with a reason when an *established* connection drops —
        #: the backend's cleanup and the supervisor listen here.  A
        #: carrier death mid-negotiation is connect()'s internal retry
        #: business and must not look like a connection loss to them.
        self.went_down = Signal(sim, "umts.down")
        #: fired on every carrier loss, established or not (internal:
        #: wakes a connect() blocked in PPP negotiation).
        self._carrier_down = Signal(sim, "umts.carrier-down")

    # -- observability ----------------------------------------------------

    def _set_state(self, new_state: ConnectionState, reason: str = "") -> None:
        """Move the lifecycle, emitting the transition on the trace bus."""
        old_state = self.state
        self.state = new_state
        if old_state is new_state:
            return
        trace = self.sim.trace
        if trace is not None:
            trace.emit(
                "umts.connection.state",
                kind="transition",
                old=old_state.value,
                new=new_state.value,
                reason=reason,
            )

    def _count(self, name: str) -> None:
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter(name).inc()

    # -- state inspection -------------------------------------------------

    @property
    def is_up(self) -> bool:
        """True while ppp0 exists and IPCP is open."""
        return self.state == ConnectionState.UP and self.pppd is not None and self.pppd.is_up

    def address(self) -> Optional[str]:
        """The operator-assigned address, while up."""
        if self.is_up and self.pppd.iface is not None:
            return str(self.pppd.iface.address)
        return None

    def uptime(self) -> Optional[float]:
        """Seconds since the session reached the data phase."""
        if self.connected_at is None or not self.is_up:
            return None
        return self.sim.now - self.connected_at

    def status_lines(self) -> List[str]:
        """What ``umts status`` prints."""
        lines = [f"state: {self.state.value}"]
        if self.is_up:
            lines.append(f"interface: {self.ifname}")
            lines.append(f"address: {self.address()}")
            lines.append(f"uptime: {self.uptime():.1f}s")
        return lines

    # -- connect / disconnect ------------------------------------------------

    def _backoff_rng(self) -> _random.Random:
        """The jitter stream, created on first use.

        Lazy on purpose: the unfaulted happy path never backs off, so
        it must not even *open* the stream (named-stream creation is
        cheap but observable in exhaustive-determinism audits).
        """
        if self._retry_rng is None:
            self._retry_rng = self.streams.stream("umts-retry")
        return self._retry_rng

    def _retry_backoff(self, phase: str, attempt: int, policy: RetryPolicy, trace):
        """Generator: record one retry and wait out the backoff."""
        self.retries += 1
        self._count("umts.retries")
        delay = policy.delay(attempt, self._backoff_rng())
        if trace is not None:
            trace.emit("umts.retry", phase=phase, attempt=attempt, delay=round(delay, 6))
        yield delay

    def _register_with_retry(self, trace):
        """Generator: run comgt under the registration policy."""
        policy = DEFAULT_REGISTRATION_POLICY
        code, lines = 1, ["comgt: not attempted"]
        for attempt in policy.attempts():
            code, lines = yield from Comgt(self.modem.port, pin=self.pin).run()
            if code == 0 or classify_comgt(lines) == PERMANENT or policy.is_last(attempt):
                return code, lines
            yield from self._retry_backoff("registration", attempt, policy, trace)
        return code, lines

    def connect(self):
        """Generator: bring the connection up.  Returns (code, lines).

        Registration runs under ``DEFAULT_REGISTRATION_POLICY``; the dial
        and the PPP negotiation retry together under ``DEFAULT_DIAL_POLICY`` (a
        failed negotiation needs a fresh carrier, so the two phases are
        one unit of work).  Permanent failures — registration denied,
        SIM PIN trouble — abort immediately.
        """
        if self.state != ConnectionState.DOWN:
            return 1, [f"umts: connection is {self.state.value}, expected down"]
        trace = self.sim.trace
        # lint: allow(resource-lifecycle) -- the dial loop always returns
        # from inside (is_last ends the span on the final attempt); the
        # fall-off return below it is unreachable in practice.
        span = trace.span("umts.connect", apn=self.apn) if trace is not None else None
        self._set_state(ConnectionState.REGISTERING, "umts start")
        code, lines = yield from self._register_with_retry(trace)
        if code != 0:
            self._set_state(ConnectionState.DOWN, "registration failed")
            if span is not None:
                span.fail("registration failed")
            self._count("umts.connect_failures")
            return 1, lines
        policy = DEFAULT_DIAL_POLICY
        for attempt in policy.attempts():
            self._set_state(ConnectionState.DIALING, "registered")
            dial_code, dial_lines = yield from Wvdial(
                self.modem.port, apn=self.apn
            ).run()
            lines.extend(dial_lines)
            if dial_code != 0:
                if classify_wvdial(dial_lines) == PERMANENT or policy.is_last(attempt):
                    self._set_state(ConnectionState.DOWN, "dial failed")
                    if span is not None:
                        span.fail("dial failed")
                    self._count("umts.connect_failures")
                    return 1, lines
                yield from self._retry_backoff("dial", attempt, policy, trace)
                continue
            self._set_state(ConnectionState.NEGOTIATING, "carrier acquired")
            self.transport = SerialPppTransport(
                self.sim, self.modem.port, on_carrier_lost=self._carrier_lost
            )
            self.pppd = Pppd(
                self.sim,
                self.stack,
                self.transport,
                role="client",
                ifname=self.ifname,
                rng=self.streams.stream(f"ppp-magic.{self.connects}"),
                request_dns=True,  # pppd's usepeerdns: take the operator's DNS
            )
            outcome = Signal(self.sim, "ppp-outcome")

            def on_lost(reason, _outcome=outcome):
                # Carrier death mid-negotiation: neither pppd.up nor
                # pppd.failed would ever fire, so this keeps connect()
                # from blocking forever.
                _outcome.fire(("failed", reason))

            self.pppd.up.wait(lambda iface: outcome.fire(("up", iface)))
            self.pppd.failed.wait(lambda reason: outcome.fire(("failed", reason)))
            self._carrier_down.wait(on_lost)
            self.pppd.start()
            kind, value = yield outcome
            self._carrier_down.unwait(on_lost)
            if kind == "up":
                # The session can also die under a live carrier (peer
                # Terminate, LCP echo timeout, a failed renegotiation
                # tearing ppp0 down): watch pppd itself, not just the
                # modem.  The carrier-loss and stop paths leave UP
                # synchronously before this +0 callback runs, so it
                # no-ops there.
                self.pppd.down.wait(self._ppp_down)
                self._set_state(ConnectionState.UP, "ipcp open")
                self.connected_at = self.sim.now
                self.connects += 1
                self._count("umts.connects")
                if trace is not None:
                    trace.emit(
                        "dial.addr_assigned", addr=str(value.address), ifname=self.ifname
                    )
                if span is not None:
                    span.end(addr=str(value.address))
                lines.append(f"pppd: {self.ifname} up, local address {value.address}")
                return 0, lines
            self._drop_transport()
            # Hard-abort the abandoned session: a frame already queued
            # behind the failure can otherwise still open IPCP on the
            # old pppd and leave a stale ppp0 with no owner to remove.
            self.pppd.carrier_lost(f"abandoned: {value}")
            self.pppd = None
            lines.append(f"pppd: {value}")
            if trace is not None:
                trace.error("umts.ppp_failed", reason=str(value))
            if policy.is_last(attempt):
                self._set_state(ConnectionState.DOWN, f"ppp failed: {value}")
                if span is not None:
                    span.fail(str(value))
                self._count("umts.connect_failures")
                return 1, lines
            # Return the modem to command mode (and release the half-dead
            # data call) before backing off and re-dialing.
            yield from Wvdial(self.modem.port, apn=self.apn).hangup()
            yield from self._retry_backoff("ppp", attempt, policy, trace)
        return 1, lines  # pragma: no cover - loop always returns

    def disconnect(self):
        """Generator: tear the connection down.  Returns (code, lines)."""
        if self.state != ConnectionState.UP:
            return 1, [f"umts: connection is {self.state.value}, expected up"]
        trace = self.sim.trace
        span = trace.span("umts.disconnect") if trace is not None else None
        self._set_state(ConnectionState.STOPPING, "umts stop")
        self.pppd.disconnect("umts stop")
        self._drop_transport()
        dialer = Wvdial(self.modem.port, apn=self.apn)
        code, lines = yield from dialer.hangup()
        # The modem hung up: the old pppd exits with the carrier.  This
        # also silences its Terminate-Request retransmissions, which
        # would otherwise leak into the next dial-up's serial stream.
        self.pppd.carrier_lost("modem hangup")
        self.pppd = None
        self._set_state(ConnectionState.DOWN, "umts stop")
        self.connected_at = None
        self.disconnects += 1
        self._count("umts.disconnects")
        if span is not None:
            span.end(code=code)
        self.went_down.fire("umts stop")
        return code, lines

    # -- failure paths -----------------------------------------------------------

    def _carrier_lost(self) -> None:
        was_up = self.state == ConnectionState.UP
        self.carrier_losses += 1
        self._count("umts.carrier_losses")
        trace = self.sim.trace
        if trace is not None:
            trace.error("umts.carrier_lost", state=self.state.value)
        if self.pppd is not None:
            self.pppd.carrier_lost("NO CARRIER")
        self._drop_transport()
        self._set_state(ConnectionState.DOWN, "carrier lost")
        self.connected_at = None
        self._carrier_down.fire("carrier lost")
        if was_up:
            self.went_down.fire("carrier lost")

    def _ppp_down(self, reason: str) -> None:
        """pppd lost ppp0 while the carrier stayed up.

        Peer Terminate-Request, LCP echo timeout and a renegotiation
        that fails to re-open all remove the interface without any
        modem-level event; the back-end still needs its ``went_down``
        cleanup or the lock and the isolation rules leak.
        """
        if self.state != ConnectionState.UP:
            return  # a stop/carrier-loss teardown already owns this drop
        self._count("umts.ppp_session_losses")
        trace = self.sim.trace
        if trace is not None:
            trace.error("umts.ppp_down", reason=str(reason))
        if self.pppd is not None:
            # Abort any renegotiation still in flight; the interface is
            # already gone, so this cannot re-fire pppd.down.
            self.pppd.carrier_lost(f"session down: {reason}")
        self._drop_transport()
        self._set_state(ConnectionState.DOWN, f"ppp down: {reason}")
        self.connected_at = None
        self.went_down.fire(f"ppp down: {reason}")

    def _drop_transport(self) -> None:
        if self.transport is not None:
            self.transport.stop()
            self.transport = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<UmtsConnectionManager {self.state.value} apn={self.apn!r}>"
