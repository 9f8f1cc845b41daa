"""The PPP option-negotiation automaton (RFC 1661, simplified).

One :class:`NegotiationFsm` instance drives one control protocol (LCP
or IPCP) on one side of the link.  It keeps the familiar states —
CLOSED, REQ-SENT, ACK-RCVD, ACK-SENT, OPENED, CLOSING — retransmits
Configure-Requests on the restart timer, honours Configure-Nak by
adjusting its own requested options, and tears down with
Terminate-Request/Ack.

The automaton is **table-driven**: :data:`TRANSITIONS` declares one
:class:`Transition` for every (state, event) pair of the
:class:`FsmState` × :class:`FsmEvent` matrix — the RFC 1661 §4.1
transition table restricted to the states a two-party dial-up visits.
``tests/lint/test_rules.py`` checks the imported table is total (every
pair handled, every target a state, every state reachable, every
action a method), so an incomplete edit fails the test suite.
:meth:`NegotiationFsm._dispatch` is the only consumer: it looks the
pair up, runs the bound action method, and asserts the state landed
inside the declared target set.

Subclasses provide the option policy (and *only* the option policy —
the same test rejects subclasses that shadow the machinery):

- :meth:`initial_options` — what we ask for;
- :meth:`check_peer_options` — ack or nak the peer's request;
- :meth:`on_nak` — fold the peer's suggestions into our next request.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.ppp.frame import (
    CONF_ACK,
    CONF_NAK,
    CONF_REQ,
    ECHO_REP,
    ECHO_REQ,
    TERM_ACK,
    TERM_REQ,
    ControlPacket,
)
from repro.sim.engine import Event, Simulator

#: RFC 1661 defaults.
RESTART_INTERVAL = 3.0
MAX_CONFIGURE = 10
MAX_TERMINATE = 2


class FsmState(enum.Enum):
    """Automaton states (the subset a two-party dial-up visits)."""

    CLOSED = "closed"
    REQ_SENT = "req-sent"
    ACK_RCVD = "ack-rcvd"
    ACK_SENT = "ack-sent"
    OPENED = "opened"
    CLOSING = "closing"


class FsmEvent(enum.Enum):
    """The event alphabet (RFC 1661 §4.1, condensed).

    ``OPEN``/``CLOSE`` are the administrative events, ``ABORT`` is
    lower-layer-down (carrier lost), ``TIMEOUT`` covers TO+/TO-, and
    the ``RCV_*`` events are the receive events RCR/RCA/RCN/RTR/RTA
    plus the echo and unknown-code receptions (RXR/RUC).
    """

    OPEN = "open"
    CLOSE = "close"
    ABORT = "abort"
    TIMEOUT = "timeout"
    RCV_CONF_REQ = "rcv-conf-req"
    RCV_CONF_ACK = "rcv-conf-ack"
    RCV_CONF_NAK = "rcv-conf-nak"
    RCV_TERM_REQ = "rcv-term-req"
    RCV_TERM_ACK = "rcv-term-ack"
    RCV_ECHO_REQ = "rcv-echo-req"
    RCV_ECHO_REP = "rcv-echo-rep"
    RCV_UNKNOWN = "rcv-unknown"


class Transition(NamedTuple):
    """One cell of the event×state matrix.

    ``action`` names the :class:`NegotiationFsm` method that handles
    the event; ``targets`` is the closed set of states the automaton
    may be in afterwards (asserted on every dispatch; the table's
    totality is checked by ``tests/lint/test_rules.py``).
    """

    action: str
    targets: Tuple[FsmState, ...]


#: Where every automaton starts (the root of the test's reachability check).
INITIAL_STATE = FsmState.CLOSED

#: The full RFC 1661 event×state matrix.  Every (state, event) pair
#: must be present — ``tests/lint/test_rules.py`` fails otherwise — so a
#: reader (or a reviewer) can audit the automaton without chasing
#: ``if`` chains, exactly like the state table in RFC 1661 §4.1.
TRANSITIONS: Dict[Tuple[FsmState, FsmEvent], Transition] = {
    # -- CLOSED: nothing running; only Open or a peer's Terminate-Request
    #    (politely acked) provoke any action.
    (FsmState.CLOSED, FsmEvent.OPEN): Transition("_act_open", (FsmState.REQ_SENT,)),
    (FsmState.CLOSED, FsmEvent.CLOSE): Transition("_act_ignore", (FsmState.CLOSED,)),
    (FsmState.CLOSED, FsmEvent.ABORT): Transition("_act_abort", (FsmState.CLOSED,)),
    (FsmState.CLOSED, FsmEvent.TIMEOUT): Transition("_act_ignore", (FsmState.CLOSED,)),
    (FsmState.CLOSED, FsmEvent.RCV_CONF_REQ): Transition("_act_ignore", (FsmState.CLOSED,)),
    (FsmState.CLOSED, FsmEvent.RCV_CONF_ACK): Transition("_act_ignore", (FsmState.CLOSED,)),
    (FsmState.CLOSED, FsmEvent.RCV_CONF_NAK): Transition("_act_ignore", (FsmState.CLOSED,)),
    (FsmState.CLOSED, FsmEvent.RCV_TERM_REQ): Transition("_act_term_req", (FsmState.CLOSED,)),
    (FsmState.CLOSED, FsmEvent.RCV_TERM_ACK): Transition("_act_ignore", (FsmState.CLOSED,)),
    (FsmState.CLOSED, FsmEvent.RCV_ECHO_REQ): Transition("_act_ignore", (FsmState.CLOSED,)),
    (FsmState.CLOSED, FsmEvent.RCV_ECHO_REP): Transition("_act_ignore", (FsmState.CLOSED,)),
    (FsmState.CLOSED, FsmEvent.RCV_UNKNOWN): Transition("_act_ignore", (FsmState.CLOSED,)),
    # -- REQ_SENT: our Configure-Request is out, nothing acked yet.
    (FsmState.REQ_SENT, FsmEvent.OPEN): Transition("_act_ignore", (FsmState.REQ_SENT,)),
    (FsmState.REQ_SENT, FsmEvent.CLOSE): Transition("_act_close", (FsmState.CLOSING,)),
    (FsmState.REQ_SENT, FsmEvent.ABORT): Transition("_act_abort", (FsmState.CLOSED,)),
    (FsmState.REQ_SENT, FsmEvent.TIMEOUT): Transition(
        "_act_timeout_configure", (FsmState.REQ_SENT, FsmState.CLOSED)
    ),
    (FsmState.REQ_SENT, FsmEvent.RCV_CONF_REQ): Transition(
        "_act_conf_req_req_sent", (FsmState.ACK_SENT, FsmState.REQ_SENT)
    ),
    (FsmState.REQ_SENT, FsmEvent.RCV_CONF_ACK): Transition(
        "_act_conf_ack_req_sent", (FsmState.ACK_RCVD,)
    ),
    (FsmState.REQ_SENT, FsmEvent.RCV_CONF_NAK): Transition(
        "_act_conf_nak_resend", (FsmState.REQ_SENT,)
    ),
    (FsmState.REQ_SENT, FsmEvent.RCV_TERM_REQ): Transition("_act_term_req", (FsmState.CLOSED,)),
    (FsmState.REQ_SENT, FsmEvent.RCV_TERM_ACK): Transition("_act_ignore", (FsmState.REQ_SENT,)),
    (FsmState.REQ_SENT, FsmEvent.RCV_ECHO_REQ): Transition("_act_ignore", (FsmState.REQ_SENT,)),
    (FsmState.REQ_SENT, FsmEvent.RCV_ECHO_REP): Transition("_act_ignore", (FsmState.REQ_SENT,)),
    (FsmState.REQ_SENT, FsmEvent.RCV_UNKNOWN): Transition("_act_ignore", (FsmState.REQ_SENT,)),
    # -- ACK_RCVD: the peer acked our request; waiting to ack theirs.
    (FsmState.ACK_RCVD, FsmEvent.OPEN): Transition("_act_ignore", (FsmState.ACK_RCVD,)),
    (FsmState.ACK_RCVD, FsmEvent.CLOSE): Transition("_act_close", (FsmState.CLOSING,)),
    (FsmState.ACK_RCVD, FsmEvent.ABORT): Transition("_act_abort", (FsmState.CLOSED,)),
    (FsmState.ACK_RCVD, FsmEvent.TIMEOUT): Transition(
        "_act_timeout_configure", (FsmState.ACK_RCVD, FsmState.CLOSED)
    ),
    (FsmState.ACK_RCVD, FsmEvent.RCV_CONF_REQ): Transition(
        "_act_conf_req_ack_rcvd", (FsmState.OPENED, FsmState.ACK_RCVD)
    ),
    (FsmState.ACK_RCVD, FsmEvent.RCV_CONF_ACK): Transition("_act_ignore", (FsmState.ACK_RCVD,)),
    (FsmState.ACK_RCVD, FsmEvent.RCV_CONF_NAK): Transition(
        "_act_conf_nak_back_to_req_sent", (FsmState.REQ_SENT,)
    ),
    (FsmState.ACK_RCVD, FsmEvent.RCV_TERM_REQ): Transition("_act_term_req", (FsmState.CLOSED,)),
    (FsmState.ACK_RCVD, FsmEvent.RCV_TERM_ACK): Transition("_act_ignore", (FsmState.ACK_RCVD,)),
    (FsmState.ACK_RCVD, FsmEvent.RCV_ECHO_REQ): Transition("_act_ignore", (FsmState.ACK_RCVD,)),
    (FsmState.ACK_RCVD, FsmEvent.RCV_ECHO_REP): Transition("_act_ignore", (FsmState.ACK_RCVD,)),
    (FsmState.ACK_RCVD, FsmEvent.RCV_UNKNOWN): Transition("_act_ignore", (FsmState.ACK_RCVD,)),
    # -- ACK_SENT: we acked the peer's request; ours is still pending.
    (FsmState.ACK_SENT, FsmEvent.OPEN): Transition("_act_ignore", (FsmState.ACK_SENT,)),
    (FsmState.ACK_SENT, FsmEvent.CLOSE): Transition("_act_close", (FsmState.CLOSING,)),
    (FsmState.ACK_SENT, FsmEvent.ABORT): Transition("_act_abort", (FsmState.CLOSED,)),
    (FsmState.ACK_SENT, FsmEvent.TIMEOUT): Transition(
        "_act_timeout_configure", (FsmState.ACK_SENT, FsmState.CLOSED)
    ),
    (FsmState.ACK_SENT, FsmEvent.RCV_CONF_REQ): Transition(
        "_act_conf_req_ack_sent", (FsmState.ACK_SENT, FsmState.REQ_SENT)
    ),
    (FsmState.ACK_SENT, FsmEvent.RCV_CONF_ACK): Transition(
        "_act_conf_ack_ack_sent", (FsmState.OPENED,)
    ),
    (FsmState.ACK_SENT, FsmEvent.RCV_CONF_NAK): Transition(
        "_act_conf_nak_resend", (FsmState.ACK_SENT,)
    ),
    (FsmState.ACK_SENT, FsmEvent.RCV_TERM_REQ): Transition("_act_term_req", (FsmState.CLOSED,)),
    (FsmState.ACK_SENT, FsmEvent.RCV_TERM_ACK): Transition("_act_ignore", (FsmState.ACK_SENT,)),
    (FsmState.ACK_SENT, FsmEvent.RCV_ECHO_REQ): Transition("_act_ignore", (FsmState.ACK_SENT,)),
    (FsmState.ACK_SENT, FsmEvent.RCV_ECHO_REP): Transition("_act_ignore", (FsmState.ACK_SENT,)),
    (FsmState.ACK_SENT, FsmEvent.RCV_UNKNOWN): Transition("_act_ignore", (FsmState.ACK_SENT,)),
    # -- OPENED: the data phase.  A fresh Configure-Request from the
    #    peer means renegotiation; echoes are answered here only.
    (FsmState.OPENED, FsmEvent.OPEN): Transition("_act_ignore", (FsmState.OPENED,)),
    (FsmState.OPENED, FsmEvent.CLOSE): Transition("_act_close", (FsmState.CLOSING,)),
    (FsmState.OPENED, FsmEvent.ABORT): Transition("_act_abort", (FsmState.CLOSED,)),
    (FsmState.OPENED, FsmEvent.TIMEOUT): Transition("_act_ignore", (FsmState.OPENED,)),
    (FsmState.OPENED, FsmEvent.RCV_CONF_REQ): Transition(
        "_act_conf_req_opened", (FsmState.ACK_SENT, FsmState.OPENED)
    ),
    (FsmState.OPENED, FsmEvent.RCV_CONF_ACK): Transition("_act_ignore", (FsmState.OPENED,)),
    (FsmState.OPENED, FsmEvent.RCV_CONF_NAK): Transition("_act_ignore", (FsmState.OPENED,)),
    (FsmState.OPENED, FsmEvent.RCV_TERM_REQ): Transition("_act_term_req", (FsmState.CLOSED,)),
    (FsmState.OPENED, FsmEvent.RCV_TERM_ACK): Transition("_act_ignore", (FsmState.OPENED,)),
    (FsmState.OPENED, FsmEvent.RCV_ECHO_REQ): Transition("_act_echo_reply", (FsmState.OPENED,)),
    (FsmState.OPENED, FsmEvent.RCV_ECHO_REP): Transition("_act_ignore", (FsmState.OPENED,)),
    (FsmState.OPENED, FsmEvent.RCV_UNKNOWN): Transition("_act_ignore", (FsmState.OPENED,)),
    # -- CLOSING: our Terminate-Request is out; waiting for the ack.
    (FsmState.CLOSING, FsmEvent.OPEN): Transition("_act_ignore", (FsmState.CLOSING,)),
    (FsmState.CLOSING, FsmEvent.CLOSE): Transition("_act_close", (FsmState.CLOSING,)),
    (FsmState.CLOSING, FsmEvent.ABORT): Transition("_act_abort", (FsmState.CLOSED,)),
    (FsmState.CLOSING, FsmEvent.TIMEOUT): Transition(
        "_act_timeout_terminate", (FsmState.CLOSING, FsmState.CLOSED)
    ),
    (FsmState.CLOSING, FsmEvent.RCV_CONF_REQ): Transition("_act_ignore", (FsmState.CLOSING,)),
    (FsmState.CLOSING, FsmEvent.RCV_CONF_ACK): Transition("_act_ignore", (FsmState.CLOSING,)),
    (FsmState.CLOSING, FsmEvent.RCV_CONF_NAK): Transition("_act_ignore", (FsmState.CLOSING,)),
    (FsmState.CLOSING, FsmEvent.RCV_TERM_REQ): Transition("_act_term_req", (FsmState.CLOSED,)),
    (FsmState.CLOSING, FsmEvent.RCV_TERM_ACK): Transition("_act_term_ack", (FsmState.CLOSED,)),
    (FsmState.CLOSING, FsmEvent.RCV_ECHO_REQ): Transition("_act_ignore", (FsmState.CLOSING,)),
    (FsmState.CLOSING, FsmEvent.RCV_ECHO_REP): Transition("_act_ignore", (FsmState.CLOSING,)),
    (FsmState.CLOSING, FsmEvent.RCV_UNKNOWN): Transition("_act_ignore", (FsmState.CLOSING,)),
}

#: Packet code → receive event.  Codes outside the map (Configure-
#: Reject, Code-Reject, ...) classify as RCV_UNKNOWN and are ignored
#: in every state, which is the pre-table behaviour.
_CODE_EVENTS: Dict[int, FsmEvent] = {
    CONF_REQ: FsmEvent.RCV_CONF_REQ,
    CONF_ACK: FsmEvent.RCV_CONF_ACK,
    CONF_NAK: FsmEvent.RCV_CONF_NAK,
    TERM_REQ: FsmEvent.RCV_TERM_REQ,
    TERM_ACK: FsmEvent.RCV_TERM_ACK,
    ECHO_REQ: FsmEvent.RCV_ECHO_REQ,
    ECHO_REP: FsmEvent.RCV_ECHO_REP,
}


class NegotiationFsm:
    """One side of an LCP/IPCP negotiation."""

    #: protocol name for diagnostics ("LCP"/"IPCP").
    protocol_name = "control"

    def __init__(
        self,
        sim: Simulator,
        send_packet: Callable[[ControlPacket], None],
        on_up: Optional[Callable[[], None]] = None,
        on_down: Optional[Callable[[str], None]] = None,
        on_fail: Optional[Callable[[str], None]] = None,
        max_configure: int = MAX_CONFIGURE,
    ) -> None:
        self.sim = sim
        self.send_packet = send_packet
        self.on_up = on_up
        self.on_down = on_down
        self.on_fail = on_fail
        self.max_configure = max_configure
        self.state = INITIAL_STATE
        self.options: Dict[str, Any] = {}
        #: the peer's options as acknowledged by us.
        self.peer_options: Dict[str, Any] = {}
        self._next_id = 1
        self._current_id: Optional[int] = None
        self._restart_counter = 0
        self._terminate_counter = 0
        self._timer: Optional[Event] = None
        self._nego_span: Optional[Any] = None
        # Trace/metric names built once here: hot paths must pass static
        # names (metric-name lint rule), and the vocabulary is fixed by
        # the subclass ("LCP"/"IPCP").
        proto = self.protocol_name.lower()
        self._state_event_name = "ppp." + proto + ".state"
        self._transitions_counter_name = "ppp." + proto + ".transitions"
        self._nego_span_name = "ppp." + proto + ".negotiation"
        self._timeout_event_name = "ppp." + proto + ".timeout"
        self._retransmits_counter_name = "ppp." + proto + ".retransmits"

    # -- observability -------------------------------------------------

    def _set_state(self, new_state: FsmState, reason: str = "") -> None:
        """Move the automaton, emitting the transition on the trace bus."""
        old_state = self.state
        self.state = new_state
        if old_state is new_state:
            return
        trace = self.sim.trace
        if trace is not None:
            trace.emit(
                self._state_event_name,
                kind="transition",
                old=old_state.value,
                new=new_state.value,
                reason=reason,
            )
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter(self._transitions_counter_name).inc()

    def _begin_nego_span(self) -> None:
        trace = self.sim.trace
        if trace is not None:
            self._nego_span = trace.span(self._nego_span_name)

    def _end_nego_span(self, status: str, reason: str = "") -> None:
        span, self._nego_span = self._nego_span, None
        if span is not None:
            if status == "ok":
                span.end()
            else:
                span.fail(reason)

    # -- option policy hooks -------------------------------------------

    def initial_options(self) -> Dict[str, Any]:
        """Options for our first Configure-Request."""
        return {}

    def check_peer_options(
        self, options: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """Judge the peer's Configure-Request.

        Returns ``(CONF_ACK, options)`` to accept or
        ``(CONF_NAK, suggested)`` to push back.
        """
        return CONF_ACK, options

    def on_nak(self, suggested: Dict[str, Any]) -> None:
        """Fold the peer's Configure-Nak suggestions into our options."""
        self.options.update(suggested)

    # -- public controls ------------------------------------------------

    @property
    def is_open(self) -> bool:
        """True once both sides acknowledged each other."""
        return self.state == FsmState.OPENED

    def open(self) -> None:
        """Start negotiating (administrative Open + link Up)."""
        self._dispatch(FsmEvent.OPEN)

    def close(self, reason: str = "administrative close") -> None:
        """Tear the protocol down with Terminate-Request."""
        self._dispatch(FsmEvent.CLOSE, reason)

    def abort(self, reason: str = "lower layer down") -> None:
        """Hard stop without Terminate exchange (carrier lost)."""
        self._dispatch(FsmEvent.ABORT, reason)

    # -- packet input -----------------------------------------------------

    def receive(self, packet: ControlPacket) -> None:
        """Feed one received LCP/IPCP packet into the automaton."""
        event = _CODE_EVENTS.get(packet.code, FsmEvent.RCV_UNKNOWN)
        if event in (FsmEvent.RCV_CONF_ACK, FsmEvent.RCV_CONF_NAK):
            if packet.identifier != self._current_id:
                return  # stale ack/nak for a request we no longer own
        self._dispatch(event, packet)

    # -- dispatch ---------------------------------------------------------

    def _dispatch(self, event: FsmEvent, *args: Any) -> None:
        """Run the declared action for (state, event) and check the landing.

        The assert is the runtime mirror of the table check in
        ``tests/lint/test_rules.py``: an action may only leave the
        automaton in a state the table declared for its cell.
        """
        transition = TRANSITIONS[(self.state, event)]
        getattr(self, transition.action)(*args)
        assert self.state in transition.targets, (
            f"{self.protocol_name}: action {transition.action} left state "
            f"{self.state} not in declared {transition.targets}"
        )

    # -- actions ---------------------------------------------------------

    def _act_ignore(self, *_args: Any) -> None:
        """The event is a no-op in this state."""

    def _act_open(self) -> None:
        self.options = self.initial_options()
        self._restart_counter = self.max_configure
        self._begin_nego_span()
        self._send_configure_request()
        self._set_state(FsmState.REQ_SENT, "open")

    def _act_close(self, reason: str) -> None:
        was_open = self.state == FsmState.OPENED
        self._set_state(FsmState.CLOSING, reason)
        self._end_nego_span("error", reason)
        self._terminate_counter = MAX_TERMINATE
        self._send_terminate_request()
        if was_open and self.on_down is not None:
            self.on_down(reason)

    def _act_abort(self, reason: str) -> None:
        was_open = self.state == FsmState.OPENED
        self._cancel_timer()
        self._set_state(FsmState.CLOSED, reason)
        self._end_nego_span("error", reason)
        if was_open and self.on_down is not None:
            self.on_down(reason)

    def _ack_peer(self, packet: ControlPacket) -> None:
        """Accept the peer's Configure-Request: record and echo it back."""
        self.peer_options = dict(packet.options)
        self.send_packet(ControlPacket(CONF_ACK, packet.identifier, packet.options))

    def _act_conf_req_req_sent(self, packet: ControlPacket) -> None:
        verdict, options = self.check_peer_options(dict(packet.options))
        if verdict == CONF_ACK:
            self._ack_peer(packet)
            self._set_state(FsmState.ACK_SENT, "peer request acked")
        else:
            self.send_packet(ControlPacket(CONF_NAK, packet.identifier, options))

    def _act_conf_req_ack_sent(self, packet: ControlPacket) -> None:
        verdict, options = self.check_peer_options(dict(packet.options))
        if verdict == CONF_ACK:
            self._ack_peer(packet)
        else:
            self.send_packet(ControlPacket(CONF_NAK, packet.identifier, options))
            self._set_state(FsmState.REQ_SENT, "peer request naked")

    def _act_conf_req_ack_rcvd(self, packet: ControlPacket) -> None:
        verdict, options = self.check_peer_options(dict(packet.options))
        if verdict == CONF_ACK:
            self._ack_peer(packet)
            self._enter_opened()
        else:
            self.send_packet(ControlPacket(CONF_NAK, packet.identifier, options))

    def _act_conf_req_opened(self, packet: ControlPacket) -> None:
        verdict, options = self.check_peer_options(dict(packet.options))
        if verdict == CONF_ACK:
            # Renegotiation (RFC 1661 Opened+RCR: tld, scr, sca): the
            # data phase ends *now* — on_down must fire so the upper
            # layer releases its interface — and resumes only when
            # both sides re-ack.  The scr MUST go out before the sca
            # (pppd's fsm.c does the same): the peer has to see our
            # Configure-Request while it is still in Ack-Sent, not
            # after our Ack re-opened it, or two crossing
            # renegotiations knock each other out of Opened forever.
            if self.on_down is not None:
                self.on_down("renegotiation")
            self._restart_counter = self.max_configure
            self._begin_nego_span()
            self._send_configure_request()
            self._ack_peer(packet)
            self._set_state(FsmState.ACK_SENT, "renegotiation")
        else:
            self.send_packet(ControlPacket(CONF_NAK, packet.identifier, options))

    def _act_conf_ack_req_sent(self, packet: ControlPacket) -> None:
        self._set_state(FsmState.ACK_RCVD, "our request acked")

    def _act_conf_ack_ack_sent(self, packet: ControlPacket) -> None:
        self._enter_opened()

    def _act_conf_nak_resend(self, packet: ControlPacket) -> None:
        self.on_nak(dict(packet.options))
        self._send_configure_request()

    def _act_conf_nak_back_to_req_sent(self, packet: ControlPacket) -> None:
        self.on_nak(dict(packet.options))
        self._send_configure_request()
        self._set_state(FsmState.REQ_SENT, "our request naked")

    def _act_term_req(self, packet: ControlPacket) -> None:
        self.send_packet(ControlPacket(TERM_ACK, packet.identifier))
        was_open = self.state == FsmState.OPENED
        self._cancel_timer()
        self._set_state(FsmState.CLOSED, "peer terminated")
        self._end_nego_span("error", "peer terminated")
        if was_open and self.on_down is not None:
            self.on_down("peer terminated")

    def _act_term_ack(self, packet: ControlPacket) -> None:
        self._cancel_timer()
        self._set_state(FsmState.CLOSED, "terminate acked")

    def _act_echo_reply(self, packet: ControlPacket) -> None:
        self.send_packet(ControlPacket(ECHO_REP, packet.identifier, packet.options))

    def _act_timeout_configure(self) -> None:
        self._restart_counter -= 1
        if self._restart_counter <= 0:
            self._set_state(FsmState.CLOSED, "negotiation timed out")
            self._end_nego_span("error", "negotiation timed out")
            trace = self.sim.trace
            if trace is not None:
                trace.error(
                    self._timeout_event_name,
                    protocol=self.protocol_name,
                )
            if self.on_fail is not None:
                self.on_fail(f"{self.protocol_name}: negotiation timed out")
            return
        self._send_configure_request()
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter(self._retransmits_counter_name).inc()

    def _act_timeout_terminate(self) -> None:
        self._terminate_counter -= 1
        if self._terminate_counter <= 0:
            self._set_state(FsmState.CLOSED, "terminate retries exhausted")
            return
        self._send_terminate_request()

    def _enter_opened(self) -> None:
        self._cancel_timer()
        self._set_state(FsmState.OPENED, "both sides acked")
        self._end_nego_span("ok")
        if self.on_up is not None:
            self.on_up()

    # -- transmission and timers -------------------------------------------

    def _send_configure_request(self) -> None:
        self._current_id = self._next_id
        self._next_id += 1
        self.send_packet(ControlPacket(CONF_REQ, self._current_id, self.options))
        self._arm_timer()

    def _send_terminate_request(self) -> None:
        self.send_packet(ControlPacket(TERM_REQ, self._next_id))
        self._next_id += 1
        self._arm_timer()

    def _arm_timer(self) -> None:
        self._cancel_timer()
        self._timer = self.sim.schedule(RESTART_INTERVAL, self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_timeout(self) -> None:
        self._timer = None
        self._dispatch(FsmEvent.TIMEOUT)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.protocol_name}-fsm {self.state.value}>"
