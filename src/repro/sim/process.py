"""Generator-based processes on top of the event engine.

A *process* is a Python generator driven by the simulator.  Each
``yield`` suspends the process until some condition holds:

``yield 1.5``
    sleep for 1.5 simulated seconds (any ``int``/``float``);

``yield signal``
    block until ``signal.fire(value)`` is called; the ``yield``
    expression evaluates to ``value``;

``yield store.get()``
    block until an item is available in a :class:`Store` (FIFO);
    ``store.get(timeout=5.0)`` resumes with the :data:`TIMEOUT`
    sentinel instead if nothing arrives within 5 simulated seconds.

Processes can be interrupted with :meth:`Process.interrupt`, which
raises :class:`Interrupt` inside the generator at its current yield
point — the idiom used to tear down a PPP session or abort a dial
attempt mid-flight.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Union

from repro.sim.engine import Event, Simulator
from repro.sim.errors import SimulationError


class _Timeout:
    """Type of the :data:`TIMEOUT` sentinel."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<TIMEOUT>"


#: Value a timed :meth:`Store.get` resumes with when the deadline
#: passes before an item arrives.  Compare with ``is``.
TIMEOUT = _Timeout()


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    The ``cause`` attribute carries whatever object the interrupter
    passed, typically a short reason string.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Signal:
    """A one-to-many wake-up primitive.

    Processes block on a signal by yielding it; plain callbacks can
    subscribe with :meth:`wait`.  Firing wakes every current waiter
    with the fired value.  A signal can fire many times; each fire only
    wakes the waiters registered at that moment.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self._sim = sim
        self.name = name
        self._waiters: List[Callable[[Any], None]] = []
        self.fire_count = 0
        self.last_value: Any = None

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)`` to run on the next fire."""
        self._waiters.append(callback)

    def unwait(self, callback: Callable[[Any], None]) -> None:
        """Remove a previously registered callback if still pending."""
        try:
            self._waiters.remove(callback)
        except ValueError:
            pass

    def fire(self, value: Any = None) -> None:
        """Wake all current waiters at the present simulation instant."""
        self.fire_count += 1
        self.last_value = value
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            self._sim.post(0.0, callback, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Signal {self.name!r} waiters={len(self._waiters)} fires={self.fire_count}>"


class StoreGet:
    """Handle returned by a timed :meth:`Store.get`; yielded by a process."""

    def __init__(self, store: "Store", timeout: float) -> None:
        self.store = store
        self.timeout = timeout


class Store:
    """Unbounded FIFO channel between processes.

    ``put`` never blocks.  ``get`` returns a token the consumer yields
    on: the store itself, or a :class:`StoreGet` for a timed get.  The
    consumer resumes with the item as the value of the yield.  Used to
    model vsys FIFO pipes and serial lines.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self._sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Callable[[Any], None]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Append an item, waking the oldest blocked getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            self._sim.post(0.0, getter, item)
        else:
            self._items.append(item)

    def _remove_getter(self, callback: Callable[[Any], None]) -> None:
        try:
            self._getters.remove(callback)
        except ValueError:
            pass

    def _requeue(self, item: Any) -> None:
        """Put a popped-but-undelivered item back at the head (FIFO safe:
        only the head item can be in this state)."""
        self._items.appendleft(item)

    def get(self, timeout: Optional[float] = None) -> Union["Store", StoreGet]:
        """Return a token to yield on; resolves to the next item.

        With ``timeout`` the yield resumes with :data:`TIMEOUT` if no
        item arrives within that many simulated seconds.
        """
        return self if timeout is None else StoreGet(self, timeout)

    def get_nowait(self) -> Any:
        """Pop the next item immediately, or raise ``IndexError``."""
        return self._items.popleft()

    def waits_alone(self, reader: Optional["Process"]) -> bool:
        """Whether ``reader`` is the one process blocked (untimed) on
        this empty store: a put now would hand it the item, and nothing
        is queued ahead of it."""
        getters = self._getters
        return (
            len(getters) == 1
            and not self._items
            and reader is not None
            and getters[0] == reader._resume
        )

    def put_to(self, reader: Optional["Process"], item: Any) -> None:
        """:meth:`put`, except that a ``reader`` that :meth:`waits_alone`
        is resumed with ``item`` in the caller's dispatch instead of on
        a zero-delay event: the same simulated time, with nothing queued
        to overtake."""
        if self.waits_alone(reader):
            self._getters.popleft()(item)  # ``reader._resume``
        else:
            self.put(item)

    def _register_getter(self, callback: Callable[[Any], None]) -> None:
        if self._items:
            item = self._items.popleft()
            self._sim.post(0.0, callback, item)
        else:
            self._getters.append(callback)


class Process:
    """A running generator bound to a simulator.

    Create with :func:`spawn` or ``Process(sim, generator)``.  The
    process starts at the current instant (its first slice of work runs
    via a zero-delay event, so construction never re-enters user code).
    """

    def __init__(self, sim: Simulator, generator: Generator, name: str = "") -> None:
        self._sim = sim
        self._gen = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.alive = True
        self.value: Any = None
        self.done = Signal(sim, f"{self.name}.done")
        self._pending_event: Optional[Event] = None
        self._waiting_signal: Optional[Signal] = None
        self._signal_callback: Optional[Callable[[Any], None]] = None
        self._waiting_store: Optional[Store] = None
        self._store_callback: Optional[Callable[[Any], None]] = None
        self._sim.post(0.0, self._resume, None)

    @classmethod
    def returned(cls, sim: Simulator, value: Any, name: str = "") -> "Process":
        """A process that has already returned ``value``: nothing is
        scheduled, and a process yielding on it resumes with ``value``
        on one zero-delay event, as on any finished process."""
        process = cls.__new__(cls)
        process._sim = sim
        process.name = name
        process.alive = False
        process.value = value
        return process

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its yield point."""
        if not self.alive:
            return
        self._detach()
        self._sim.post(0.0, self._throw, Interrupt(cause))

    def _detach(self) -> None:
        """Forget whatever the process was waiting on.

        Crucially this includes store-getter registrations: a stale
        getter left behind by an interrupted process would silently
        swallow the next item put into the store.
        """
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if self._waiting_signal is not None and self._signal_callback is not None:
            self._waiting_signal.unwait(self._signal_callback)
        if self._waiting_store is not None:
            self._waiting_store._remove_getter(self._store_callback or self._resume)
            self._waiting_store = None
        self._waiting_signal = None
        self._signal_callback = None
        self._store_callback = None

    def _throw(self, exc: BaseException) -> None:
        if not self.alive:
            return
        try:
            self._wait_on(self._gen.throw(exc))
        except StopIteration as stop:
            self._finish(stop.value)
        except Interrupt:
            self._finish(None)
        except BaseException:
            self.alive = False  # crashed or bad yield; ``done`` never fires
            raise

    def _resume(self, value: Any) -> None:
        if not self.alive:
            return
        self._pending_event = None
        self._waiting_signal = None
        self._signal_callback = None
        self._waiting_store = None
        self._store_callback = None
        try:
            self._wait_on(self._gen.send(value))
        except StopIteration as stop:
            self._finish(stop.value)
        except BaseException:
            self.alive = False  # as in :meth:`_throw`
            raise

    def _finish(self, value: Any) -> None:
        self.alive = False
        self.value = value
        self.done.fire(value)

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, (int, float)):
            self._pending_event = self._sim.schedule(float(yielded), self._resume, None)
        elif isinstance(yielded, Signal):
            self._waiting_signal = yielded
            self._signal_callback = self._resume
            yielded.wait(self._resume)
        elif isinstance(yielded, Store):  # an untimed get
            self._waiting_store = yielded
            yielded._register_getter(self._resume)
        elif isinstance(yielded, StoreGet):
            self._wait_store(yielded)
        elif isinstance(yielded, Process):
            if yielded.alive:
                self._waiting_signal = yielded.done
                self._signal_callback = self._resume
                yielded.done.wait(self._resume)
            else:
                self._pending_event = self._sim.schedule(0.0, self._resume, yielded.value)
        else:
            raise SimulationError(f"process {self.name!r} yielded unsupported {yielded!r}")

    def _wait_store(self, token: StoreGet) -> None:
        """Block on a store, racing a timeout timer.

        Exactly one of the two closures settles the wait; the loser
        cleans up after itself (the timer is cancelled, or a same-instant
        delivery is requeued at the store head), so the process is never
        resumed twice.  An untimed wait needs neither: :meth:`_wait_on`
        registers :meth:`_resume` itself as the getter.
        """
        store = token.store
        settled = [False]

        def on_item(item: Any) -> None:
            if settled[0]:
                store._requeue(item)
                return
            settled[0] = True
            if self._pending_event is not None:
                self._pending_event.cancel()
                self._pending_event = None
            self._resume(item)

        def on_timeout() -> None:
            if settled[0]:
                return
            settled[0] = True
            self._pending_event = None
            store._remove_getter(on_item)
            self._resume(TIMEOUT)

        self._waiting_store = store
        self._store_callback = on_item
        store._register_getter(on_item)
        self._pending_event = self._sim.schedule(token.timeout, on_timeout)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"


def spawn(sim: Simulator, generator: Generator, name: str = "") -> Process:
    """Start a generator as a simulation process."""
    return Process(sim, generator, name=name)
