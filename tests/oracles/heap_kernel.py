# Reference kernel for differential tests: ``src/repro/sim/core.py`` as it
# stood before the ready queue and droppable timers (PR 13), verbatim below
# this comment. One heap keyed ``(time, eid)``; every scheduled event is
# pushed, popped and dispatched. ``src/`` never imports this module;
# ``tests/property/test_kernel_order_property.py`` runs the same programs
# on both kernels and requires the same observations in the same order.
"""Core discrete-event simulation primitives.

The model follows the classic event-loop + generator-process design:

* :class:`Simulator` owns the clock and a priority queue of scheduled events.
* :class:`Event` is a one-shot occurrence that processes can wait on. An
  event either *succeeds* with a value or *fails* with an exception.
* :class:`Process` wraps a generator. Each ``yield`` hands the simulator an
  event to wait on; when that event triggers, the process resumes (or the
  event's exception is thrown into the generator if it failed).
* :class:`Timeout` is an event that triggers after a fixed delay.
* :class:`AnyOf` / :class:`AllOf` compose events (used by the cluster
  controller's aggressive / conservative write-ack policies).

Determinism: ties in the event queue are broken by insertion order, so a
run is exactly reproducible for a given seed and program.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the interrupting party's payload (for
    example a machine-failure record).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel: an event value that has not been set yet.
_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    Events start *untriggered*. Calling :meth:`succeed` or :meth:`fail`
    triggers them, which schedules their callbacks to run at the current
    simulation time. A process waits on an event by yielding it.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        # Set to True by a waiter that handles failures itself (e.g. AnyOf);
        # prevents "unhandled failed event" errors.
        self.defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` thrown into them.
        """
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback is scheduled
        to run at the current simulation time (not synchronously — this
        keeps long chains of completed events from recursing).
        """
        if self.callbacks is None:
            self.sim._call_soon(callback, self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that succeeds ``delay`` time units after creation."""

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, delay=delay)

    # Cancelled and not waited on since: dispatched to nobody, and not a
    # firing a condition that still lists the timer may report.
    _cancelled = False

    def cancel(self) -> None:
        # Not in the pre-PR-13 kernel: the reference meaning of the public
        # drop PR 20 added. Every waiter is detached; the entry stays in
        # the heap and is dispatched to nobody.
        if self.callbacks is not None:
            self.callbacks.clear()
            self._cancelled = True

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        self._cancelled = False
        super().add_callback(callback)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process itself is an event that triggers when the generator
    terminates: it succeeds with the generator's return value, or fails
    with the uncaught exception that killed it.
    """

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "throw"):
            raise SimulationError("process requires a generator")
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._target: Optional[Event] = None
        # Kick-start: resume the generator at the current time.
        init = Event(sim)
        init._ok = True
        init._value = None
        init.add_callback(self._resume)
        sim._schedule(init)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is a no-op; interrupting a process
        blocked on an event cancels that wait.
        """
        if not self.is_alive:
            return
        event = Event(self.sim)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        event.add_callback(self._resume)
        self.sim._schedule(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the triggered event's outcome."""
        if not self.is_alive:
            return
        # Detach from the event we were waiting on (it may differ from
        # `event` if this resume is an interrupt).
        if self._target is not None and self._target is not event:
            try:
                self._target.callbacks.remove(self._resume)
            except (ValueError, AttributeError):
                pass
        self._target = None

        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event.defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            self.sim._schedule(self)
            return
        except Interrupt as exc:
            # An unhandled interrupt terminates the process quietly with
            # the interrupt as its failure value.
            self._ok = False
            self._value = exc
            self.defused = True
            self.sim._schedule(self)
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            self.sim._schedule(self)
            return

        if not isinstance(target, Event):
            kill = SimulationError(
                f"process {self.name!r} yielded a non-event: {target!r}"
            )
            self._ok = False
            self._value = kill
            self.sim._schedule(self)
            return
        if target.sim is not self.sim:
            raise SimulationError("cannot wait on an event from another simulator")
        self._target = target
        target.add_callback(self._resume)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        # Number of member events whose callbacks have not yet run. We
        # count processed events rather than inspecting ``triggered``
        # because a Timeout is born triggered but only *processed* when the
        # clock reaches it.
        self._pending = len(self.events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("all events must share one simulator")
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict:
        return {
            ev: ev._value
            for ev in self.events
            if ev.processed and ev._ok
            and not getattr(ev, "_cancelled", False)
        }


class AnyOf(_Condition):
    """Succeeds when the first of its events succeeds.

    If an event fails before any succeeds, the condition fails with that
    event's exception (remaining failures are defused).
    """

    def _check(self, event: Event) -> None:
        self._pending -= 1
        if not event._ok:
            event.defused = True
        if self.triggered:
            return
        if event._ok:
            self.succeed(self._collect())
        else:
            self.fail(event._value)


class AllOf(_Condition):
    """Succeeds when all of its events have succeeded.

    Fails fast with the first failure (remaining failures are defused).
    """

    def _check(self, event: Event) -> None:
        self._pending -= 1
        if not event._ok:
            event.defused = True
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        if self._pending == 0:
            self.succeed(self._collect())


class Simulator:
    """The discrete-event engine: clock plus scheduled-event queue."""

    def __init__(self):
        self.now: float = 0.0
        self._queue: list = []
        self._eid = 0
        # Deferred callbacks on already-processed events; drained before
        # the next scheduled event, preserving FIFO order.
        self._soon: deque = deque()

    # -- construction helpers ------------------------------------------------

    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a new process starting now."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._eid += 1
        heapq.heappush(self._queue, (self.now + delay, self._eid, event))

    def _call_soon(self, callback: Callable[[Event], None],
                   event: Event) -> None:
        self._soon.append((callback, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf when idle."""
        if self._soon:
            return self.now
        return self._queue[0][0] if self._queue else float("inf")

    @property
    def _has_work(self) -> bool:
        return bool(self._queue) or bool(self._soon)

    def step(self) -> None:
        """Process one deferred callback or one scheduled event."""
        if self._soon:
            callback, event = self._soon.popleft()
            callback(event)
            return
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        when, _, event = heapq.heappop(self._queue)
        self.now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or the clock reaches ``until``."""
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past")
        while self._has_work:
            if until is not None and self.peek() > until:
                self.now = until
                return
            self.step()
        if until is not None:
            self.now = until

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: run ``generator`` to completion and return its value.

        Raises the process's exception if it failed. Other concurrently
        scheduled work keeps running while the target process is alive.
        """
        proc = self.process(generator, name=name)
        while proc.is_alive and self._has_work:
            self.step()
        if proc.is_alive:
            raise SimulationError(f"process {proc.name!r} starved (deadlock?)")
        if not proc.ok:
            proc.defused = True
            raise proc.value
        return proc.value
