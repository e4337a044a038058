"""Core discrete-event simulation primitives.

The model follows the classic event-loop + generator-process design:

* :class:`Simulator` owns the clock and the schedule of pending events.
* :class:`Event` is a one-shot occurrence that processes can wait on. An
  event either *succeeds* with a value or *fails* with an exception.
* :class:`Process` wraps a generator. Each ``yield`` hands the simulator an
  event to wait on; when that event triggers, the process resumes (or the
  event's exception is thrown into the generator if it failed).
* :class:`Timeout` is an event that triggers after a fixed delay.
* :class:`AnyOf` / :class:`AllOf` compose events: a lock wait racing its
  timeout, a Paxos proposal racing its retry timer. Nothing in the cluster
  waits on an ``AllOf`` (the coordinator's broadcasts count down in
  ``controller._Gather``); it is kernel API, held to the heap oracle.

Determinism: events are dispatched in ``(time, scheduling order)`` order,
so a run is exactly reproducible for a given seed and program.

The schedule
------------

That order is the order of a single heap keyed ``(time, eid)`` with
``eid`` a counter bumped on every scheduling (the reference kernel the
differential tests compare against is exactly that heap). Here it is kept
in two structures, because most events are scheduled for *now*:

* ``_ready`` — a FIFO of everything scheduled for the current instant
  (``succeed``/``fail``, process start and end, interrupts, a timeout whose
  ``now + delay == now``);
* ``_heap`` — ``(when, eid, timeout)`` entries with ``when > now``.

:meth:`Simulator.step` runs deferred callbacks first, then heap entries
that are due (``when <= now``), then the FIFO, and only then pops the heap
to advance the clock. This is the ``(time, eid)`` order: a heap entry due
at ``now`` was pushed while the clock was still earlier (it needed
``when > now`` to get into the heap), so its ``eid`` is smaller than that of
anything scheduled since the clock arrived at ``now`` — and those later
ones are exactly the FIFO's content, in ``eid`` order. A positive delay too
small to move the float clock therefore belongs to the FIFO: in the heap
it would be "already due" and overtake everything queued before it.

Dropped timers
--------------

A heap :class:`Timeout` that can no longer matter is *dropped*: never
dispatched, never advancing the clock, invisible to ``peek()``, ``run()``
and ``pending``. Two places drop, and only when the timer has no other
waiter: an :class:`AnyOf` that triggers drops its losing timers, and an
interrupted process drops the timer it was blocked on; a timer's owner
asks for the same with :meth:`Timeout.cancel`. Dispatching such a
timer would run ``AnyOf._check`` on a condition that already triggered
(a counter decrement) or nothing at all, so leaving it out reorders
nothing. Dropped entries leave the heap lazily — discarded when they reach
the top, and swept by an in-place compaction once they outnumber the live
entries — so the schedule stays proportional to the work in flight.
Waiting on a dropped timer again brings it back at its original
``(when, eid)`` position (or finds it processed, if that position is
behind the clock), exactly as if it had never left.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
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

_INF = float("inf")

# Timeout._dropped states: on the schedule, dropped with its entry still in
# the heap, dropped with its entry gone.
_LIVE, _DROPPED, _EVICTED = 0, 1, 2

# Dropped heap entries tolerated before compaction is considered at all.
_COMPACT_FLOOR = 64


class Event:
    """A one-shot occurrence in simulated time.

    Events start *untriggered*. Calling :meth:`succeed` or :meth:`fail`
    triggers them, which schedules their callbacks to run at the current
    simulation time. A process waits on an event by yielding it.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "defused")

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
        if self._value is _PENDING:
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
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.sim._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` thrown into them.
        """
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._ready.append(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback is scheduled
        to run at the current simulation time (not synchronously — this
        keeps long chains of completed events from recursing).
        """
        if self.callbacks is None:
            self.sim._soon.append((callback, self))
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that succeeds ``delay`` time units after creation."""

    __slots__ = ("delay", "_when", "_eid", "_dropped")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Event's fields set here, not through Event.__init__: the three
        # subclasses are built some 130 times per transaction, and the
        # extra call is a tenth of the kernel's time on an RPC.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.delay = delay
        self._dropped = _LIVE
        self._when = when = sim.now + delay
        if when > sim.now:
            sim._eid = self._eid = eid = sim._eid + 1
            heappush(sim._heap, (when, eid, self))
        else:
            # Due this instant (zero delay, or one too small to move the
            # clock): queued behind what is already ready, never dropped.
            self._eid = 0
            sim._ready.append(self)

    @property
    def processed(self) -> bool:
        """As :attr:`Event.processed`; a dropped timer counts from the
        moment it would have been dispatched."""
        return self.callbacks is None or (
            self._dropped == _EVICTED and self.sim._passed(self))

    def add_callback(self, callback: Callable[[Event], None]) -> None:
        if self._dropped:
            self.sim._revive(self)
        Event.add_callback(self, callback)

    def cancel(self) -> None:
        """Detach every waiter; a timer still in the heap is dropped.

        For the owner of a timer that lost its race (an RPC deadline whose
        reply arrived). Waiting on it again brings it back, as for any
        dropped timer.
        """
        if self.callbacks is not None and not self._dropped:
            self.callbacks.clear()
            if self._eid:
                self.sim._drop(self)


# What a starting process is resumed with: a bare successful event.
_START = Event.__new__(Event)
_START._ok = True
_START._value = None


class Process(Event):
    """A running simulation process wrapping a generator.

    The process itself is an event that triggers when the generator
    terminates: it succeeds with the generator's return value, or fails
    with the uncaught exception that killed it.
    """

    __slots__ = ("name", "_generator", "_target")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError("process requires a generator")
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._target: Optional[Event] = None
        # Kick-start: a ready entry whose value is still pending can only
        # be a process that has not begun; step() resumes it.
        sim._ready.append(self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is a no-op; interrupting a process
        blocked on an event cancels that wait.
        """
        if self._value is not _PENDING:
            return
        event = Event(self.sim)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        event.callbacks.append(self._resume)
        self.sim._ready.append(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the triggered event's outcome."""
        if self._value is not _PENDING:
            return
        # Detach from the event we were waiting on (it may differ from
        # `event` if this resume is an interrupt).
        waited = self._target
        if waited is not None and waited is not event:
            callbacks = waited.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._resume)
                except ValueError:
                    pass
                if (not callbacks and type(waited) is Timeout
                        and waited._eid and not waited._dropped):
                    # Its only waiter is gone.
                    self.sim._drop(waited)
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
        except Interrupt as exc:
            # An unhandled interrupt terminates the process quietly with
            # the interrupt as its failure value.
            self._ok = False
            self._value = exc
            self.defused = True
        except BaseException as exc:
            self._ok = False
            self._value = exc
        else:
            if isinstance(target, Event):
                if target.sim is not self.sim:
                    raise SimulationError(
                        "cannot wait on an event from another simulator")
                self._target = target
                target.add_callback(self._resume)
                return
            self._ok = False
            self._value = SimulationError(
                f"process {self.name!r} yielded a non-event: {target!r}"
            )
        self.sim._ready.append(self)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
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
        check = self._check
        for event in self.events:
            event.add_callback(check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict:
        return {
            ev: ev._value
            for ev in self.events
            if ev.callbacks is None and ev._ok
        }


class AnyOf(_Condition):
    """Succeeds when the first of its events succeeds.

    If an event fails before any succeeds, the condition fails with that
    event's exception (remaining failures are defused).
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        self._pending -= 1
        if not event._ok:
            event.defused = True
        if self._value is not _PENDING:
            return
        if event._ok:
            self.succeed(self._collect())
        else:
            self.fail(event._value)
        # The race is over: a losing timer that only this condition waits
        # on has nothing left to do (dropped after the result is collected,
        # so a dropped timer is never reported as fired).
        for loser in self.events:
            if type(loser) is Timeout and loser._eid:
                callbacks = loser.callbacks
                if (callbacks is not None and len(callbacks) == 1
                        and callbacks[0] == self._check):
                    callbacks.clear()
                    self.sim._drop(loser)


class AllOf(_Condition):
    """Succeeds when all of its events have succeeded.

    Fails fast with the first failure (remaining failures are defused).
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        self._pending -= 1
        if not event._ok:
            event.defused = True
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        if self._pending == 0:
            self.succeed(self._collect())


class Simulator:
    """The discrete-event engine: clock plus schedule (see module docstring)."""

    def __init__(self):
        self.now: float = 0.0
        # Everything scheduled for the current instant, in scheduling order.
        self._ready: deque = deque()
        # (when, eid, timeout) for when > now; may hold dropped timers.
        self._heap: list = []
        self._eid = 0
        self._dropped = 0
        # Position within the current instant: every heap entry due now
        # with a smaller eid has been dispatched (inf once the FIFO runs).
        self._cursor: float = 0
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

    # -- dropped timers ------------------------------------------------------

    def _drop(self, timer: Timeout) -> None:
        """Take a heap timer nobody waits on off the schedule."""
        timer._dropped = _DROPPED
        self._dropped += 1
        heap = self._heap
        if self._dropped > _COMPACT_FLOOR and self._dropped * 2 > len(heap):
            live = []
            for entry in heap:
                if entry[2]._dropped:
                    entry[2]._dropped = _EVICTED
                else:
                    live.append(entry)
            # In place: a step() in progress holds this very list. Any
            # valid heap pops unique (when, eid) keys in the same order.
            heap[:] = live
            heapify(heap)
            self._dropped = 0

    def _passed(self, timer: Timeout) -> bool:
        """Would the plain (time, eid) heap have dispatched ``timer`` by now?"""
        return timer._when < self.now or (
            timer._when == self.now and timer._eid < self._cursor)

    def _revive(self, timer: Timeout) -> None:
        """Somebody waits on a dropped timer again: undo the drop."""
        if timer._dropped == _DROPPED:
            # Entry still in the heap, hence (see _due) still ahead of us.
            self._dropped -= 1
        elif self._passed(timer):
            timer.callbacks = None
        else:
            heappush(self._heap, (timer._when, timer._eid, timer))
        timer._dropped = _LIVE

    def _due(self) -> float:
        """Time of the first live heap entry (inf if none).

        Dropped entries above it are discarded, so a dropped entry left in
        the heap always sits behind a live one: never in the clock's past.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2]._dropped:
                return entry[0]
            heappop(heap)
            entry[2]._dropped = _EVICTED
            self._dropped -= 1
        return _INF

    # -- scheduling ----------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf when idle."""
        if self._soon or self._ready:
            return self.now
        return self._due()

    @property
    def pending(self) -> int:
        """Scheduled work: live timers, ready events, deferred callbacks."""
        return (len(self._heap) - self._dropped
                + len(self._ready) + len(self._soon))

    def step(self) -> None:
        """Process one deferred callback or one scheduled event."""
        if self._soon:
            callback, event = self._soon.popleft()
            callback(event)
            return
        ready = self._ready
        heap = self._heap
        if heap and (not ready or heap[0][0] <= self.now):
            # A heap entry already due precedes the FIFO; with the FIFO
            # empty the first entry advances the clock.
            if heap[0][2]._dropped:
                self._due()     # discard the dropped top, then look again
                return self.step()
            self.now, self._cursor, event = heappop(heap)
        elif ready:
            event = ready.popleft()
            self._cursor = _INF
            if event._value is _PENDING:
                event._resume(_START)
                return
        else:
            raise SimulationError("step() on an empty schedule")
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or the clock reaches ``until``."""
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past")
        while True:
            when = self.peek()
            if when == _INF or (until is not None and when > until):
                break
            self.step()
        if until is not None:
            self.now = until
            self._cursor = _INF

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: run ``generator`` to completion and return its value.

        Raises the process's exception if it failed. Other concurrently
        scheduled work keeps running while the target process is alive.
        """
        proc = self.process(generator, name=name)
        while proc._value is _PENDING and self.pending:
            self.step()
        if proc._value is _PENDING:
            raise SimulationError(f"process {proc.name!r} starved (deadlock?)")
        if not proc._ok:
            proc.defused = True
            raise proc._value
        return proc._value
