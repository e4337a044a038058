"""Shared simulated resources: FIFO servers and message stores.

:class:`Resource` models a server with ``capacity`` parallel slots (CPU
cores, disk spindles, connection pools). :class:`Store` is an unbounded
FIFO mailbox used for controller message queues.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.core import Event, SimulationError, Simulator


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "granted_at")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        self.granted_at: float = -1.0


class Resource:
    """A FIFO resource with a fixed number of slots.

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release(req)
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.users: list = []
        self.queue: Deque[Request] = deque()
        # Total slot-seconds of granted service, for utilization profiling.
        self.busy_time: float = 0.0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of capacity busy over ``elapsed`` sim-seconds.

        Counts only *completed* holds; call after quiescing or treat as a
        slight underestimate while work is in flight.
        """
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (self.capacity * elapsed))

    def request(self) -> Request:
        """Claim a slot; the returned event succeeds once granted."""
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.granted_at = self.sim.now
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def release(self, req: Request) -> None:
        """Return a previously granted slot (or cancel a queued request)."""
        if req in self.users:
            self.users.remove(req)
            if req.granted_at >= 0:
                self.busy_time += self.sim.now - req.granted_at
            while self.queue and len(self.users) < self.capacity:
                nxt = self.queue.popleft()
                self.users.append(nxt)
                nxt.granted_at = self.sim.now
                nxt.succeed()
        else:
            try:
                self.queue.remove(req)
            except ValueError:
                pass

    def use(self, duration: float):
        """Process helper: hold one slot for ``duration`` sim-time units."""
        req = self.request()
        yield req
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release(req)


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    Getters are served in arrival order; items are delivered in put order.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """Return an event that succeeds with the next item."""
        event = Event(self.sim)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self.items)
