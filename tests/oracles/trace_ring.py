"""Reference trace ring: ``Tracer`` of ``repro/analysis/trace.py`` as it
was while the ring stored event objects, verbatim.

Every ``emit`` builds a :class:`~repro.analysis.trace.TraceEvent` (with
its ``**extra`` dict and a counter-assigned ``seq``) and stores the
object in the ring; ``events()`` filters the stored objects.
``tests/property/test_trace_ring_property.py`` drives it and the
production ring, which stores flat records and builds events on read,
with one emission script and requires the same events, length, dropped
count and JSONL bytes.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Callable, List, Optional, TextIO, Union

from repro.analysis.trace import TraceEvent


class Tracer:
    """Ring-buffered event trace shared by one cluster's components.

    The buffer holds the most recent ``capacity`` events; older ones are
    dropped (counted in :attr:`dropped`) so long soaks cannot exhaust
    memory. The invariant checker weakens cross-event rules when a trace
    is truncated.
    """

    def __init__(self, capacity: int = 65536,
                 clock: Optional[Callable[[], float]] = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self.clock = clock or (lambda: 0.0)
        self._events: List[TraceEvent] = []
        self._start = 0          # ring head index into _events
        self._seq = itertools.count()
        self.dropped = 0

    # -- recording -----------------------------------------------------------

    def emit(self, kind: str, db: Optional[str] = None,
             txn: Optional[int] = None, machine: Optional[str] = None,
             **extra: Any) -> TraceEvent:
        event = TraceEvent(seq=next(self._seq), t=self.clock(), kind=kind,
                           db=db, txn=txn, machine=machine, extra=extra)
        if len(self._events) < self.capacity:
            self._events.append(event)
        else:
            # Overwrite the oldest slot; the ring never reallocates.
            self._events[self._start] = event
            self._start = (self._start + 1) % self.capacity
            self.dropped += 1
        return event

    # -- reading -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def events(self, kind: Optional[str] = None, db: Optional[str] = None,
               txn: Optional[int] = None,
               machine: Optional[str] = None) -> List[TraceEvent]:
        """Events in emission order, optionally filtered."""
        ordered = (self._events[self._start:] + self._events[:self._start]
                   if self.dropped else list(self._events))
        return [e for e in ordered
                if (kind is None or e.kind == kind)
                and (db is None or e.db == db)
                and (txn is None or e.txn == txn)
                and (machine is None or e.machine == machine)]

    # -- JSONL export / import -------------------------------------------------

    def dump_jsonl(self, target: Union[str, TextIO]) -> int:
        """Write the trace as JSON Lines; returns the event count.

        The first line is a ``trace_dump`` header carrying the ring's
        capacity and dropped-event count, so consumers of a truncated
        trace know it is truncated.
        """
        events = self.events()
        header = {"kind": "trace_dump", "events": len(events),
                  "capacity": self.capacity, "dropped": self.dropped}

        def write_all(fh: TextIO) -> None:
            fh.write(json.dumps(header) + "\n")
            for event in events:
                fh.write(json.dumps(event.to_dict()) + "\n")

        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as fh:
                write_all(fh)
        else:
            write_all(target)
        return len(events)
