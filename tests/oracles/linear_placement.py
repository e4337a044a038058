"""The linear placement reference: every bin scanned per replica.

``_place_replicas`` and the three strategies' ``choose`` closures are
``repro/sla/placement.py``'s ``use_index=False`` path before it left
``src/``, verbatim; production answers the same queries from its
headroom index (:class:`repro.sla.placement.PlacementIndex`).
``tests/property/test_placement_index_property.py`` holds production's
``first_fit`` / ``best_fit`` / ``worst_fit`` to these: identical
assignments, bin mutations, fresh machines and errors.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.errors import SlaViolationError
from repro.sla.placement import DatabaseLoad, MachineBin, Placement


def _place_replicas(db: DatabaseLoad, bins: List[MachineBin],
                    choose: Callable[[DatabaseLoad, List[MachineBin]],
                                     Optional[MachineBin]],
                    new_bin: Optional[Callable[[], MachineBin]],
                    placement: Placement) -> None:
    """Algorithm 2 (linear reference): each replica on a distinct machine.

    Falls back to a fresh machine from the free pool for every replica
    that fits nowhere (lines 12-14 of the paper's listing).
    """
    chosen: List[MachineBin] = []
    for _ in range(db.replicas):
        candidates = [b for b in bins
                      if b not in chosen and b.can_fit(db.requirement)]
        machine = choose(db, candidates)
        if machine is None:
            if new_bin is None:
                raise SlaViolationError(
                    f"no machine fits a replica of {db.name} and the free "
                    f"pool is exhausted")
            machine = new_bin()
            if not machine.can_fit(db.requirement):
                raise SlaViolationError(
                    f"replica of {db.name} exceeds a whole machine")
            bins.append(machine)
            placement.machines_added += 1
        machine.place(db)
        chosen.append(machine)
    placement.assignments[db.name] = [b.name for b in chosen]


def _pack(databases: Sequence[DatabaseLoad], bins: List[MachineBin],
          choose: Callable, new_bin: Optional[Callable[[], MachineBin]]
          ) -> Placement:
    placement = Placement(bins=bins)
    for db in databases:
        _place_replicas(db, bins, choose, new_bin, placement)
    return placement


def first_fit(databases: Sequence[DatabaseLoad],
              bins: Optional[List[MachineBin]] = None,
              new_bin: Optional[Callable[[], MachineBin]] = None
              ) -> Placement:
    def choose(db, candidates):
        return candidates[0] if candidates else None
    return _pack(databases, list(bins or []), choose, new_bin)


def best_fit(databases: Sequence[DatabaseLoad],
             bins: Optional[List[MachineBin]] = None,
             new_bin: Optional[Callable[[], MachineBin]] = None
             ) -> Placement:
    def choose(db, candidates):
        if not candidates:
            return None
        return min(candidates,
                   key=lambda b: (b.headroom() - db.requirement)
                   .dominant_fraction(b.capacity))
    return _pack(databases, list(bins or []), choose, new_bin)


def worst_fit(databases: Sequence[DatabaseLoad],
              bins: Optional[List[MachineBin]] = None,
              new_bin: Optional[Callable[[], MachineBin]] = None
              ) -> Placement:
    def choose(db, candidates):
        if not candidates:
            return None
        return max(candidates,
                   key=lambda b: b.headroom().dominant_fraction(b.capacity))
    return _pack(databases, list(bins or []), choose, new_bin)
