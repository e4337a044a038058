"""SLA-based placement: multi-dimensional bin packing (Section 4.2).

The online problem: given existing placements M and a new database with
``replicas`` copies each requiring resource vector r, extend the
placement without moving existing databases so every machine's load stays
within its capacity, minimizing machines used. This is multi-dimensional
bin packing (NP-hard); the paper uses First-Fit (Algorithm 2). Best-Fit
and Worst-Fit are provided as ablations, and :func:`repack` implements
the paper's future-work idea of reallocating everything from scratch.

Candidates come from a headroom index (:class:`PlacementIndex`) that
answers each query sub-linearly at 100k bins: first-fit descends a
segment tree over per-dimension maximum headrooms to the leftmost
fitting bin, best/worst-fit scan a list sorted by dominant-headroom
fraction with an early-termination bound. Its choices (same bins, same
tie-breaks) are those of a scan over every bin; the property suite pins
that equivalence against the linear reference in
``tests/oracles/linear_placement.py``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.errors import SlaViolationError
from repro.sla.model import ResourceVector

# Slack for the segment tree's per-dimension subtree bound. The leaf
# test is always the exact ``can_fit`` (1e-9 component tolerance); the
# subtree bound only prunes, so it must never be *tighter* than the
# leaf test under floating-point rearrangement — 1e-6 is comfortably
# looser while still pruning everything that matters.
_BOUND_SLACK = 1e-6


@dataclass
class DatabaseLoad:
    """One database's placement demand: a vector per replica."""

    name: str
    requirement: ResourceVector
    replicas: int = 1


@dataclass
class MachineBin:
    """A machine's capacity and the replicas currently packed on it.

    ``hosted_counts`` maps each database name to how many of its
    replicas this bin holds (normally one; multi-replica placements of
    the same database onto one bin keep a count instead of duplicate
    list entries). Iteration order is first-placement order, preserved
    for callers via the ``hosted`` view.
    """

    name: str
    capacity: ResourceVector
    used: ResourceVector = field(default_factory=ResourceVector)
    hosted_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def hosted(self) -> List[str]:
        """Hosted database names in first-placement order (a copy)."""
        return list(self.hosted_counts)

    def hosts(self, name: str) -> bool:
        return name in self.hosted_counts

    def can_fit(self, requirement: ResourceVector) -> bool:
        return (self.used + requirement).fits_within(self.capacity)

    def place(self, db: DatabaseLoad) -> None:
        if not self.can_fit(db.requirement):
            raise SlaViolationError(
                f"{db.name} does not fit on {self.name}")
        self.used = self.used + db.requirement
        self.hosted_counts[db.name] = self.hosted_counts.get(db.name, 0) + 1

    def headroom(self) -> ResourceVector:
        return self.capacity - self.used


@dataclass
class Placement:
    """Result of packing a set of databases."""

    bins: List[MachineBin]
    assignments: Dict[str, List[str]] = field(default_factory=dict)
    machines_added: int = 0

    @property
    def machines_used(self) -> int:
        return sum(1 for b in self.bins if b.hosted_counts)


def _dims(vector: ResourceVector):
    return (vector.cpu, vector.memory_mb, vector.disk_io_mbps,
            vector.disk_mb)


class PlacementIndex:
    """Headroom-indexed candidate selection over a shared bin list.

    Two structures over the same ``bins`` list:

    * a **segment tree** storing, per node, the component-wise maximum
      headroom of its leaf range. ``first_fit`` descends left-first,
      pruning subtrees whose maximum headroom cannot fit the
      requirement, and lands on the *leftmost* bin whose exact
      ``can_fit`` passes — the same bin the linear scan returns,
      in O(log bins) for the common case;
    * a list of ``(dominant_headroom_fraction, position)`` pairs kept
      sorted, where the fraction is exactly the reference strategies'
      ``headroom().dominant_fraction(capacity)`` key. ``best_fit``
      scans it ascending (tightest bins first) and stops once no later
      bin can beat the incumbent; ``worst_fit`` scans descending and
      stops at the first strict drop.

    The caller owns the ``bins`` list; every mutation of a bin's load
    must be reported through :meth:`update` (or :meth:`add_bin` for
    appends) to keep the index coherent.
    """

    def __init__(self, bins: List[MachineBin]):
        self.bins = bins
        n = max(1, len(bins))
        size = 1
        while size < n:
            size *= 2
        self._size = size
        # Per-node component-wise max headroom; leaves at [_size, 2*_size).
        self._tree: List[tuple] = [(0.0, 0.0, 0.0, 0.0)] * (2 * size)
        # Sorted (dominant-headroom-fraction, position) pairs plus each
        # bin's current key for O(log n) removal on update.
        self._dom_sorted: List[tuple] = []
        self._dom_key: List[float] = [0.0] * len(bins)
        # Cached capacity/used tuples so candidate tests are pure float
        # math (no ResourceVector allocation per probe); the float
        # expressions mirror ``fits_within``/``dominant_fraction``
        # operation-for-operation, so results are bit-identical.
        self._caps: List[tuple] = [(0.0,) * 4] * len(bins)
        self._used: List[tuple] = [(0.0,) * 4] * len(bins)
        # Per-dimension max of 1/capacity over all bins: bounds any
        # requirement's dominant fraction on any bin from above.
        self._max_inv = [0.0, 0.0, 0.0, 0.0]
        for pos, machine_bin in enumerate(bins):
            self._tree[size + pos] = _dims(machine_bin.headroom())
            self._caps[pos] = _dims(machine_bin.capacity)
            self._used[pos] = _dims(machine_bin.used)
            key = machine_bin.headroom().dominant_fraction(
                machine_bin.capacity)
            self._dom_key[pos] = key
            self._dom_sorted.append((key, pos))
            self._track_capacity(machine_bin)
        self._dom_sorted.sort()
        for node in range(size - 1, 0, -1):
            self._tree[node] = self._merge(self._tree[2 * node],
                                           self._tree[2 * node + 1])

    @staticmethod
    def _merge(a: tuple, b: tuple) -> tuple:
        return (a[0] if a[0] >= b[0] else b[0],
                a[1] if a[1] >= b[1] else b[1],
                a[2] if a[2] >= b[2] else b[2],
                a[3] if a[3] >= b[3] else b[3])

    def _track_capacity(self, machine_bin: MachineBin) -> None:
        for j, cap in enumerate(_dims(machine_bin.capacity)):
            if cap > 0:
                inv = 1.0 / cap
                if inv > self._max_inv[j]:
                    self._max_inv[j] = inv

    # -- maintenance -----------------------------------------------------------

    def update(self, pos: int) -> None:
        """Re-index ``bins[pos]`` after its load changed."""
        machine_bin = self.bins[pos]
        node = self._size + pos
        self._tree[node] = _dims(machine_bin.headroom())
        self._used[pos] = _dims(machine_bin.used)
        node //= 2
        while node:
            self._tree[node] = self._merge(self._tree[2 * node],
                                           self._tree[2 * node + 1])
            node //= 2
        old_key = self._dom_key[pos]
        where = bisect_left(self._dom_sorted, (old_key, pos))
        if (where < len(self._dom_sorted)
                and self._dom_sorted[where] == (old_key, pos)):
            del self._dom_sorted[where]
        new_key = machine_bin.headroom().dominant_fraction(
            machine_bin.capacity)
        self._dom_key[pos] = new_key
        insort(self._dom_sorted, (new_key, pos))

    def add_bin(self, machine_bin: MachineBin) -> int:
        """Register ``bins[-1]`` (just appended by the caller)."""
        pos = len(self.bins) - 1
        assert self.bins[pos] is machine_bin
        if pos >= self._size:
            self._grow()
        node = self._size + pos
        self._tree[node] = _dims(machine_bin.headroom())
        node //= 2
        while node:
            self._tree[node] = self._merge(self._tree[2 * node],
                                           self._tree[2 * node + 1])
            node //= 2
        key = machine_bin.headroom().dominant_fraction(machine_bin.capacity)
        self._dom_key.append(key)
        self._caps.append(_dims(machine_bin.capacity))
        self._used.append(_dims(machine_bin.used))
        insort(self._dom_sorted, (key, pos))
        self._track_capacity(machine_bin)
        return pos

    def _grow(self) -> None:
        size = self._size * 2
        tree = [(0.0, 0.0, 0.0, 0.0)] * (2 * size)
        for pos in range(len(self.bins) - 1):
            tree[size + pos] = self._tree[self._size + pos]
        for node in range(size - 1, 0, -1):
            tree[node] = self._merge(tree[2 * node], tree[2 * node + 1])
        self._size = size
        self._tree = tree

    # -- queries ---------------------------------------------------------------

    def first_fit(self, requirement: ResourceVector,
                  exclude: Set[int]) -> Optional[int]:
        """Position of the leftmost non-excluded bin that fits."""
        if not self.bins:
            return None
        r = _dims(requirement)
        return self._descend(1, 0, self._size, r, exclude)

    def _descend(self, node: int, lo: int, hi: int, r: tuple,
                 exclude: Set[int]) -> Optional[int]:
        if lo >= len(self.bins):
            return None
        bound = self._tree[node]
        if (r[0] > bound[0] + _BOUND_SLACK or r[1] > bound[1] + _BOUND_SLACK
                or r[2] > bound[2] + _BOUND_SLACK
                or r[3] > bound[3] + _BOUND_SLACK):
            return None
        if hi - lo == 1:
            if lo not in exclude and self._can_fit(lo, r):
                return lo
            return None
        mid = (lo + hi) // 2
        found = self._descend(2 * node, lo, mid, r, exclude)
        if found is not None:
            return found
        return self._descend(2 * node + 1, mid, hi, r, exclude)

    def _can_fit(self, pos: int, r: tuple) -> bool:
        """Float-tuple mirror of ``(used + r).fits_within(capacity)``."""
        u = self._used[pos]
        cap = self._caps[pos]
        return (u[0] + r[0] <= cap[0] + 1e-9
                and u[1] + r[1] <= cap[1] + 1e-9
                and u[2] + r[2] <= cap[2] + 1e-9
                and u[3] + r[3] <= cap[3] + 1e-9)

    def _fit_key(self, pos: int, r: tuple) -> float:
        """Float-tuple mirror of
        ``(headroom() - requirement).dominant_fraction(capacity)`` —
        identical operations in identical order, so bit-equal to the
        linear reference's best-fit key."""
        h = self._tree[self._size + pos]
        cap = self._caps[pos]
        best = None
        for j in (0, 1, 2, 3):
            theirs = cap[j]
            mine = h[j] - r[j]
            if theirs > 0:
                frac = mine / theirs
                if best is None or frac > best:
                    best = frac
            elif mine > 0:
                return float("inf")
        return best if best is not None else 0.0

    def _requirement_bound(self, requirement: ResourceVector) -> float:
        """An upper bound of ``requirement.dominant_fraction(capacity)``
        over every bin's capacity."""
        r = _dims(requirement)
        return max(r[j] * self._max_inv[j] for j in range(4))

    def best_fit(self, requirement: ResourceVector,
                 exclude: Set[int]) -> Optional[int]:
        """Position minimizing the tightest-fit key, first-on-ties.

        Exactly the linear reference's
        ``min(candidates, key=(headroom - r).dominant_fraction(cap))``
        (which keeps the *earliest* bin among equal keys): the sorted
        dominant-headroom list is scanned ascending, keys are computed
        with the identical expression, and the scan stops once
        ``dom - bound`` exceeds the incumbent (no later bin can win,
        since ``fit_key >= dom - requirement_bound``).
        """
        r = _dims(requirement)
        bound = self._requirement_bound(requirement)
        best_key: Optional[float] = None
        best_pos: Optional[int] = None
        for dom, pos in self._dom_sorted:
            if best_key is not None and dom - bound > best_key + 1e-9:
                break
            if pos in exclude or not self._can_fit(pos, r):
                continue
            key = self._fit_key(pos, r)
            if (best_key is None or key < best_key
                    or (key == best_key and pos < best_pos)):
                best_key, best_pos = key, pos
        return best_pos

    def worst_fit(self, requirement: ResourceVector,
                  exclude: Set[int]) -> Optional[int]:
        """Position maximizing dominant headroom, first-on-ties.

        The reference key *is* the sort key, so the descending scan
        returns at the first strict key drop below the incumbent; ties
        resolve to the lowest position, matching ``max``'s
        keep-the-first behaviour over the bins-ordered candidate list.
        """
        r = _dims(requirement)
        best_key: Optional[float] = None
        best_pos: Optional[int] = None
        for dom, pos in reversed(self._dom_sorted):
            if best_key is not None and dom < best_key:
                break
            if pos in exclude or not self._can_fit(pos, r):
                continue
            if (best_key is None or dom > best_key
                    or (dom == best_key and pos < best_pos)):
                best_key, best_pos = dom, pos
        return best_pos


def _place_replicas_indexed(db: DatabaseLoad, index: PlacementIndex,
                            query: str,
                            new_bin: Optional[Callable[[], MachineBin]],
                            placement: Placement) -> None:
    """Algorithm 2: each replica on a distinct machine, the one the
    index's ``query`` picks.

    Falls back to a fresh machine from the free pool for every replica
    that fits nowhere (lines 12-14 of the paper's listing).
    """
    bins = index.bins
    select = getattr(index, query)
    chosen: Set[int] = set()
    names: List[str] = []
    for _ in range(db.replicas):
        pos = select(db.requirement, chosen)
        if pos is None:
            if new_bin is None:
                raise SlaViolationError(
                    f"no machine fits a replica of {db.name} and the free "
                    f"pool is exhausted")
            machine = new_bin()
            if not machine.can_fit(db.requirement):
                raise SlaViolationError(
                    f"replica of {db.name} exceeds a whole machine")
            bins.append(machine)
            pos = index.add_bin(machine)
            placement.machines_added += 1
        machine_bin = bins[pos]
        machine_bin.place(db)
        index.update(pos)
        chosen.add(pos)
        names.append(machine_bin.name)
    placement.assignments[db.name] = names


def _pack(databases: Sequence[DatabaseLoad],
          bins: Optional[List[MachineBin]],
          new_bin: Optional[Callable[[], MachineBin]], query: str,
          index: Optional[PlacementIndex]) -> Placement:
    if index is None:
        index = PlacementIndex(list(bins or []))
    placement = Placement(bins=index.bins)
    for db in databases:
        _place_replicas_indexed(db, index, query, new_bin, placement)
    return placement


def first_fit(databases: Sequence[DatabaseLoad],
              bins: Optional[List[MachineBin]] = None,
              new_bin: Optional[Callable[[], MachineBin]] = None,
              index: Optional[PlacementIndex] = None) -> Placement:
    """The paper's Algorithm 2: first machine (in order) that fits.

    An existing :class:`PlacementIndex` over ``bins`` can be passed to
    amortize index construction across calls.
    """
    return _pack(databases, bins, new_bin, "first_fit", index)


def best_fit(databases: Sequence[DatabaseLoad],
             bins: Optional[List[MachineBin]] = None,
             new_bin: Optional[Callable[[], MachineBin]] = None,
             index: Optional[PlacementIndex] = None) -> Placement:
    """Tightest-fit ablation: machine with least headroom that still fits."""
    return _pack(databases, bins, new_bin, "best_fit", index)


def worst_fit(databases: Sequence[DatabaseLoad],
              bins: Optional[List[MachineBin]] = None,
              new_bin: Optional[Callable[[], MachineBin]] = None,
              index: Optional[PlacementIndex] = None) -> Placement:
    """Loosest-fit ablation (load-levelling)."""
    return _pack(databases, bins, new_bin, "worst_fit", index)


def repack(databases: Sequence[DatabaseLoad],
           new_bin: Callable[[], MachineBin],
           strategy: Callable = first_fit) -> Placement:
    """Offline reallocation (the paper's future-work extension).

    Re-places *all* databases from scratch, sorted by decreasing dominant
    resource demand (First-Fit-Decreasing), which typically beats the
    online order. Use when migration cost is acceptable.
    """
    reference = new_bin().capacity
    ordered = sorted(
        databases,
        key=lambda db: db.requirement.dominant_fraction(reference),
        reverse=True)
    return strategy(ordered, bins=[], new_bin=new_bin)
