"""Exact minimum machine count for a placement instance (Table 2 baseline).

The paper compares First-Fit against "the optimal number of machines...
computed exhaustively offline". This module does the same with a
branch-and-bound search over identical machines:

* lower bound — the max over resource dimensions of
  ceil(total demand / machine capacity), and the count of replicas too
  big to share any machine pairwise;
* upper bound — First-Fit-Decreasing;
* feasibility for a candidate k — depth-first packing of replicas in
  decreasing size order with symmetry breaking (a replica may open at
  most one *new* empty bin) and memoized failure states.

Exponential in the worst case, as NP-hardness demands, but instances of
the paper's scale (tens of databases) solve in milliseconds-to-seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.sim.rng import SeededRNG, ZipfGenerator
from repro.sla.model import ResourceVector
from repro.sla.placement import DatabaseLoad, MachineBin, first_fit
from repro.sla.profiler import estimate_requirements

_DIMS = ("cpu", "memory_mb", "disk_io_mbps", "disk_mb")


def _vector_tuple(vector: ResourceVector) -> Tuple[float, ...]:
    return tuple(getattr(vector, dim) for dim in _DIMS)


def lower_bound(databases: Sequence[DatabaseLoad],
                capacity: ResourceVector) -> int:
    """A valid lower bound on the number of machines needed."""
    cap = _vector_tuple(capacity)
    totals = [0.0] * len(_DIMS)
    max_replicas = 0
    for db in databases:
        req = _vector_tuple(db.requirement)
        for i, value in enumerate(req):
            totals[i] += value * db.replicas
        # Anti-affinity: one database's replicas need distinct machines.
        max_replicas = max(max_replicas, db.replicas)
    bound = max_replicas
    for i, total in enumerate(totals):
        if cap[i] > 0:
            bound = max(bound, math.ceil(total / cap[i] - 1e-9))
        elif total > 0:
            raise ValueError(f"demand in zero-capacity dimension {_DIMS[i]}")
    return max(bound, 1 if databases else 0)


def _feasible(items: List[Tuple[Tuple[float, ...], str]],
              capacity: Tuple[float, ...], k: int,
              node_budget: int) -> Optional[bool]:
    """Can ``items`` (replica vectors tagged with db name) fit in k bins?

    Replicas of the same database must land in different bins. Returns
    True/False, or None if the node budget ran out (treat as unknown).
    """
    bins = [list(capacity) for _ in range(k)]
    bin_dbs: List[set] = [set() for _ in range(k)]
    seen_failures = set()
    budget = [node_budget]

    def key() -> Tuple:
        return tuple(sorted(tuple(b) for b in bins))

    def place(idx: int) -> Optional[bool]:
        if idx == len(items):
            return True
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        state = (idx, key())
        if state in seen_failures:
            return False
        vector, db_name = items[idx]
        opened_empty = False
        unknown = False
        for b in range(k):
            if db_name in bin_dbs[b]:
                continue
            is_empty = all(abs(bins[b][i] - capacity[i]) < 1e-12
                           for i in range(len(capacity)))
            if is_empty:
                if opened_empty:
                    continue  # symmetry: empty bins are interchangeable
                opened_empty = True
            if all(vector[i] <= bins[b][i] + 1e-9
                   for i in range(len(vector))):
                for i in range(len(vector)):
                    bins[b][i] -= vector[i]
                bin_dbs[b].add(db_name)
                result = place(idx + 1)
                for i in range(len(vector)):
                    bins[b][i] += vector[i]
                bin_dbs[b].discard(db_name)
                if result:
                    return True
                if result is None:
                    unknown = True
        if unknown:
            return None
        seen_failures.add(state)
        return False

    return place(0)


def optimal_machine_count(databases: Sequence[DatabaseLoad],
                          capacity: ResourceVector,
                          node_budget: int = 2_000_000) -> int:
    """Exact minimum number of identical machines (branch and bound).

    ``node_budget`` caps the search; if exhausted, the best proven bound
    is returned (an upper bound, still >= the true optimum's neighbors —
    for paper-scale instances the budget is never reached).
    """
    if not databases:
        return 0
    cap = _vector_tuple(capacity)
    items: List[Tuple[Tuple[float, ...], str]] = []
    for db in databases:
        vector = _vector_tuple(db.requirement)
        if any(vector[i] > cap[i] + 1e-9 for i in range(len(cap))):
            raise ValueError(
                f"database {db.name} exceeds one machine's capacity")
        for _ in range(db.replicas):
            items.append((vector, db.name))
    # Decreasing dominant-fraction order makes infeasibility show early.
    items.sort(key=lambda item: max(
        item[0][i] / cap[i] for i in range(len(cap)) if cap[i] > 0),
        reverse=True)

    counter = [0]

    def new_bin() -> MachineBin:
        counter[0] += 1
        return MachineBin(f"opt-{counter[0]}", capacity)

    ffd = first_fit(
        sorted(databases,
               key=lambda d: d.requirement.dominant_fraction(capacity),
               reverse=True),
        bins=[], new_bin=new_bin)
    upper = ffd.machines_used
    lower = lower_bound(databases, capacity)

    for k in range(lower, upper):
        verdict = _feasible(items, cap, k, node_budget)
        if verdict:
            return k
        if verdict is None:
            return upper  # budget exhausted; fall back to the FFD bound
    return upper


@dataclass
class SlaPlacementResult:
    """One row of Table 2."""

    skew: float
    n_databases: int
    avg_size_mb: float
    avg_throughput_tps: float
    machines_first_fit: int
    machines_optimal: int


def first_fit_vs_optimal(
    skew: float,
    n_databases: int = 20,
    seed: int = 3,
    machine_capacity: Optional[ResourceVector] = None,
    working_set_fraction: float = 0.25,
) -> SlaPlacementResult:
    """Table 2: zipf-skewed demands, First-Fit vs the exhaustive optimum.

    Database sizes (200 MB - 1 GB) and throughputs (0.1 - 10 tps, one
    write in five) are drawn from bounded zipfians with the given skew
    (higher skew concentrates near the low end of each range, shrinking
    the averages — matching the paper's Table 2 trend).
    """
    size_range_mb, tps_range, write_mix = (200.0, 1000.0), (0.1, 10.0), 0.2
    rng = SeededRNG(seed).fork(f"sla-{skew}")
    size_zipf = ZipfGenerator(64, skew, rng.fork("size"))
    tps_zipf = ZipfGenerator(64, skew, rng.fork("tps"))
    capacity = machine_capacity or ResourceVector(
        cpu=2.0, memory_mb=1024.0, disk_io_mbps=30.0, disk_mb=6000.0)
    loads: List[DatabaseLoad] = []
    sizes: List[float] = []
    tpss: List[float] = []
    for i in range(n_databases):
        size = size_zipf.sample_in_range(*size_range_mb)
        tps = tps_zipf.sample_in_range(*tps_range)
        sizes.append(size)
        tpss.append(tps)
        requirement = estimate_requirements(
            size, tps, write_mix, working_set_fraction=working_set_fraction)
        loads.append(DatabaseLoad(f"db{i}", requirement, replicas=1))
    machines: List[MachineBin] = []

    def new_bin() -> MachineBin:
        machines.append(MachineBin(f"m{len(machines) + 1}", capacity))
        return machines[-1]

    return SlaPlacementResult(
        skew=skew, n_databases=n_databases,
        avg_size_mb=sum(sizes) / len(sizes),
        avg_throughput_tps=sum(tpss) / len(tpss),
        machines_first_fit=first_fit(loads, bins=[],
                                     new_bin=new_bin).machines_used,
        machines_optimal=optimal_machine_count(loads, capacity))
