"""The heat-indexed placement must be indistinguishable from the linear scan.

``PlacementIndex`` exists purely for speed: ``first_fit``/``best_fit``/
``worst_fit`` must produce byte-identical ``Placement.assignments`` (and
identical bin mutations) to the linear reference in
``tests/oracles/linear_placement.py`` for every input — including the
new-machine fallback and both :class:`SlaViolationError` cases. These
properties are the license to keep the linear scan as a test oracle
while the index serves production placements.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SlaViolationError
from repro.sla import (DatabaseLoad, MachineBin, ResourceVector, best_fit,
                       first_fit, worst_fit)

from tests.oracles import linear_placement as linear

CAP = ResourceVector(cpu=4.0, memory_mb=1000.0, disk_io_mbps=100.0,
                     disk_mb=10000.0)

STRATEGIES = [first_fit, best_fit, worst_fit]
#: production strategy -> its linear reference
REFERENCE = {first_fit: linear.first_fit, best_fit: linear.best_fit,
             worst_fit: linear.worst_fit}

requirement = st.builds(
    ResourceVector,
    cpu=st.floats(min_value=0.1, max_value=4.5),
    memory_mb=st.floats(min_value=1.0, max_value=1100.0),
    disk_io_mbps=st.floats(min_value=0.0, max_value=100.0),
    disk_mb=st.floats(min_value=0.0, max_value=10000.0),
)

loads_strategy = st.lists(
    st.tuples(requirement, st.integers(min_value=1, max_value=3)),
    min_size=0, max_size=10,
).map(lambda ls: [DatabaseLoad(f"db{i}", r, replicas=n)
                  for i, (r, n) in enumerate(ls)])

#: Pre-seeded bins with uneven fill so best/worst-fit keys actually vary.
prefill_strategy = st.lists(
    st.tuples(requirement, st.integers(min_value=0, max_value=5)),
    min_size=0, max_size=6,
)


def build_bins(prefill):
    bins = []
    for i, (req, spread) in enumerate(prefill):
        machine_bin = MachineBin(f"m{i}", CAP)
        if spread and machine_bin.can_fit(req):
            machine_bin.place(DatabaseLoad(f"seed{i}", req, replicas=1))
        bins.append(machine_bin)
    return bins


def new_bin_factory():
    counter = [0]

    def new_bin():
        counter[0] += 1
        return MachineBin(f"fresh{counter[0]}", CAP)

    return new_bin


def run_one(strategy, loads, prefill, with_pool):
    """One strategy run; returns (assignments, bin state) or the error."""
    bins = build_bins(prefill)
    try:
        placement = strategy(
            loads, bins=bins,
            new_bin=new_bin_factory() if with_pool else None)
    except SlaViolationError as exc:
        return ("error", str(exc))
    state = [(b.name, b.used.cpu, b.used.memory_mb, b.used.disk_io_mbps,
              b.used.disk_mb, dict(b.hosted_counts))
             for b in placement.bins]
    return (placement.assignments, placement.machines_added, state)


@settings(max_examples=120, deadline=None)
@given(loads_strategy, prefill_strategy, st.booleans())
def test_index_matches_linear_reference(loads, prefill, with_pool):
    for strategy in STRATEGIES:
        indexed = run_one(strategy, loads, prefill, with_pool)
        reference = run_one(REFERENCE[strategy], loads, prefill, with_pool)
        assert indexed == reference, \
            f"{strategy.__name__} diverged from the linear reference"


@settings(max_examples=60, deadline=None)
@given(loads_strategy)
def test_index_feasibility_from_empty_pool(loads):
    """From zero bins the index path still honours capacity/anti-affinity."""
    # The requirement strategy deliberately overshoots CAP to exercise
    # the error paths elsewhere; feasibility only applies to loads that
    # can fit on an empty machine at all.
    loads = [db for db in loads if db.requirement.fits_within(CAP)]
    for strategy in STRATEGIES:
        placement = strategy(loads, bins=[], new_bin=new_bin_factory())
        for machine_bin in placement.bins:
            assert machine_bin.used.fits_within(machine_bin.capacity)
        for db in loads:
            assigned = placement.assignments[db.name]
            assert len(assigned) == db.replicas
            assert len(set(assigned)) == db.replicas


def test_exhausted_pool_raises_identically():
    """Both paths raise the same SlaViolationError with no free pool."""
    big = ResourceVector(cpu=3.5, memory_mb=900.0, disk_io_mbps=90.0,
                         disk_mb=9000.0)
    loads = [DatabaseLoad("hog", big, replicas=2)]
    for strategy in STRATEGIES:
        messages = []
        for place in (strategy, REFERENCE[strategy]):
            bins = [MachineBin("only", CAP)]
            with pytest.raises(SlaViolationError) as err:
                place(loads, bins=bins, new_bin=None)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def test_oversized_replica_raises_identically():
    """A replica larger than a whole machine fails on both paths."""
    monster = ResourceVector(cpu=99.0, memory_mb=1.0, disk_io_mbps=1.0,
                             disk_mb=1.0)
    loads = [DatabaseLoad("monster", monster, replicas=1)]
    for strategy in STRATEGIES:
        messages = []
        for place in (strategy, REFERENCE[strategy]):
            with pytest.raises(SlaViolationError) as err:
                place(loads, bins=[], new_bin=new_bin_factory())
            messages.append(str(err.value))
        assert messages[0] == messages[1]
