"""Property-based tests for SLA placement and the optimal solver."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sla import (DatabaseLoad, MachineBin, ResourceVector, first_fit,
                       optimal_machine_count)
from repro.sla.optimal import lower_bound

CAP = ResourceVector(cpu=4.0, memory_mb=1000.0, disk_io_mbps=100.0,
                     disk_mb=10000.0)

requirement = st.builds(
    ResourceVector,
    cpu=st.floats(min_value=0.1, max_value=4.0),
    memory_mb=st.floats(min_value=1.0, max_value=1000.0),
    disk_io_mbps=st.floats(min_value=0.0, max_value=100.0),
    disk_mb=st.floats(min_value=0.0, max_value=10000.0),
)

loads_strategy = st.lists(
    st.builds(lambda i, r, n: DatabaseLoad(f"db{i}", r, replicas=n),
              st.integers(0, 10 ** 6), requirement,
              st.integers(min_value=1, max_value=2)),
    min_size=0, max_size=8,
).map(lambda ls: [DatabaseLoad(f"db{i}", l.requirement, l.replicas)
                  for i, l in enumerate(ls)])


def new_bin_factory():
    counter = [0]

    def new_bin():
        counter[0] += 1
        return MachineBin(f"m{counter[0]}", CAP)

    return new_bin


@settings(max_examples=80, deadline=None)
@given(loads_strategy)
def test_first_fit_placements_are_feasible(loads):
    placement = first_fit(loads, bins=[], new_bin=new_bin_factory())
    for machine_bin in placement.bins:
        assert machine_bin.used.fits_within(machine_bin.capacity)
        used = machine_bin.used
        assert min(used.cpu, used.memory_mb, used.disk_io_mbps,
                   used.disk_mb) >= -1e-9
    # Anti-affinity: each database's replicas on distinct machines.
    for db in loads:
        assigned = placement.assignments[db.name]
        assert len(assigned) == db.replicas
        assert len(set(assigned)) == db.replicas


@settings(max_examples=40, deadline=None)
@given(loads_strategy)
def test_bounds_sandwich_optimum(loads):
    ff = first_fit(loads, bins=[], new_bin=new_bin_factory())
    opt = optimal_machine_count(loads, CAP, node_budget=200_000)
    lb = lower_bound(loads, CAP)
    assert lb <= opt <= ff.machines_used


@settings(max_examples=40, deadline=None)
@given(loads_strategy)
def test_optimal_is_achievable(loads):
    """A first-fit pass restricted to exactly `opt` bins must succeed for
    at least the decreasing order when opt was proven feasible."""
    opt = optimal_machine_count(loads, CAP, node_budget=200_000)
    total_replicas = sum(l.replicas for l in loads)
    assert opt <= total_replicas
    if loads:
        assert opt >= 1
