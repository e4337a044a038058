"""Unit tests for the SLA model, profiler, placement, and optimal solver."""

import pytest

from repro.sla import (AvailabilityInputs, DatabaseLoad, MachineBin,
                       ResourceVector, Sla, availability_ok, best_fit,
                       estimate_requirements, first_fit,
                       optimal_machine_count, rejected_fraction_bound,
                       repack, worst_fit)
from repro.sla.optimal import lower_bound
from repro.errors import SlaViolationError

CAP = ResourceVector(cpu=2.0, memory_mb=1000.0, disk_io_mbps=50.0,
                     disk_mb=10000.0)


def bin_factory():
    counter = [0]

    def new_bin():
        counter[0] += 1
        return MachineBin(f"m{counter[0]}", CAP)

    return new_bin


class TestResourceVector:
    def test_add_sub_scale(self):
        a = ResourceVector(1, 10, 5, 100)
        b = ResourceVector(0.5, 5, 1, 50)
        assert (a + b).cpu == 1.5
        assert (a - b).memory_mb == 5
        assert a.scale(2).disk_mb == 200

    def test_fits_within(self):
        assert ResourceVector(2, 1000, 50, 10000).fits_within(CAP)
        assert not ResourceVector(2.1, 0, 0, 0).fits_within(CAP)

    def test_dominant_fraction(self):
        vec = ResourceVector(1.0, 500, 10, 1000)
        assert vec.dominant_fraction(CAP) == pytest.approx(0.5)

    def test_dominant_fraction_zero_capacity(self):
        vec = ResourceVector(cpu=1.0)
        assert vec.dominant_fraction(ResourceVector()) == float("inf")


class TestSlaModel:
    def test_sla_validation(self):
        with pytest.raises(ValueError):
            Sla(-1, 0.01)
        with pytest.raises(ValueError):
            Sla(1, 1.5)
        with pytest.raises(ValueError):
            Sla(1, 0.1, period_s=0)

    def test_availability_constraint_formula(self):
        # 2 failures + 1 reallocation per period, 120 s recovery over a
        # 30-day period, 30 % writes.
        inputs = AvailabilityInputs(2.0, 1.0, 120.0, 0.3)
        period = 30 * 24 * 3600.0
        bound = rejected_fraction_bound(inputs, period)
        assert bound == pytest.approx(3.0 * (120.0 / period) * 0.3)

    def test_availability_ok(self):
        sla = Sla(1.0, 1e-4)
        good = AvailabilityInputs(1.0, 0.0, 60.0, 0.2)
        bad = AvailabilityInputs(100.0, 100.0, 3600.0, 1.0)
        assert availability_ok(sla, good)
        assert not availability_ok(sla, bad)


class TestProfiler:
    def test_requirements_scale_with_throughput(self):
        low = estimate_requirements(500, 1.0)
        high = estimate_requirements(500, 10.0)
        assert high.cpu > low.cpu
        assert high.disk_io_mbps > low.disk_io_mbps
        assert high.memory_mb == low.memory_mb  # size-driven

    def test_requirements_scale_with_size(self):
        small = estimate_requirements(200, 1.0)
        big = estimate_requirements(1000, 1.0)
        assert big.memory_mb > small.memory_mb
        assert big.disk_mb > small.disk_mb

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            estimate_requirements(-1, 1)


class TestPlacement:
    def test_first_fit_uses_first_available(self):
        loads = [DatabaseLoad(f"db{i}", ResourceVector(cpu=0.5))
                 for i in range(3)]
        placement = first_fit(loads, bins=[], new_bin=bin_factory())
        # 3 x 0.5 cpu fits one 2-cpu machine
        assert placement.machines_used == 1

    def test_replicas_on_distinct_machines(self):
        loads = [DatabaseLoad("db", ResourceVector(cpu=0.1), replicas=3)]
        placement = first_fit(loads, bins=[], new_bin=bin_factory())
        assert placement.machines_used == 3
        assert len(set(placement.assignments["db"])) == 3

    def test_oversized_replica_rejected(self):
        loads = [DatabaseLoad("big", ResourceVector(cpu=5.0))]
        with pytest.raises(SlaViolationError):
            first_fit(loads, bins=[], new_bin=bin_factory())

    def test_no_new_bins_allowed(self):
        loads = [DatabaseLoad("db", ResourceVector(cpu=1.5)),
                 DatabaseLoad("db2", ResourceVector(cpu=1.5))]
        bins = [MachineBin("only", CAP)]
        with pytest.raises(SlaViolationError):
            first_fit(loads, bins=bins, new_bin=None)

    def test_capacity_respected(self):
        loads = [DatabaseLoad(f"db{i}", ResourceVector(memory_mb=400))
                 for i in range(5)]
        placement = first_fit(loads, bins=[], new_bin=bin_factory())
        for machine_bin in placement.bins:
            assert machine_bin.used.fits_within(machine_bin.capacity)

    def test_best_fit_packs_tighter_than_worst_fit(self):
        loads = ([DatabaseLoad(f"a{i}", ResourceVector(cpu=1.2))
                  for i in range(3)]
                 + [DatabaseLoad(f"b{i}", ResourceVector(cpu=0.8))
                    for i in range(3)])
        best = best_fit(loads, bins=[], new_bin=bin_factory())
        worst = worst_fit(loads, bins=[], new_bin=bin_factory())
        assert best.machines_used <= worst.machines_used

    def test_repack_sorts_decreasing(self):
        # Online order is adversarial for first-fit; FFD fixes it.
        loads = [DatabaseLoad("small1", ResourceVector(cpu=0.7)),
                 DatabaseLoad("small2", ResourceVector(cpu=0.7)),
                 DatabaseLoad("big1", ResourceVector(cpu=1.3)),
                 DatabaseLoad("big2", ResourceVector(cpu=1.3))]
        online = first_fit(loads, bins=[], new_bin=bin_factory())
        offline = repack(loads, new_bin=bin_factory())
        assert offline.machines_used <= online.machines_used


class TestOptimal:
    def test_matches_trivial_cases(self):
        loads = [DatabaseLoad(f"db{i}", ResourceVector(cpu=1.0))
                 for i in range(4)]
        assert optimal_machine_count(loads, CAP) == 2

    def test_empty(self):
        assert optimal_machine_count([], CAP) == 0

    def test_optimal_beats_first_fit_on_adversarial_order(self):
        # First-fit with this order wastes a bin; optimum is 2.
        loads = [DatabaseLoad("a", ResourceVector(cpu=1.1)),
                 DatabaseLoad("b", ResourceVector(cpu=0.6)),
                 DatabaseLoad("c", ResourceVector(cpu=0.9)),
                 DatabaseLoad("d", ResourceVector(cpu=1.4))]
        ff = first_fit(loads, bins=[], new_bin=bin_factory())
        opt = optimal_machine_count(loads, CAP)
        assert opt <= ff.machines_used
        assert opt == 2

    def test_replica_anti_affinity_respected(self):
        loads = [DatabaseLoad("db", ResourceVector(cpu=0.1), replicas=4)]
        assert optimal_machine_count(loads, CAP) == 4

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            optimal_machine_count([DatabaseLoad("x", ResourceVector(cpu=3))],
                                  CAP)

    def test_lower_bound_sound(self):
        loads = [DatabaseLoad(f"db{i}",
                              ResourceVector(cpu=0.9, memory_mb=300))
                 for i in range(6)]
        lb = lower_bound(loads, CAP)
        opt = optimal_machine_count(loads, CAP)
        assert lb <= opt
