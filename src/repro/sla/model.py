"""The SLA model of Section 4.1.

Each database's SLA has two requirements over a time period T:

1. a minimum throughput (transactions per second), which maps to a
   multi-dimensional resource requirement r[j] — CPU, memory, disk I/O
   bandwidth, and disk space — that must fit, summed with its
   co-tenants, within the hosting machine's capacity R[i];
2. a maximum fraction of *proactively rejected* transactions, bounded by
   the paper's availability constraint::

       (machine_failure_rate + reallocation_rate)
           * (recovery_time / T) * write_mix  <  max_rejected_fraction

   (deadlocks and other application-inherent aborts do not count).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResourceVector:
    """A point in the paper's resource space.

    Dimensions: CPU cores' worth of compute, resident memory in MB,
    disk I/O bandwidth in MB/s, and disk space in MB.
    """

    cpu: float = 0.0
    memory_mb: float = 0.0
    disk_io_mbps: float = 0.0
    disk_mb: float = 0.0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu + other.cpu,
            self.memory_mb + other.memory_mb,
            self.disk_io_mbps + other.disk_io_mbps,
            self.disk_mb + other.disk_mb,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu - other.cpu,
            self.memory_mb - other.memory_mb,
            self.disk_io_mbps - other.disk_io_mbps,
            self.disk_mb - other.disk_mb,
        )

    def scale(self, factor: float) -> "ResourceVector":
        return ResourceVector(self.cpu * factor, self.memory_mb * factor,
                              self.disk_io_mbps * factor,
                              self.disk_mb * factor)

    def fits_within(self, capacity: "ResourceVector") -> bool:
        """Component-wise <= (the bin-packing feasibility test)."""
        return (self.cpu <= capacity.cpu + 1e-9
                and self.memory_mb <= capacity.memory_mb + 1e-9
                and self.disk_io_mbps <= capacity.disk_io_mbps + 1e-9
                and self.disk_mb <= capacity.disk_mb + 1e-9)

    def dominant_fraction(self, capacity: "ResourceVector") -> float:
        """Largest utilization fraction across dimensions."""
        fractions = []
        for mine, theirs in ((self.cpu, capacity.cpu),
                             (self.memory_mb, capacity.memory_mb),
                             (self.disk_io_mbps, capacity.disk_io_mbps),
                             (self.disk_mb, capacity.disk_mb)):
            if theirs > 0:
                fractions.append(mine / theirs)
            elif mine > 0:
                return float("inf")
        return max(fractions) if fractions else 0.0


@dataclass(frozen=True)
class Sla:
    """A database's service level agreement over period T."""

    min_throughput_tps: float
    max_rejected_fraction: float
    period_s: float = 30 * 24 * 3600.0  # one month by default

    def __post_init__(self):
        if self.min_throughput_tps < 0:
            raise ValueError("throughput must be non-negative")
        if not 0 <= self.max_rejected_fraction <= 1:
            raise ValueError("rejected fraction must be in [0, 1]")
        if self.period_s <= 0:
            raise ValueError("period must be positive")


@dataclass(frozen=True)
class AvailabilityInputs:
    """Operational parameters of the availability constraint."""

    machine_failure_rate: float   # failures of a hosting machine per period T
    reallocation_rate: float      # migrations per period T
    recovery_time_s: float        # time to copy the database once
    write_mix: float              # fraction of update transactions


def rejected_fraction_bound(inputs: AvailabilityInputs,
                            period_s: float) -> float:
    """The paper's bound on the proactively-rejected fraction.

    Writes are rejected only while their database is being copied, so the
    expected rejected fraction is (events per period) x (fraction of the
    period spent copying) x (fraction of transactions that write).
    """
    events = inputs.machine_failure_rate + inputs.reallocation_rate
    return events * (inputs.recovery_time_s / period_s) * inputs.write_mix


def availability_ok(sla: Sla, inputs: AvailabilityInputs) -> bool:
    """Check the availability requirement of Section 4.1."""
    return rejected_fraction_bound(inputs, sla.period_s) < \
        sla.max_rejected_fraction

