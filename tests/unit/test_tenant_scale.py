"""Unit tests for the tenant-scale fast path's building blocks.

Covers the O(1) structures behind routing and placement (incremental
replica-map counts, the machine-bin hosted-count dict) and the lazy
per-tenant state that pages out when cold (retained-tail compaction,
admission-bucket eviction)."""

import pytest

from repro.analysis.metrics import MetricsCollector
from repro.cluster import admission
from repro.cluster.admission import HEADROOM, AdmissionController
from repro.cluster.replica_map import ReplicaMap
from repro.engine.wal import RetainedTail
from repro.errors import NoReplicaError
from repro.sla import DatabaseLoad, MachineBin, ResourceVector, Sla


# -- ReplicaMap incremental counts -------------------------------------------


def test_replica_map_counts_track_membership():
    rm = ReplicaMap()
    rm.add_database("a", ["m1", "m2"])
    rm.add_database("b", ["m2", "m3"])
    assert rm.hosted_count("m1") == 1
    assert rm.hosted_count("m2") == 2
    assert rm.primary_count("m1") == 1
    assert rm.primary_count("m2") == 1
    assert rm.primary_count("m3") == 0
    assert rm.has("a") and "b" in rm and not rm.has("c")

    rm.drop_database("a")
    assert rm.hosted_count("m1") == 0
    assert rm.hosted_count("m2") == 1
    assert rm.primary_count("m1") == 0

    rm.add_replica("b", "m4")
    assert rm.hosted_count("m4") == 1
    assert rm.primary_count("m4") == 0  # joined a non-empty list


def test_replica_map_counts_match_linear_scan():
    """The O(1) counters always equal the O(N) definitions."""
    rm = ReplicaMap()
    rm.add_database("a", ["m1", "m2"])
    rm.add_database("b", ["m2", "m1"])
    rm.add_database("c", ["m3"])
    rm.add_replica("c", "m1")
    rm.remove_machine("m2")
    rm.drop_database("a")
    for machine in ("m1", "m2", "m3"):
        assert rm.hosted_count(machine) == len(rm.hosted_on(machine))
        assert rm.primary_count(machine) == sum(
            1 for db in rm.databases() if rm.replicas(db)[0] == machine)


def test_replica_map_remove_machine_hands_off_primary():
    rm = ReplicaMap()
    rm.add_database("a", ["m1", "m2", "m3"])
    assert rm.remove_machine("m1") == ["a"]
    # m2 is the new designated primary and the counts moved with it.
    assert rm.replicas("a") == ["m2", "m3"]
    assert rm.primary_count("m1") == 0
    assert rm.primary_count("m2") == 1
    # A machine hosting nothing short-circuits without scanning.
    assert rm.remove_machine("m1") == []


def test_replica_map_rejects_duplicates_and_unknowns():
    rm = ReplicaMap()
    rm.add_database("a", ["m1"])
    with pytest.raises(ValueError):
        rm.add_database("a", ["m2"])
    with pytest.raises(ValueError):
        rm.add_database("b", ["m1", "m1"])
    with pytest.raises(NoReplicaError):
        rm.replicas_view("ghost")
    with pytest.raises(NoReplicaError):
        rm.add_replica("ghost", "m1")


# -- MachineBin hosted counts (S1) -------------------------------------------


CAP = ResourceVector(cpu=4.0, memory_mb=1000.0, disk_io_mbps=100.0,
                     disk_mb=10000.0)
REQ = ResourceVector(cpu=0.5, memory_mb=100.0, disk_io_mbps=5.0,
                     disk_mb=500.0)


def test_machine_bin_hosted_preserves_first_placement_order():
    machine_bin = MachineBin("m", CAP)
    for name in ("a", "b", "c"):
        machine_bin.place(DatabaseLoad(name, REQ, replicas=1))
    assert machine_bin.hosted == ["a", "b", "c"]
    assert machine_bin.hosts("b") and not machine_bin.hosts("d")


def test_machine_bin_counts_repeat_placements():
    """Placing the same name twice keeps one entry with a count of two
    and charges the load twice."""
    machine_bin = MachineBin("m", CAP)
    machine_bin.place(DatabaseLoad("a", REQ, replicas=1))
    machine_bin.place(DatabaseLoad("a", REQ, replicas=1))
    assert machine_bin.hosted == ["a"]
    assert machine_bin.hosted_counts["a"] == 2
    assert machine_bin.used.cpu == pytest.approx(2 * REQ.cpu)


# -- RetainedTail.compact ----------------------------------------------------


def test_compact_drops_entries_but_keeps_lsn_position():
    tail = RetainedTail()
    for i in range(5):
        tail.append(f"e{i}")
    assert tail.last_lsn == 5
    dropped = tail.compact()
    assert dropped == 5
    assert len(tail) == 0
    assert tail.last_lsn == 5  # position survives the drop
    assert tail.start_lsn == 6
    assert tail.covers(5)      # nothing after 5 was lost
    assert not tail.covers(4)  # entry 5 itself is gone
    # Appends continue from the same LSN sequence.
    assert tail.append("e5") == 6


def test_compact_respects_pins():
    tail = RetainedTail()
    for i in range(6):
        tail.append(f"e{i}")
    pin = tail.pin(3)
    assert tail.compact() == 3  # entries 1-3 dropped, 4-6 pinned
    assert tail.start_lsn == 4
    assert tail.covers(3)
    tail.release(pin)
    assert tail.compact() == 3
    assert len(tail) == 0


def test_compact_empty_is_noop():
    tail = RetainedTail()
    assert tail.compact() == 0
    tail.append("x")
    tail.compact()
    assert tail.compact() == 0


# -- MetricsCollector per-tenant histograms ----------------------------------


def test_histogram_unbounded_by_default():
    metrics = MetricsCollector()
    for i in range(100):
        metrics.record_commit(f"db{i}", when=float(i), response_time=0.01)
    # No cap and no eviction: a tenant's histogram is a bucket or two.
    assert len(metrics.db_latencies) == 100
    assert all(len(h.buckets) == 1 for h in metrics.db_latencies.values())


# -- AdmissionController lazy buckets ----------------------------------------


def _clock_at(holder):
    return lambda: holder[0]


def test_admission_provisions_lazily_from_sla_lookup():
    now = [0.0]
    slas = {"gold": Sla(min_throughput_tps=10.0,
                        max_rejected_fraction=0.05)}
    controller = AdmissionController(_clock_at(now), slas.get)
    assert not controller.buckets  # nothing until first touch
    assert controller.admit("gold")
    assert controller.buckets["gold"].rate == pytest.approx(10.0 * HEADROOM)
    # No SLA: no rate, and no bucket at first sight either.
    assert controller.admit("free")
    assert "free" not in controller.buckets
    # provisioned_rate answers for never-touched tenants without
    # allocating a bucket.
    slas["never"] = slas["gold"]
    assert controller.provisioned_rate("never") == pytest.approx(15.0)
    assert "never" not in controller.buckets


def test_admission_eviction_never_flips_a_decision(monkeypatch):
    monkeypatch.setattr(admission, "RESIDENT_BUCKETS", 2)
    now = [0.0]
    slas = dict.fromkeys("abcd", Sla(min_throughput_tps=1.0,
                                     max_rejected_fraction=0.05))
    controller = AdmissionController(_clock_at(now), slas.get)
    for db in ("a", "b", "c", "d"):
        assert controller.admit(db)
        now[0] += 1000.0  # everyone refills to capacity between touches
    assert len(controller.buckets) <= 2
    assert controller.evicted_buckets >= 2
    # An evicted tenant's bucket is rebuilt from its SLA and starts
    # full, exactly as it would have been after the long idle.
    assert "a" not in controller.buckets
    assert controller.admit("a")
    assert controller.buckets["a"].rate == pytest.approx(1.0 * HEADROOM)


def test_admission_eviction_skips_hot_buckets(monkeypatch):
    """A bucket below capacity is in-use state and must stay resident."""
    monkeypatch.setattr(admission, "RESIDENT_BUCKETS", 1)
    now = [0.0]
    slas = dict.fromkeys("ab", Sla(min_throughput_tps=1.0,
                                   max_rejected_fraction=0.05))
    controller = AdmissionController(_clock_at(now), slas.get)
    # Drain "a" well below capacity, then touch others: "a" is over the
    # cap but never evictable until it refills.
    for _ in range(3):
        controller.admit("a")
    controller.admit("b")
    assert "a" in controller.buckets or \
        controller.buckets["b"].tokens_at(now[0]) < \
        controller.buckets["b"].capacity
