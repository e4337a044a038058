"""Tenant-scale fast path: flat latency and lazy state at 10k-100k tenants.

The paper's premise is "a large number of small applications": most
tenants are cold most of the time, so the platform must stage tenants
for the price of a routing-table entry and pay per-tenant costs only on
first touch. This benchmark stages 1k/10k/100k databases on one
controller and measures, at each scale:

* **create latency** — ``create_database`` placement + bookkeeping,
  which must stay O(machines), not O(tenants);
* **route latency** — ``connect`` (replica lookup + session set-up) on
  uniformly random tenants, mostly cold;
* **statement-entry latency** — full committed transactions against a
  small warm set driven through the simulator (admission, touch-check,
  classification, 2PC, engine execution per transaction);
* **resident memory** — tracemalloc bytes after staging, for the lazy
  fast path and (at the middle stage) the eager reference — the same
  state allocated at creation by the bench itself — as the contrast;
* **placement latency** — heat-indexed first-fit/best-fit over the same
  bin counts.

Two modes:

* ``pytest benchmarks/bench_many_tenants.py --benchmark-only`` — a
  pytest-benchmark wrapper timing one small soak (deterministic
  simulation; tracks harness wall-clock);
* ``python benchmarks/bench_many_tenants.py`` — plain mode: runs the
  staged measurements, asserts the scaling shape (near-flat route and
  statement-entry p99 from the smallest to the largest stage, indexed
  placement under a millisecond per database at the largest stage,
  sub-linear memory growth, lazy staging far under the eager
  reference), and writes ``BENCH_many_tenants.json`` at the repository
  root. ``--smoke`` shrinks the stages for CI.
"""

import gc
import sys
import time
import tracemalloc

import pytest

sys.path.insert(0, "src")

from repro.cluster import ClusterConfig, ClusterController
from repro.harness.runner import run_many_tenants
from repro.sim import Simulator
from repro.sla import (DatabaseLoad, MachineBin, PlacementIndex,
                       ResourceVector, first_fit)
from repro.workloads.microbench import KV_DDL, KeyValueWorkload, KvStats

from common import bench_main

FULL_STAGES = [1000, 10000, 100000]
SMOKE_STAGES = [500, 2000, 8000]

MACHINES = 20
REPLICAS = 2
WARM_SET = 8

#: Timer-noise floors added to both sides of every flatness ratio: the
#: operations under test sit in the microsecond range, where a single
#: scheduler hiccup would otherwise dominate a p99 ratio.
ROUTE_FLOOR_S = 2e-6
STMT_FLOOR_S = 50e-6


def percentile(values, p):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1))))
    return ordered[idx]


def _batched(op, count, batch):
    """Mean per-op seconds for ``count // batch`` timed batches.

    Individual ops are sub-microsecond; timing batches and dividing
    keeps the timer's own cost out of the distribution.
    """
    means = []
    for start in range(0, count, batch):
        t0 = time.perf_counter()
        for i in range(start, start + batch):
            op(i)
        means.append((time.perf_counter() - t0) / batch)
    return means


def _stage_controller():
    sim = Simulator()
    config = ClusterConfig(replication_factor=REPLICAS, trace_capacity=4096)
    controller = ClusterController(sim, config)
    controller.add_machines(MACHINES)
    return sim, controller


def run_latency_stage(n_databases, seed=3):
    """Create/route/statement-entry wall-clock at one tenant count."""
    sim, controller = _stage_controller()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Creates: every tenant, timed in batches.
        create_batch = max(50, n_databases // 200)

        def create(i):
            controller.create_database(f"t{i:06d}", KV_DDL,
                                       replicas=REPLICAS)

        create_means = _batched(create, n_databases, create_batch)

        # Routes: uniformly random (mostly cold) tenants.
        route_samples = 5000
        step = max(1, n_databases // route_samples)

        def route(i):
            db = f"t{(i * step) % n_databases:06d}"
            controller.connect(db).close()

        route_means = _batched(route, route_samples, 100)
    finally:
        if gc_was_enabled:
            gc.enable()

    # Statement entry: committed transactions on a small warm set,
    # driven through the simulator in timed rounds. Collector pauses
    # scale with total heap size (the 100k-tenant routing table), which
    # would swamp a per-transaction p99 — keep gc off while timing.
    warm = [f"t{i:06d}" for i in range(0, n_databases,
                                       n_databases // WARM_SET)][:WARM_SET]
    for db in warm:
        controller.bulk_load(db, "kv", [(k, 0) for k in range(8)])
    stmt_means = []
    committed_total = 0
    gc.collect()
    gc.disable()
    try:
        for round_no in range(30):
            stats = [KvStats() for _ in warm]
            for idx, db in enumerate(warm):
                workload = KeyValueWorkload(controller, db_name=db, keys=8,
                                            seed=seed + round_no * 100 + idx)
                proc = sim.process(workload.client(
                    round_no, transactions=5, think_time_s=0.0,
                    stats=stats[idx]))
                proc.defused = True
            t0 = time.perf_counter()
            sim.run()
            elapsed = time.perf_counter() - t0
            committed = sum(s.committed for s in stats)
            committed_total += committed
            if committed:
                stmt_means.append(elapsed / committed)
    finally:
        if gc_was_enabled:
            gc.enable()

    return {
        "tenants": n_databases,
        "create_p50_us": round(percentile(create_means, 50) * 1e6, 3),
        "create_p99_us": round(percentile(create_means, 99) * 1e6, 3),
        "route_p50_us": round(percentile(route_means, 50) * 1e6, 3),
        "route_p99_us": round(percentile(route_means, 99) * 1e6, 3),
        "stmt_p50_us": round(percentile(stmt_means, 50) * 1e6, 3),
        "stmt_p99_us": round(percentile(stmt_means, 99) * 1e6, 3),
        "stmt_committed": committed_total,
        "resident_db_logs": len(controller.replication.db_logs),
        "resident_histograms": len(controller.metrics.db_latencies),
    }


def run_memory_stage(n_databases, lazy=True):
    """Traced bytes attributable to staging ``n_databases`` tenants."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        sim, controller = _stage_controller()
        for i in range(n_databases):
            db = f"t{i:06d}"
            controller.create_database(db, KV_DDL, replicas=REPLICAS)
            if not lazy:
                # The eager reference: engine DDL, per-tenant log and LSN
                # map from creation (the controller itself only ever
                # runs or allocates them on first touch).
                controller.ensure_materialised(db)
                controller.replication.log(db)
                controller.replication.lsns(db)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    staged = max(0, current - base)
    return {
        "tenants": n_databases,
        "lazy": bool(lazy),
        "staged_bytes": staged,
        "bytes_per_tenant": round(staged / n_databases, 1),
    }


def run_placement_stage(n_bins, queries=100, seed=3):
    """Indexed placement latency at one bin count."""
    capacity = ResourceVector(cpu=8.0, memory_mb=16000.0,
                              disk_io_mbps=400.0, disk_mb=400000.0)
    requirement = ResourceVector(cpu=0.02, memory_mb=40.0,
                                 disk_io_mbps=1.0, disk_mb=500.0)

    bins = [MachineBin(f"m{i:06d}", capacity) for i in range(n_bins)]
    # Pre-load every bin unevenly so the index has real structure.
    for i, machine_bin in enumerate(bins):
        machine_bin.place(DatabaseLoad(
            f"seed{i}", ResourceVector(
                cpu=0.01 * (i % 7), memory_mb=20.0 * (i % 11),
                disk_io_mbps=0.5 * (i % 5), disk_mb=250.0 * (i % 13)),
            replicas=1))
    t0 = time.perf_counter()
    index = PlacementIndex(bins)
    build_s = time.perf_counter() - t0

    place_means = []
    for q in range(queries):
        load = DatabaseLoad(f"q{q}", requirement, replicas=3)
        t0 = time.perf_counter()
        first_fit([load], index=index)
        place_means.append(time.perf_counter() - t0)

    return {
        "bins": n_bins,
        "index_build_ms": round(build_s * 1e3, 3),
        "indexed_place_p50_us":
            round(percentile(place_means, 50) * 1e6, 3),
        "indexed_place_p99_us":
            round(percentile(place_means, 99) * 1e6, 3),
        "indexed_place_mean_us":
            round(sum(place_means) / len(place_means) * 1e6, 3),
    }


def run_soak_point(n_databases, duration_s, seed=11):
    """One end-to-end soak: churn, flash crowd, resident-state gauges."""
    result = run_many_tenants(n_databases=n_databases,
                              duration_s=duration_s,
                              flash_at_s=duration_s / 2.0, seed=seed)
    return {
        "tenants": result.n_databases,
        "hot_tenants": result.hot_tenants,
        "committed": result.committed,
        "throughput_tps": round(result.throughput_tps, 2),
        "churn_creates": result.churn_creates,
        "churn_drops": result.churn_drops,
        "flash_first_commit_s": result.flash_first_commit_s,
        "flash_committed": result.flash_committed,
        "resident_db_logs": result.resident_db_logs,
        "resident_replica_lsn_maps": result.resident_replica_lsn_maps,
        "resident_admission_buckets": result.resident_admission_buckets,
        "resident_latency_histograms": result.resident_latency_histograms,
        "cold_engine_tenants": result.cold_engine_tenants,
        "paged_out_logs": result.paged_out_logs,
    }


def check_shape(stages, memory, placement, soak):
    """The acceptance assertions: flat latency, lazy memory, fast index."""
    small, large = stages[0], stages[-1]
    scale = large["tenants"] / small["tenants"]

    # Route and statement-entry p99 must be near-flat (< 2x) while the
    # tenant count grows ~100x; floors absorb scheduler noise on
    # microsecond-scale measurements.
    route_ratio = ((large["route_p99_us"] + ROUTE_FLOOR_S * 1e6) /
                   (small["route_p99_us"] + ROUTE_FLOOR_S * 1e6))
    assert route_ratio < 2.0, \
        f"route p99 grew {route_ratio:.2f}x over a {scale:.0f}x tenant " \
        f"increase: {small['route_p99_us']} -> {large['route_p99_us']} us"
    stmt_ratio = ((large["stmt_p99_us"] + STMT_FLOOR_S * 1e6) /
                  (small["stmt_p99_us"] + STMT_FLOOR_S * 1e6))
    assert stmt_ratio < 2.0, \
        f"statement-entry p99 grew {stmt_ratio:.2f}x over a " \
        f"{scale:.0f}x tenant increase: " \
        f"{small['stmt_p99_us']} -> {large['stmt_p99_us']} us"
    # Creates stay O(machines): p50 near-flat across the same growth.
    create_ratio = ((large["create_p50_us"] + ROUTE_FLOOR_S * 1e6) /
                    (small["create_p50_us"] + ROUTE_FLOOR_S * 1e6))
    assert create_ratio < 3.0, \
        f"create p50 grew {create_ratio:.2f}x over a {scale:.0f}x " \
        f"tenant increase"

    # Resident per-tenant state tracks the warm set, not the population.
    assert large["resident_db_logs"] <= 2 * WARM_SET + 64, \
        f"{large['resident_db_logs']} delta logs resident after " \
        f"touching {WARM_SET} tenants"

    # Memory: marginal bytes/tenant at the largest lazy stage must not
    # exceed the smallest stage's average (sub-linear growth: no
    # superlinear per-tenant state), and lazy staging must be far
    # cheaper than the eager reference at the same tenant count.
    lazy = [m for m in memory if m["lazy"]]
    marginal = ((lazy[-1]["staged_bytes"] - lazy[0]["staged_bytes"]) /
                (lazy[-1]["tenants"] - lazy[0]["tenants"]))
    assert marginal <= lazy[0]["bytes_per_tenant"] * 1.25, \
        f"marginal bytes/tenant {marginal:.0f} exceeds the smallest " \
        f"stage's average {lazy[0]['bytes_per_tenant']}"
    eager = [m for m in memory if not m["lazy"]]
    if eager:
        paired = next(m for m in lazy
                      if m["tenants"] == eager[0]["tenants"])
        assert paired["staged_bytes"] < eager[0]["staged_bytes"] * 0.5, \
            f"lazy staging ({paired['staged_bytes']} B) not under half " \
            f"the eager reference ({eager[0]['staged_bytes']} B)"

    # Placement: indexed first-fit stays under a millisecond per
    # database (3 replicas) at the largest bin count.
    largest = placement[-1]
    assert largest["indexed_place_mean_us"] < 1000.0, \
        f"indexed placement {largest['indexed_place_mean_us']} us " \
        f"per database at {largest['bins']} bins"

    # The soak exercised churn and the flash crowd, and the cold
    # tenant's first commit landed promptly.
    assert soak["churn_creates"] > 0 and soak["churn_drops"] > 0
    assert soak["flash_first_commit_s"] is not None \
        and soak["flash_first_commit_s"] < 1.0, \
        f"flash-crowd first commit took {soak['flash_first_commit_s']}s"
    assert soak["resident_db_logs"] <= soak["hot_tenants"] + 64 + 1, \
        "soak resident logs exceed the hot set"


def format_rows(stages, memory, placement):
    lines = [f"{'tenants':>8}  {'create p50':>10}  {'route p50':>9}  "
             f"{'route p99':>9}  {'stmt p50':>9}  {'stmt p99':>9}  "
             f"{'logs':>5}"]
    for row in stages:
        lines.append(
            f"{row['tenants']:>8}  {row['create_p50_us']:>9.1f}u  "
            f"{row['route_p50_us']:>8.2f}u  {row['route_p99_us']:>8.2f}u  "
            f"{row['stmt_p50_us']:>8.1f}u  {row['stmt_p99_us']:>8.1f}u  "
            f"{row['resident_db_logs']:>5}")
    lines.append(f"{'tenants':>8}  {'mode':>6}  {'staged MB':>9}  "
                 f"{'B/tenant':>8}")
    for row in memory:
        lines.append(f"{row['tenants']:>8}  "
                     f"{'lazy' if row['lazy'] else 'eager':>6}  "
                     f"{row['staged_bytes'] / 1e6:>9.2f}  "
                     f"{row['bytes_per_tenant']:>8.1f}")
    lines.append(f"{'bins':>8}  {'build ms':>8}  {'place p50':>9}  "
                 f"{'place p99':>9}")
    for row in placement:
        lines.append(
            f"{row['bins']:>8}  {row['index_build_ms']:>8.1f}  "
            f"{row['indexed_place_p50_us']:>8.1f}u  "
            f"{row['indexed_place_p99_us']:>8.1f}u")
    return "\n".join(lines)


# -- pytest-benchmark wrappers ------------------------------------------------


@pytest.mark.benchmark(group="many_tenants")
def test_bench_many_tenants_soak(benchmark):
    result = benchmark(run_many_tenants, n_databases=1000, duration_s=8.0,
                       flash_at_s=4.0)
    assert result.committed > 0
    assert result.resident_db_logs <= result.hot_tenants + 65


@pytest.mark.benchmark(group="many_tenants")
def test_bench_placement_index(benchmark):
    row = benchmark(run_placement_stage, 5000, queries=50)
    assert row["indexed_place_mean_us"] < 1000.0


# -- plain mode ---------------------------------------------------------------


def plain_mode(args):
    stage_counts = SMOKE_STAGES if args.smoke else FULL_STAGES
    stages = []
    for n in stage_counts:
        stages.append(run_latency_stage(n))
        print(f"latency stage {n}: route p99 "
              f"{stages[-1]['route_p99_us']}us, stmt p99 "
              f"{stages[-1]['stmt_p99_us']}us")
    memory = []
    for n in stage_counts:
        memory.append(run_memory_stage(n, lazy=True))
    memory.append(run_memory_stage(stage_counts[1], lazy=False))
    placement = [run_placement_stage(n) for n in stage_counts]
    soak = run_soak_point(stage_counts[1],
                          duration_s=8.0 if args.smoke else 20.0)
    check_shape(stages, memory, placement, soak)

    payload = {
        "benchmark": "many_tenants",
        "smoke": bool(args.smoke),
        "machines": MACHINES,
        "replicas": REPLICAS,
        "stages": stages,
        "memory": memory,
        "placement": placement,
        "soak": soak,
    }
    return payload, format_rows(stages, memory, placement)


def main(argv=None) -> int:
    return bench_main("many_tenants",
                      "Tenant-scale fast-path benchmark (plain mode)",
                      "smaller stages (CI)", plain_mode, argv)


if __name__ == "__main__":
    raise SystemExit(main())
