"""The per-layer micro pass: unit costs of single layers, wall clock.

Each loop drives one layer through its public functions and returns
``(operations, seconds)``; :func:`run_all` keeps the best of
``REPEATS`` passes (the minimum is the estimate least polluted by a
noisy neighbour). Count x unit cost gives a predicted per-layer budget;
the residual against ``cpu_us_per_commit`` is glue.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Callable, Dict, Tuple

from repro.analysis.metrics import MetricsCollector
from repro.analysis.trace import Tracer
from repro.cluster import ClusterConfig, ClusterController
from repro.cluster.consensus import ConsensusConfig, PaxosGroup
from repro.cluster.network import NetworkConfig, NetworkFabric
from repro.engine import Engine
from repro.engine.locks import LockManager, LockMode
from repro.engine.wal import RecordType, WriteAheadLog
from repro.sim import Simulator
from repro.sla import (DatabaseLoad, MachineBin, PlacementIndex,
                       ResourceVector, first_fit)
from repro.workloads.microbench import KV_DDL

REPEATS = 5

Timed = Tuple[int, float]


def _timed(n: int, body: Callable[[], None]) -> Timed:
    t0 = time.perf_counter()
    body()
    return n, time.perf_counter() - t0


def sim_timeout_events(n: int) -> Timed:
    sim = Simulator()

    def body():
        for i in range(n):
            sim.timeout(i * 1e-6)
        sim.run()
    return _timed(n, body)


def sim_process_resumes(n: int, procs: int = 100) -> Timed:
    sim = Simulator()

    def ticker(k):
        for _ in range(k):
            yield sim.timeout(0.001)

    for _ in range(procs):
        sim.process(ticker(n // procs))
    return _timed(n, sim.run)


def network_deliver_msgs(n: int, links: int = 8) -> Timed:
    sim = Simulator()
    fabric = NetworkFabric(sim, NetworkConfig(
        enabled=True, latency_s=0.0005, jitter_s=0.0001, seed=1),
        metrics=MetricsCollector())

    def sender(dst, k):
        for _ in range(k):
            yield from fabric.deliver("controller", dst)

    for link in range(links):
        sim.process(sender(f"m{link}", n // links))
    return _timed(n, sim.run)


def locks_acquire_release(n: int) -> Timed:
    locks = LockManager()

    def body():
        for i in range(0, n, 4):
            txn = i + 1
            locks.acquire(txn, ("tbl", "db", "t"), LockMode.IX)
            locks.acquire(txn, ("row", "db", "t", i % 500), LockMode.X)
            locks.acquire(txn, ("tbl", "db", "t"), LockMode.IS)
            locks.acquire(txn, ("row", "db", "t", (i + 7) % 500), LockMode.S)
            locks.release_all(txn)
    return _timed(n, body)


def locks_contended_handoffs(n: int) -> Timed:
    locks = LockManager()
    row = ("row", "db", "t", 1)

    def body():
        holder = 1
        locks.acquire(holder, row, LockMode.X)
        for i in range(n):
            waiter = i + 2
            request = locks.acquire(waiter, row, LockMode.X)
            locks.release_all(holder)
            if not request.granted:
                raise AssertionError("hand-off did not grant the waiter")
            holder = waiter
        locks.release_all(holder)
    return _timed(n, body)


def wal_append_flush(n: int) -> Timed:
    wal = WriteAheadLog()

    def body():
        for i in range(n):
            wal.append(i, RecordType.UPDATE, "db", "t", i, (i, 0), (i, 1))
            wal.flush()
    return _timed(n, body)


def _kv_engine(rows: int = 2000) -> Engine:
    engine = Engine("micro")
    engine.create_database("db")
    txn = engine.begin()
    engine.execute_sync(txn, "db", KV_DDL[0])
    engine.commit(txn)
    engine.load_table_rows("db", "kv", [(k, 0) for k in range(rows)])
    return engine


def sql_parse_plan(n: int) -> Timed:
    engine = _kv_engine(100)

    def body():
        # A distinct literal per statement defeats the plan cache, so
        # every call parses and plans.
        for i in range(n):
            engine.plan("db", f"SELECT v FROM kv WHERE k = {i}")
    return _timed(n, body)


def exec_point_select(n: int) -> Timed:
    engine = _kv_engine()
    txn = engine.begin()

    def body():
        for i in range(n):
            engine.execute_sync(txn, "db", "SELECT v FROM kv WHERE k = ?",
                                (i % 2000,))
    out = _timed(n, body)
    engine.commit(txn)
    return out


def exec_update_commit(n: int) -> Timed:
    engine = _kv_engine()

    def body():
        for i in range(n):
            txn = engine.begin()
            engine.execute_sync(txn, "db",
                                "UPDATE kv SET v = v + 1 WHERE k = ?",
                                (i % 2000,))
            engine.commit(txn)
    return _timed(n, body)


def consensus_commands(n: int) -> Timed:
    sim = Simulator()
    fabric = NetworkFabric(sim, NetworkConfig(
        enabled=True, latency_s=0.0005, jitter_s=0.0001, seed=1))
    group = PaxosGroup(sim, ["c0", "c1", "c2"], config=ConsensusConfig(),
                       fabric=fabric)
    group.start(bootstrap=0)
    leader = group.nodes["c0"]
    while not leader.is_leader:
        sim.step()

    def proposer():
        for i in range(n):
            yield from group.propose(leader, ("noop", {"i": i}))

    proc = sim.process(proposer())

    def body():
        while proc.is_alive:
            sim.step()
    out = _timed(n, body)
    if not proc.ok:
        raise proc.value
    return out


def trace_emit(n: int) -> Timed:
    tracer = Tracer(capacity=65536)

    def body():
        for i in range(n):
            tracer.emit("committed", db="kv0", txn=i, machine="m1")
    return _timed(n, body)


def metrics_record(n: int) -> Timed:
    metrics = MetricsCollector()

    def body():
        for i in range(n):
            metrics.record_commit("kv0", i * 0.001, 0.002)
    return _timed(n, body)


def sla_place_10k_bins(n: int, bins: int = 10000) -> Timed:
    capacity = ResourceVector(cpu=8.0, memory_mb=16000.0,
                              disk_io_mbps=400.0, disk_mb=400000.0)
    need = ResourceVector(cpu=0.02, memory_mb=40.0, disk_io_mbps=1.0,
                          disk_mb=500.0)
    index = PlacementIndex([MachineBin(f"m{i:05d}", capacity)
                            for i in range(bins)])

    def body():
        for q in range(n):
            first_fit([DatabaseLoad(f"q{q}", need, replicas=3)], index=index)
    return _timed(n, body)


def _staged_controller(tenants: int) -> ClusterController:
    config = ClusterConfig(replication_factor=2)
    if hasattr(config, "lazy_engine_ddl"):
        config.lazy_engine_ddl = True
    controller = ClusterController(Simulator(), config)
    controller.add_machines(12)
    for i in range(tenants):
        controller.create_database(f"t{i:06d}", KV_DDL, replicas=2)
    return controller


def controller_connect_20k_tenants(n: int, tenants: int = 20000) -> Timed:
    controller = _staged_controller(tenants)

    def body():
        for i in range(n):
            controller.connect(f"t{(i * 7919) % tenants:06d}").close()
    return _timed(n, body)


def bytes_per_staged_tenant(tenants: int = 5000) -> float:
    """tracemalloc bytes one staged (cold) tenant costs the controller."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        controller = _staged_controller(tenants)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del controller
    return (current - base) / tenants


#: metric name -> (loop, operations per pass); the names are fixed
#: (later issues cite them).
MICRO = {
    "sim.timeout_events_per_s": (sim_timeout_events, 40000),
    "sim.process_resumes_per_s": (sim_process_resumes, 40000),
    "network.deliver_msgs_per_s": (network_deliver_msgs, 20000),
    "engine.locks.acquire_release_per_s": (locks_acquire_release, 40000),
    "engine.locks.contended_handoffs_per_s": (locks_contended_handoffs,
                                              20000),
    "engine.wal.append_flush_per_s": (wal_append_flush, 60000),
    "engine.sql.parse_plan_per_s": (sql_parse_plan, 1500),
    "engine.exec.point_select_per_s": (exec_point_select, 20000),
    "engine.exec.update_commit_per_s": (exec_update_commit, 6000),
    "consensus.commands_per_s": (consensus_commands, 1500),
    "analysis.trace_emit_per_s": (trace_emit, 60000),
    "analysis.metrics_record_per_s": (metrics_record, 150000),
    "sla.place_per_s_10k_bins": (sla_place_10k_bins, 1500),
    "controller.connect_per_s_20k_tenants": (controller_connect_20k_tenants,
                                             100000),
}


def calibration_ops_per_s() -> float:
    """A fixed pure-Python loop: how fast this host runs the interpreter."""
    n = 200000

    def body():
        total = 0
        for i in range(n):
            total += i * i
        return total
    return max(n / _timed(n, body)[1] for _ in range(REPEATS))


def run_all(smoke: bool = False) -> Dict[str, float]:
    """Best-of-``REPEATS`` operations per second for every micro loop.

    ``smoke`` runs each loop once at a fiftieth of its size.
    """
    out = {}
    for name, (loop, n) in MICRO.items():
        size = max(10, n // 50) if smoke else n
        best = 0.0
        for _ in range(1 if smoke else REPEATS):
            ops, seconds = loop(size)
            best = max(best, ops / seconds)
        out[name] = best
    return out
