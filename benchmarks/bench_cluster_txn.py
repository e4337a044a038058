"""Cluster commit-path latency: the 2PC fan-out against its analytic cost.

Measures the coordinator's PREPARE and COMMIT phase latency on a
fabric-enabled cluster (fixed one-way message latency ``L``, no loss)
for replication factors 2, 3, and 5 under both write policies. The
fan-out issues every branch at once, so a phase costs one round trip
(``2L`` plus the participant's log flush) regardless of fan-out width; a
coordinator contacting its participants one at a time would pay
``rf * 2L``. The run asserts the first and reports the second (the
sequential coordinator itself was measured at 2.0x/3.0x/5.0x the
fan-out's 2PC p50 when it was retired; see README).

The ``concurrency`` section then holds the replication factor at 3 and
raises the number of closed-loop clients from 1 to 64. Every participant
forces its log twice per transaction, on one disk per machine; a machine
shares each force between the committers waiting for one (group commit,
DESIGN §4m), so a phase costs ``2L`` plus between one and two log flushes
however many clients there are, and WAL flushes per commit fall from six
towards one. A lone client shares nothing: its phases cost exactly
``2L + log_flush``.

Two modes:

* ``pytest benchmarks/bench_cluster_txn.py --benchmark-only`` — a
  pytest-benchmark wrapper timing one full bench run (the simulation is
  deterministic; this tracks harness wall-clock);
* ``python benchmarks/bench_cluster_txn.py`` — plain mode: runs the
  full sweep and writes ``BENCH_cluster_txn.json`` (phase-latency
  percentiles and analytic costs per configuration) at the repository
  root. ``--smoke`` restricts the sweep to replication factor 3 with
  fewer transactions, and the concurrency section to 1 and 16 clients,
  for CI.
"""

import sys

import pytest

sys.path.insert(0, "src")

from repro.analysis.invariants import check_controller
from repro.cluster import WritePolicy
from repro.harness.runner import run_commit_latency_bench

from common import bench_main

POLICIES = (WritePolicy.AGGRESSIVE, WritePolicy.CONSERVATIVE)
#: Fixed one-way fabric latency for every run; well under the RPC
#: timeout so no run pays a retransmission.
LATENCY_S = 0.003
#: The concurrency section's one-way latency: short, so that the log
#: flush (0.8 ms) and the queue for it are most of a phase.
CONCURRENCY_LATENCY_S = 0.0005
#: Its key space: large enough that clients all but never meet on a row,
#: so what they queue for is the log disk.
CONCURRENCY_KEYS = 8192


def sweep(replication_factors=(2, 3, 5), transactions_per_client=50):
    """{rf: {policy: row}} with per-phase p50/p95 and analytic costs."""
    table = {}
    for replicas in replication_factors:
        per_policy = {}
        for policy in POLICIES:
            result = run_commit_latency_bench(
                replicas=replicas, write_policy=policy, latency_s=LATENCY_S,
                transactions_per_client=transactions_per_client)
            assert not check_controller(result.controller), \
                "invariant violation in bench run"
            assert result.committed > 0
            row = {"committed": result.committed,
                   "round_trip_s": result.round_trip_s,
                   "serial_phase_s": result.serial_phase_s}
            for phase in ("prepare", "commit", "txn"):
                stats = result.latencies.get(phase, {})
                row[f"{phase}_p50"] = stats.get("p50", 0.0)
                row[f"{phase}_p95"] = stats.get("p95", 0.0)
            per_policy[policy.value] = row
        table[replicas] = per_policy
    return table


def format_sweep(table):
    lines = [f"{'rf':>2}  {'policy':<12}  {'prepare p50':>11}  "
             f"{'commit p50':>10}  {'2L':>7}  {'rf*2L':>7}"]
    for replicas, per_policy in sorted(table.items()):
        for policy, row in sorted(per_policy.items()):
            lines.append(f"{replicas:>2}  {policy:<12}  "
                         f"{row['prepare_p50']:>11.4f}  "
                         f"{row['commit_p50']:>10.4f}  "
                         f"{row['round_trip_s']:>7.4f}  "
                         f"{row['serial_phase_s']:>7.4f}")
    return "\n".join(lines)


def concurrency(clients=(1, 4, 16, 64), transactions_per_client=60):
    """{clients: row} at RF 3, conservative: tps, phase percentiles and
    WAL flushes per commit as the number of concurrent clients grows."""
    rows = {}
    for n in clients:
        result = run_commit_latency_bench(
            replicas=3, write_policy=WritePolicy.CONSERVATIVE, clients=n,
            keys=CONCURRENCY_KEYS, latency_s=CONCURRENCY_LATENCY_S,
            transactions_per_client=transactions_per_client)
        assert not check_controller(result.controller), \
            "invariant violation in bench run"
        machines = result.controller.machines.values()
        flushes = sum(m.engine.wal.stats.flushes for m in machines)
        row = {"committed": result.committed, "aborted": result.aborted,
               "tps": result.committed / result.sim_seconds,
               "wal_flushes_per_commit": flushes / result.committed,
               "round_trip_s": result.round_trip_s,
               "log_flush_s":
                   result.controller.config.machine.engine.log_flush_ms / 1e3}
        for phase in ("prepare", "commit"):
            row[f"{phase}_p50"] = result.latencies[phase]["p50"]
            row[f"{phase}_p95"] = result.latencies[phase]["p95"]
        rows[n] = row
    return rows


def check_concurrency(rows):
    for n, row in rows.items():
        trip, flush = row["round_trip_s"], row["log_flush_s"]
        if n == 1:
            # Nobody to share with: one round trip and one flush, exactly.
            for phase in ("prepare", "commit"):
                assert abs(row[f"{phase}_p50"] - (trip + flush)) < 1e-9, (
                    f"1 client: {phase} p50 {row[f'{phase}_p50']} is not "
                    f"2L + log_flush ({trip + flush})")
        else:
            assert row["prepare_p50"] <= trip + 2 * flush + 0.001, (
                f"{n} clients: prepare p50 {row['prepare_p50']} is more "
                f"than 2L + two flushes (+ 1 ms of CPU and page reads)")
        if n >= 64:
            assert row["wal_flushes_per_commit"] < 2, (
                f"{n} clients: {row['wal_flushes_per_commit']:.2f} WAL "
                f"flushes per commit")


def format_concurrency(rows):
    lines = [f"{'clients':>7}  {'tps':>7}  {'prepare p50':>11}  "
             f"{'prepare p95':>11}  {'commit p50':>10}  {'commit p95':>10}  "
             f"{'flushes/commit':>14}"]
    for n, row in sorted(rows.items()):
        lines.append(f"{n:>7}  {row['tps']:>7.1f}  {row['prepare_p50']:>11.4f}  "
                     f"{row['prepare_p95']:>11.4f}  {row['commit_p50']:>10.4f}  "
                     f"{row['commit_p95']:>10.4f}  "
                     f"{row['wal_flushes_per_commit']:>14.2f}")
    return "\n".join(lines)


# -- pytest-benchmark wrappers ------------------------------------------------


@pytest.mark.benchmark(group="cluster-txn")
def test_bench_commit_path(benchmark):
    result = benchmark(run_commit_latency_bench, replicas=3,
                       transactions_per_client=20)
    assert result.committed > 0


# -- plain mode ---------------------------------------------------------------


def plain_mode(args):
    factors = (3,) if args.smoke else (2, 3, 5)
    per_client = 20 if args.smoke else 50
    table = sweep(replication_factors=factors,
                  transactions_per_client=per_client)

    # One round trip per phase whatever the width: each p50 sits between
    # 2L and 2L plus a log flush, well under even two serial round trips.
    for replicas, per_policy in table.items():
        for policy, row in per_policy.items():
            trip = row["round_trip_s"]
            for phase in ("prepare", "commit"):
                p50 = row[f"{phase}_p50"]
                assert trip <= p50 < 1.5 * trip, (
                    f"rf={replicas} {policy}: {phase} p50 {p50} is not one "
                    f"round trip ({trip})")

    rows = concurrency(clients=(1, 16) if args.smoke else (1, 4, 16, 64))
    check_concurrency(rows)

    payload = {
        "benchmark": "cluster_txn",
        "unit": "seconds",
        "fabric_latency_s": LATENCY_S,
        "smoke": bool(args.smoke),
        "configurations": {
            str(replicas): per_policy
            for replicas, per_policy in table.items()
        },
        "concurrency": {
            "fabric_latency_s": CONCURRENCY_LATENCY_S,
            "replicas": 3,
            "keys": CONCURRENCY_KEYS,
            "clients": {str(n): row for n, row in rows.items()},
        },
    }
    return payload, format_sweep(table) + "\n" + format_concurrency(rows)


def main(argv=None) -> int:
    return bench_main("cluster_txn",
                      "Cluster 2PC fan-out benchmark (plain mode)",
                      "replication factor 3 only, fewer transactions (CI)",
                      plain_mode, argv)


if __name__ == "__main__":
    raise SystemExit(main())
