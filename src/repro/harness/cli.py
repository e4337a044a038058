"""Command-line interface: regenerate the paper's evaluation tables.

Usage::

    python -m repro.harness table1
    python -m repro.harness table2
    python -m repro.harness fig2 | fig3 | fig4        # throughput figures
    python -m repro.harness fig8 | fig9               # recovery figures
    python -m repro.harness faults --trace t.jsonl    # fault soak + trace
    python -m repro.harness all                       # everything quick

``--trace PATH`` exports the cluster event trace of every run as JSONL
and audits it with the 2PC invariant checker; any violated invariant
makes the command exit non-zero. The figure benchmarks under
``benchmarks/`` are the authoritative regenerators (with shape
assertions); this CLI is the quick interactive way to eyeball a table
without pytest.

:data:`COMMANDS` is the registry: one ordered table that ``--list``,
the argparse choices, ``all`` and dispatch all read. A command runs its
experiment, prints its tables and returns its invariant-violation count.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from functools import partial
from typing import Callable, Dict, Tuple

from repro.analysis.invariants import check_bounds, check_trace
from repro.cluster import ReadOption, WritePolicy
from repro.harness import experiments, soaks
from repro.harness.faults import injected
from repro.harness.reporting import format_table
from repro.harness.scenario import run_scenario
from repro.sla.model import ResourceVector
from repro.sla.optimal import first_fit_vs_optimal
from repro.workloads.tpcw import TpcwScale


def _trace_path(base: str, label: str) -> str:
    """Insert a per-run label before the extension of ``base``."""
    if not label:
        return base
    if "." in base.rsplit("/", 1)[-1]:
        stem, ext = base.rsplit(".", 1)
        return f"{stem}.{label}.{ext}"
    return f"{base}.{label}"


def _export_trace(trace, args, label: str = "", **audit) -> int:
    """Dump one tracer's events and audit them with the ``audit`` flags
    of the invariant checker; returns the violation count."""
    if not args.trace:
        return 0
    path = _trace_path(args.trace, label)
    count = trace.dump_jsonl(path)
    violations = check_trace(trace.events(), dropped=trace.dropped, **audit)
    status = "OK" if not violations else f"{len(violations)} VIOLATED"
    print(f"trace: {count} events -> {path}; invariants: {status}")
    for violation in violations[:20]:
        print(f"  {violation}")
    return len(violations)


def _export_cluster(controller, args, label: str = "",
                    expect_recovery_complete: bool = False) -> int:
    """A cluster's trace, audited under the cluster's own policy, and
    its tables, held to their bounds."""
    bounds = check_bounds(controller)
    for violation in bounds:
        print(f"  {violation}")
    return len(bounds) + _export_trace(
        controller.trace, args, label,
        write_policy=controller.config.write_policy.value,
        replication_factor=controller.config.replication_factor,
        expect_recovery_complete=expect_recovery_complete)


def cmd_table2(args) -> int:
    capacity = ResourceVector(cpu=2.0, memory_mb=1200.0, disk_io_mbps=60.0,
                              disk_mb=20000.0)
    rows = []
    for skew in (0.4, 0.8, 1.2, 1.6, 2.0):
        result = first_fit_vs_optimal(skew, n_databases=args.databases,
                                      seed=args.seed,
                                      machine_capacity=capacity,
                                      working_set_fraction=0.55)
        rows.append([result.skew, result.avg_size_mb,
                     result.avg_throughput_tps, result.machines_first_fit,
                     result.machines_optimal])
    print(format_table(
        ["Skew Factor", "Average Size (MB)", "Average Throughput (TPS)",
         "# of Machines Used", "Optimal Solution"], rows))
    return 0


def cmd_throughput(mix: str, args) -> int:
    rows = []
    violations = 0
    configs = [("no-replication", 1, ReadOption.OPTION_1),
               ("option-1", 2, ReadOption.OPTION_1),
               ("option-2", 2, ReadOption.OPTION_2),
               ("option-3", 2, ReadOption.OPTION_3)]
    for label, replicas, option in configs:
        run = run_scenario(experiments.tpcw(
            mix=mix, read_option=option,
            write_policy=WritePolicy.CONSERVATIVE,
            machines=4, databases=4, replicas=replicas,
            clients_per_db=args.clients, duration_s=args.duration,
            scale=TpcwScale(items=1200, emulated_browsers=args.clients),
            think_time_s=0.02, buffer_pool_pages=256))
        report = experiments.tpcw_report(run)
        rows.append([label, report.throughput_tps, report.buffer_hit_rate,
                     report.deadlocks])
        violations += _export_cluster(run.controller, args,
                                      label=f"{mix}-{label}")
    print(format_table(["configuration", "throughput (tps)",
                        "buffer hit rate", "deadlocks"], rows))
    return violations


def cmd_recovery(args) -> int:
    rows = []
    violations = 0
    for copy in ("table", "database"):
        for threads in (1, 2, 4):
            # Figures 8-9 measure Algorithm 1's full copies: the reject
            # window *is* the quantity under study.
            run = run_scenario(experiments.recovery(
                copy=copy, recovery_threads=threads,
                duration_s=args.duration, failure_time_s=20.0,
                copy_bytes_factor=2000.0))
            report = experiments.recovery_report(run)
            rows.append([copy, threads,
                         report.mean_rejections_per_db,
                         report.throughput_before_tps,
                         report.throughput_during_tps,
                         report.throughput_after_tps])
            violations += _export_cluster(run.controller, args,
                                          label=f"{copy}-{threads}")
    print(format_table(
        ["copy granularity", "recovery threads", "rejections/db",
         "tps before", "tps during", "tps after"], rows))
    return violations


def cmd_delta(args) -> int:
    """Log-structured delta recovery vs the full-copy reference."""
    rows = []
    violations = 0
    for label, copy in (("full-copy", "database"), ("delta", "delta")):
        # Enough recovery threads that every database affected by the
        # failure starts copying immediately, and a copy size small
        # enough that concurrent copies (which contend for disk I/O on
        # shared targets) all drain to full re-protection within the
        # run — the trace is audited with expect_recovery_complete.
        run = run_scenario(experiments.recovery(
            copy=copy, recovery_threads=4, duration_s=args.duration * 2,
            failure_time_s=5.0, copy_bytes_factor=800.0))
        report = experiments.recovery_report(run)
        rows.append([label, report.rejections_total,
                     report.throughput_during_tps,
                     report.recovery_complete_time, len(run.recoveries)])
        violations += _export_cluster(run.controller, args, label=label,
                                      expect_recovery_complete=True)
    print(format_table(
        ["pipeline", "rejections", "tps during", "recovered at (s)",
         "recoveries"], rows))
    return violations


def cmd_faults(args) -> int:
    """MTBF-driven failure soak; the flagship --trace demonstration."""
    run = run_scenario(soaks.faults(
        duration_s=args.duration * 2, drain_s=args.duration,
        mtbf_s=args.mtbf, seed=args.seed))
    print(format_table(
        ["failures", "committed", "aborted", "rejected", "tps",
         "recoveries"],
        [[len(injected(run.applied, "fail")), run.committed, run.aborted,
          run.rejections, run.throughput_tps, len(run.recoveries)]]))
    latencies = run.metrics.snapshot()["phases"]
    if latencies:
        print(format_table(
            ["phase", "count", "mean (s)", "p50 (s)", "p95 (s)", "p99 (s)"],
            [[phase, int(stats["count"]), stats["mean"], stats["p50"],
              stats["p95"], stats["p99"]]
             for phase, stats in latencies.items()]))
    return _export_cluster(run.controller, args,
                           expect_recovery_complete=True)


def cmd_stampede(args) -> int:
    """Noisy-neighbour stampede: the hot tenant with its SLA (throttled)
    and without one (unthrottled)."""
    violations = 0
    for label, hot_sla in (("hot-sla", True), ("hot-no-sla", False)):
        run = run_scenario(soaks.stampede(
            hot_sla=hot_sla, duration_s=args.duration * 3,
            ramp_at_s=args.duration, mtbf_s=args.stampede_mtbf,
            drain_s=args.duration if args.stampede_mtbf else 0.0,
            seed=args.seed))
        report = soaks.stampede_report(run)
        print(f"-- {label} --")
        print(format_table(
            ["hot goodput (tps)", "provisioned (tps)", "admitted frac",
             "worst nbr rej frac", "worst nbr p99 ratio", "shed reads",
             "breaches", "failures"],
            [[report.hot_goodput_tps,
              "-" if report.hot_provisioned_tps is None
              else report.hot_provisioned_tps,
              report.hot_admitted_fraction,
              report.neighbour_max_rejected_fraction,
              report.neighbour_p99_ratio, len(run.events("shed_read")),
              len(run.parts["overload_monitor"].breaches),
              len(injected(run.applied, "fail"))]]))
        summary = run.metrics.snapshot()["per_db"]
        print(format_table(
            ["db", "committed", "overload rejected", "rejected frac",
             "baseline p99 (s)", "stampede p99 (s)"],
            [[db, row["committed"], row["overload_rejected"],
              row["overload_rejected_fraction"],
              report.baseline_p99.get(db, 0.0),
              report.stampede_p99.get(db, 0.0)]
             for db, row in summary.items()]))
        violations += _export_cluster(run.controller, args, label=label)
    return violations


def _print_network(metrics) -> None:
    """Fabric delivery counters and per-link latency percentiles."""
    snapshot = metrics.snapshot()
    summary, links = snapshot["network"], snapshot["links"]
    print(format_table(
        ["sent", "delivered", "dropped", "cut", "rpc timeouts",
         "rpc retries", "false suspicions", "elections", "leader changes"],
        [[summary["messages_sent"], summary["delivered"],
          summary["messages_dropped"], summary["messages_cut"],
          summary["rpc_timeouts"], summary["rpc_retries"],
          summary["false_suspicions"], summary["elections"],
          summary["leader_changes"]]]))
    if links:
        # Busiest links only; a 6-machine soak has dozens of directions.
        busiest = sorted(links.items(), key=lambda kv: -kv[1]["count"])[:8]
        print(format_table(
            ["link", "messages", "mean (s)", "p50 (s)", "p99 (s)"],
            [[link, int(stats["count"]), stats["mean"], stats["p50"],
              stats["p99"]] for link, stats in busiest]))


def cmd_partitions(args) -> int:
    """Unreliable-fabric soak: partitions, silent crashes, takeover."""
    run = run_scenario(soaks.partitions(
        duration_s=args.duration * 2, drain_s=max(args.duration, 30.0),
        partition_mtbf_s=args.mtbf, seed=args.seed))
    print(format_table(
        ["link cuts", "splits", "crashes", "repairs", "committed", "aborted",
         "rejected", "tps", "recoveries"],
        [[len(injected(run.applied, "cut")),
          len(injected(run.applied, "split")),
          len(injected(run.applied, "crash")),
          len(injected(run.applied, "repair")), run.committed, run.aborted,
          run.rejections, run.throughput_tps, len(run.recoveries)]]))
    print(format_table(
        ["suspected", "declared", "readmitted", "takeover commits",
         "takeover aborts"],
        [[len(run.events("machine_suspected")),
          len(run.events("machine_declared")),
          len(run.events("machine_readmitted")),
          len(run.events("takeover_commit")),
          len(run.events("takeover_abort"))]]))
    _print_network(run.metrics)
    return _export_cluster(run.controller, args,
                           expect_recovery_complete=True)


def cmd_controllers(args) -> int:
    """Controller-churn soak on the production controller group."""
    run = run_scenario(soaks.controllers(
        duration_s=args.duration * 2, drain_s=max(args.duration, 15.0),
        ctl_kill_mtbf_s=args.mtbf, seed=args.seed))
    network = run.metrics.network
    print(format_table(
        ["ctl kills", "ctl link cuts", "elections", "leader changes",
         "takeovers", "orphaned txns"],
        [[len(injected(run.applied, "kill_ctl")),
          len(injected(run.applied, "cut")), network.elections,
          network.leader_changes, len(run.events("ctl_takeover")),
          len(run.events("txn_orphaned"))]]))
    print(format_table(
        ["committed", "aborted", "reconnects", "recoveries"],
        [[run.committed, run.aborted,
          sum(s.reconnects for s in run.stats), len(run.recoveries)]]))
    _print_network(run.metrics)
    return _export_cluster(run.controller, args,
                           expect_recovery_complete=True)


def cmd_disaster(args) -> int:
    """Cross-colo DR soak: lossy WAN, colo kill, fenced failover."""
    run = run_scenario(soaks.disaster(
        duration_s=args.duration * 2, drain_s=max(args.duration, 20.0),
        wan_partition_mtbf_s=args.mtbf, seed=args.seed))
    result = soaks.disaster_report(run)
    print(format_table(
        ["wan partitions", "committed", "aborted", "colo killed",
         "suspected", "declared", "promotions", "failbacks"],
        [[len(injected(run.applied, "cut", "split")), run.committed,
          run.aborted, result.colo_killed, result.suspected_total,
          len(result.declared), result.promotions, result.failbacks]]))
    summary = result.dr
    print(format_table(
        ["shipped", "applied", "false suspicions"],
        [[summary["shipped"], summary["applied"],
          summary["false_suspicions"]]]))
    if summary["promotions"]:
        print(format_table(
            ["db", "old primary", "new primary", "epoch", "RPO (commits)",
             "RTO (s)"],
            [[p["db"], p["old_primary"], p["new_primary"], p["epoch"],
              p["rpo_commits"],
              "-" if p["rto_s"] is None else p["rto_s"]]
             for p in summary["promotions"]]))
    print(format_table(
        ["db", "replication lag"],
        [[db, lag] for db, lag in sorted(result.replication_lag.items())]))
    _print_network(run.metrics)
    # The system tier has its own tracer; audit with the DR rules armed
    # (a drained soak must end with every live link caught up).
    return _export_trace(run.controller.trace, args, expect_lag_drained=True)


def cmd_clustertxn(args) -> int:
    """2PC phase latency against its analytic one-round-trip cost."""
    rows = []
    for replicas in (2, 3, 5):
        for policy in (WritePolicy.AGGRESSIVE, WritePolicy.CONSERVATIVE):
            result = experiments.commit_latency_report(run_scenario(
                experiments.commit_latency(replicas=replicas,
                                           write_policy=policy,
                                           seed=args.seed)))
            rows.append([replicas, policy.value,
                         result.p50("prepare"), result.p50("commit"),
                         result.round_trip_s, result.serial_phase_s,
                         result.committed])
    print(format_table(
        ["rf", "policy", "prepare p50", "commit p50", "round trip (2L)",
         "serial phase (rf*2L)", "committed"],
        rows))
    return 0


def cmd_many_tenants(args) -> int:
    """Tenant-scale soak: mostly-cold tenants on the lazy fast path."""
    run = run_scenario(soaks.many_tenants(n_databases=args.tenants,
                                          duration_s=args.duration * 2,
                                          flash_at_s=args.duration,
                                          seed=args.seed))
    result = soaks.many_tenants_report(run)
    print(format_table(
        ["tenants", "hot", "committed", "tps", "churn +/-",
         "flash 1st commit (s)", "flash committed"],
        [[result.n_databases, result.hot_tenants, result.committed,
          result.throughput_tps,
          f"+{result.churn_creates}/-{result.churn_drops}",
          "-" if result.flash_first_commit_s is None
          else result.flash_first_commit_s,
          result.flash_committed]]))
    print(format_table(
        ["resident logs", "log entries", "lsn maps", "admission buckets",
         "latency histograms", "cold engines", "paged out"],
        [[result.resident_db_logs, result.resident_log_entries,
          result.resident_replica_lsn_maps,
          result.resident_admission_buckets,
          result.resident_latency_histograms, result.cold_engine_tenants,
          result.paged_out_logs]]))
    return _export_cluster(run.controller, args)


#: The checkout's ``benchmarks/`` directory, beside ``src/``.
BENCHMARKS = pathlib.Path(__file__).resolve().parents[3] / "benchmarks"


def cmd_table1(args) -> int:
    # Import lazily: the benchmark module carries the implementation.
    if not (BENCHMARKS / "bench_table1_serializability.py").exists():
        print(f"table1 needs {BENCHMARKS}/bench_table1_serializability.py "
              "(a source checkout; an installed package has no benchmarks/)")
        return 1
    if str(BENCHMARKS) not in sys.path:
        sys.path.insert(0, str(BENCHMARKS))
    from bench_table1_serializability import regenerate_table1
    table, _ = regenerate_table1()
    print(table)
    return 0


#: name -> (help, banner, command(args) -> violations), in the order
#: ``--list`` prints and ``all`` runs them.
COMMANDS: Dict[str, Tuple[str, str, Callable[[argparse.Namespace], int]]] = {
    "table1": ("serializability matrix for the read/write policy options",
               "== Table 1: serializability matrix ==", cmd_table1),
    "table2": ("SLA-driven placement vs optimal bin packing",
               "\n== Table 2: SLA placement ==", cmd_table2),
    **{fig: (f"TPC-W {mix}-mix throughput across replication options",
             f"\n== {fig.upper()}: throughput, {mix} mix ==",
             partial(cmd_throughput, mix))
       for fig, mix in (("fig2", "shopping"), ("fig3", "browsing"),
                        ("fig4", "ordering"))},
    "fig8-9": ("recovery throughput/rejections by copy granularity",
               "\n== Figures 8-9: recovery ==", cmd_recovery),
    "delta": ("log-structured delta recovery vs the full-copy reference",
              "\n== Delta recovery: log-structured vs full copy ==",
              cmd_delta),
    "faults": ("MTBF failure soak with recovery (trace/invariant demo)",
               "\n== Fault soak: MTBF failures with recovery ==", cmd_faults),
    "stampede": ("noisy-neighbour stampede soak: per-tenant admission "
                 "control, read shedding, SLA-bound rejections",
                 "\n== Stampede soak: the hot tenant with and without "
                 "its SLA ==", cmd_stampede),
    "partitions": ("unreliable-fabric soak: partitions, heartbeat "
                   "detection, fencing, leader-kill takeover",
                   "\n== Partition soak: unreliable fabric, detection, "
                   "takeover ==", cmd_partitions),
    "controllers": ("controller-kill soak: multi-Paxos elections, leader "
                    "leases, take-over cleanup",
                    "\n== Controller soak: Paxos elections, leases, "
                    "take-over ==", cmd_controllers),
    "disaster": ("cross-colo DR soak: lossy WAN log shipping, colo kill, "
                 "fenced failover, re-protection, RPO/RTO",
                 "\n== Disaster soak: WAN shipping, colo failover, "
                 "RPO/RTO ==", cmd_disaster),
    "clustertxn": ("2PC phase latency of the commit fan-out vs its "
                   "analytic one-round-trip cost",
                   "\n== Cluster commit: fan-out phase latency ==",
                   cmd_clustertxn),
    "manytenants": ("tenant-scale soak: thousands of mostly-cold tenants "
                    "on the lazy fast path, with churn and a flash crowd",
                    "\n== Many tenants: lazy fast path at tenant scale ==",
                    cmd_many_tenants),
}
ALL = ("all", "every experiment above, quick settings")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness",
        description="Regenerate the paper's evaluation tables")
    parser.add_argument("experiment", nargs="?",
                        choices=[*COMMANDS, ALL[0]])
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--duration", type=float, default=12.0,
                        help="simulated seconds per run")
    parser.add_argument("--clients", type=int, default=4,
                        help="emulated browsers per database")
    parser.add_argument("--databases", type=int, default=20,
                        help="tenant databases for placement experiments")
    parser.add_argument("--tenants", type=int, default=2000,
                        help="staged tenants for the manytenants soak")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--trace", metavar="PATH",
                        help="export each run's event trace as JSONL and "
                             "audit it with the 2PC invariant checker "
                             "(non-zero exit on violations)")
    parser.add_argument("--mtbf", type=float, default=8.0,
                        help="mean time between failures for the faults "
                             "experiment (simulated seconds)")
    parser.add_argument("--stampede-mtbf", type=float, default=None,
                        help="layer random machine failures (mean seconds "
                             "between) on the stampede soak; off by default")
    args = parser.parse_args(argv)

    if args.list:
        listing = [*((name, c[0]) for name, c in COMMANDS.items()), ALL]
        width = max(len(name) for name, _ in listing)
        for name, description in listing:
            print(f"{name:<{width}}  {description}")
        return 0
    if args.experiment is None:
        parser.error("the following arguments are required: experiment")

    chosen = COMMANDS if args.experiment == ALL[0] else [args.experiment]
    violations = 0
    for name in chosen:
        _help, banner, command = COMMANDS[name]
        print(banner)
        violations += command(args)
    if violations:
        print(f"\n{violations} invariant violation(s) detected")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
