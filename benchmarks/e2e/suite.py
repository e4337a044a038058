"""The suite: every workload in fresh subprocesses, round-robin.

Each repetition is its own ``run.py --workload ...`` process (fresh
imports, fresh heap, its own ``ru_maxrss``); workloads alternate so slow
drift of the host lands on all of them alike. The suite reports median,
quartiles and n per metric, insists that every repetition of a seed
produced the same ``sim_digest``, and with ``--check-repeat`` runs two
full sets and compares them against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import contract
import layers

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

#: End-to-end metrics taken on the sim clock: equal seeds, equal values.
EXACT_METRICS = ("txn_sim_ms_p50", "txn_sim_ms_p99", "sim_tps")

Outcome = Tuple[Dict[str, Any], Dict[str, Any]]     # (result, detail)

#: (layer, exact count per commit, micro unit cost) rows of the budget.
BUDGET = (
    ("sim", "sim.events_per_commit", "sim.process_resumes_per_s"),
    ("network", "network.msgs_per_commit", "network.deliver_msgs_per_s"),
    ("consensus", "consensus.commands_per_commit",
     "consensus.commands_per_s"),
    ("engine.locks", "engine.locks.acquired_per_commit",
     "engine.locks.acquire_release_per_s"),
    ("engine.wal", "engine.wal.records_per_commit",
     "engine.wal.append_flush_per_s"),
    ("analysis", "analysis.trace_events_per_commit",
     "analysis.trace_emit_per_s"),
)


def run_worker(workload: str, seed: int, trace: int, args) -> Outcome:
    cmd = [sys.executable, RUN_PY, "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    pin = None
    if args.pin is not None:
        pin = lambda: os.sched_setaffinity(0, {args.pin})  # noqa: E731
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          preexec_fn=pin)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2][len("detail: "):])
    if detail["profile_skipped"]:
        print(f"!! {workload}: PROFILE FLAGS SKIPPED: "
              + ", ".join(detail["profile_skipped"]), flush=True)
    return result, detail


def run_set(workloads: List[str], args, trace: int = 0
            ) -> Dict[str, List[Outcome]]:
    """``args.reps`` repetitions of every workload, round-robin."""
    outcomes: Dict[str, List[Outcome]] = {w: [] for w in workloads}
    for rep in range(1 if trace else args.reps):
        for workload in workloads:
            began = time.perf_counter()
            outcome = run_worker(workload, args.seed, trace, args)
            outcomes[workload].append(outcome)
            flag = " DISTURBED" if outcome[1]["disturbed"] else ""
            print(f"  {workload} rep {rep + 1} trace={trace}: "
                  f"{time.perf_counter() - began:.1f} s{flag}", flush=True)
    return outcomes


def digest_problems(outcomes: Dict[str, List[Outcome]]) -> List[str]:
    """Sim-side results must be identical across repetitions of a seed."""
    problems = []
    for workload, runs in outcomes.items():
        digests = {detail["sim_digest"] for _, detail in runs}
        if len(digests) != 1:
            problems.append(f"{workload}: sim_digest differs across "
                            f"repetitions: {sorted(digests)}")
        for metric in EXACT_METRICS:
            seen = {res["metrics"][metric]["value"] for res, _ in runs
                    if metric in res["metrics"]}
            if len(seen) > 1:
                problems.append(f"{workload}: {metric} differs across "
                                f"repetitions: {sorted(seen)}")
    return problems


def summarise(runs: List[Outcome]) -> Dict[str, Dict[str, float]]:
    out = {}
    for metric, first in runs[0][0]["metrics"].items():
        values = [res["metrics"][metric]["value"] for res, _ in runs]
        if len(values) >= 2:
            q1, median, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = median = q3 = values[0]
        out[metric] = {"median": median, "q1": q1, "q3": q3,
                       "n": len(values), "unit": first["unit"]}
    return out


def report(title: str, outcomes: Dict[str, List[Outcome]]) -> List[str]:
    lines = [f"== {title}"]
    for workload, runs in outcomes.items():
        _, detail = runs[0]
        attempted = sum(res["attempted"] for res, _ in runs)
        failed = sum(res["failed"] for res, _ in runs)
        lines.append(
            f"-- {workload}: n={len(runs)} attempted={attempted} "
            f"failed={failed} sim_digest={detail['sim_digest']} "
            f"exact_window_commits={detail['exact_commits']} "
            f"samples_beyond_p99={detail['samples_beyond_p99']}")
        for metric, row in summarise(runs).items():
            lines.append(
                f"   {metric:42s} {row['median']:16.4f} {row['unit']:8s} "
                f"[q1 {row['q1']:.4f}  q3 {row['q3']:.4f}  n {row['n']}]")
    return lines


def layer_report(outcomes: Dict[str, List[Outcome]]) -> List[str]:
    """Layer shares per workload and the predictions they were to meet."""
    lines = ["== traced run: self time by layer, share of traced wall-us "
             "per commit"]
    shares: Dict[str, Dict[str, float]] = {}
    for workload, runs in outcomes.items():
        metrics = runs[0][0]["metrics"]
        rows = {layer: metrics[f"{layer}.self_us_per_commit"]["value"]
                for layer in layers.LAYERS}
        total = sum(rows.values())
        traced = metrics["driver.traced_wall_us_per_commit"]["value"]
        shares[workload] = {k: v / total for k, v in rows.items()}
        lines.append(f"-- {workload}: rows sum {total:.1f} us = "
                     f"{total / traced:.3f} x traced wall-us per commit; "
                     f"trace overhead x"
                     f"{metrics['driver.trace_overhead_ratio']['value']:.2f}")
        for layer in layers.LAYERS:
            lines.append(f"   {layer:16s} {rows[layer]:10.1f} us "
                         f"{100 * shares[workload][layer]:6.1f} %")

    def group(workload, names):
        return sum(shares[workload][n] for n in names)

    def value(workload, metric):
        return outcomes[workload][0][0]["metrics"][metric]["value"]

    lines.append("== budget: exact count per commit x micro unit cost, "
                 "against untraced wall-us per commit")
    for workload in outcomes:
        wall_us = 1e6 / value(workload, "driver.commits_per_wall_s_mean")
        lines.append(f"-- {workload}: {wall_us:.0f} us per commit")
        predicted = 0.0
        for layer, count, unit in BUDGET:
            cost = value(workload, count) * 1e6 / value(workload, unit)
            predicted += cost
            lines.append(f"   {layer:14s} {value(workload, count):8.2f} x "
                         f"{1e6 / value(workload, unit):7.2f} us = "
                         f"{cost:8.1f} us  ({count} / {unit})")
        lines.append(f"   {'residual':14s} {wall_us - predicted:8.1f} us: "
                     "statement execution, generator resumption, "
                     "controller and machine logic, collector")

    checks = []
    if "tpcw_shopping" in shares:
        checks.append(("engine.* is the largest group on tpcw_shopping",
                       group("tpcw_shopping", layers.ENGINE_GROUP)
                       > group("tpcw_shopping", layers.CLUSTER_GROUP)))
    if "kv_prod_write" in shares:
        checks.append(("sim+network+controller+machine+consensus is the "
                       "largest group on kv_prod_write",
                       group("kv_prod_write", layers.CLUSTER_GROUP)
                       > group("kv_prod_write", layers.ENGINE_GROUP)))
    for workload in ("tpcw_shopping", "many_tenants"):
        if workload in shares:
            checks.append((f"network.msgs_per_commit = 0 on {workload}",
                           value(workload, "network.msgs_per_commit") == 0))
    if "kv_prod_read" in shares:
        checks.append(("engine.wal.flushes_per_commit = 0 on kv_prod_read",
                       value("kv_prod_read",
                             "engine.wal.flushes_per_commit") == 0))
    for workload, share in shares.items():
        checks.append((f"other <= 5 % on {workload}", share["other"] <= 0.05))
        checks.append((f"driver.failed_fraction <= 0.01 on {workload}",
                       value(workload, "driver.failed_fraction") <= 0.01))
    lines.append("== predictions (a failed one is a finding, not an error)")
    lines += [f"   [{'met' if ok else 'NOT MET'}] {text}"
              for text, ok in checks]
    return lines


def compare_sets(first: Dict[str, List[Outcome]],
                 second: Dict[str, List[Outcome]],
                 bounds: Dict[str, float]) -> Tuple[List[str], bool]:
    """Per metric x workload: relative difference of medians vs bound."""
    lines, ok = ["== repeatability: set 2 vs set 1"], True
    for workload in first:
        a, b = summarise(first[workload]), summarise(second[workload])
        for metric, bound in bounds.items():
            rel = abs(b[metric]["median"] - a[metric]["median"]) \
                / abs(a[metric]["median"])
            exact = metric in EXACT_METRICS
            good = rel == 0.0 if exact else rel <= bound
            ok = ok and good
            lines.append(
                f"   {workload:14s} {metric:20s} {a[metric]['median']:14.4f}"
                f" -> {b[metric]['median']:14.4f}  diff {100 * rel:6.2f} % "
                f"(bound {'exact' if exact else f'{100 * bound:.0f} %'}) "
                f"{'ok' if good else 'BREACH'}")
        da = first[workload][0][1]["sim_digest"]
        db = second[workload][0][1]["sim_digest"]
        ok = ok and da == db
        lines.append(f"   {workload:14s} sim_digest {da} -> {db} "
                     f"{'ok' if da == db else 'BREACH'}")
    return lines, ok


def schema_problems(outcomes: Dict[str, List[Outcome]], declared: List[dict]
                    ) -> List[str]:
    """Every run printed exactly the declared metrics, with their units."""
    want = {m["name"]: m["unit"] for m in declared}
    problems = []
    for workload, runs in outcomes.items():
        for result, _ in runs:
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(
                    f"{workload}: printed metrics differ from "
                    f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload}: not correct / nothing attempted")
    return problems


def main(args) -> int:
    spec = contract.load()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines: List[str] = []
    problems: List[str] = []

    def emit(new: List[str]) -> None:
        print("\n".join(new), flush=True)
        lines.extend(new)

    if args.layers:
        import micro
        emit(["== micro pass (best of %d)" % micro.REPEATS]
             + [f"   {name:42s} {value:16.1f} 1/s"
                for name, value in micro.run_all().items()])
        return 0

    if args.smoke:
        args.reps = 1
        emit(["SMOKE: tiny sizes, one repetition; the numbers are NOT "
              "comparable"])
    first = run_set(workloads, args)
    emit(report(f"end to end, seed {args.seed}", first))
    problems += digest_problems(first)
    problems += schema_problems(first, spec["end_to_end"])

    ok = True
    if args.check_repeat:
        second = run_set(workloads, args)
        emit(report(f"end to end, seed {args.seed}, second set", second))
        problems += digest_problems(second)
        compared, ok = compare_sets(first, second, bounds)
        emit(compared)

    if args.trace or args.smoke:
        traced = run_set(workloads, args, trace=1)
        emit(report(f"per layer (traced run + micro pass), seed {args.seed}",
                    traced))
        emit(layer_report(traced))
        problems += schema_problems(traced, spec["per_layer"])
        for workload in workloads:
            if (traced[workload][0][1]["sim_digest"]
                    != first[workload][0][1]["sim_digest"]):
                problems.append(f"{workload}: tracing changed sim_digest")

    if problems:
        emit(["== PROBLEMS"] + [f"   {p}" for p in problems])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if ok and not problems else 1
