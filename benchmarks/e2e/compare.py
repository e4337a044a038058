"""Alternating parent/change comparison (choosing-metrics, section 8).

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR [--pairs 10]

Both directories are checkouts holding this benchmark *unchanged* (a
change that claims a gain may not edit it). For every workload it runs
``--pairs`` pairs of untraced runs, pair ``i`` on seed ``--seed + i``,
alternating which side goes first, and prints per end-to-end metric:
each side's median and quartiles, the pairs the change won, and a
verdict —

* ``GAIN``: the change won >= 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's own
  inter-quartile spread;
* ``REGRESSION``: the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the parent's spread is wider than the bound;
* ``same``: none of the above.
"""

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List


def run(checkout: str, spec: dict, workload: str, seed: int) -> Dict[str, float]:
    done = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]),
                           "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed in {checkout}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def verdict(metric: dict, parent: List[float], change: List[float]) -> str:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    q1, p_med, q3 = statistics.quantiles(parent, n=4)
    c_med = statistics.median(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (c_med - p_med)
    text = f"change wins {wins}/{len(parent)}"
    if q3 - q1 > metric["bound"] * abs(p_med):
        return f"unresolved ({text}; parent spread exceeds the bound)"
    if -gain > metric["bound"] * abs(p_med):
        return f"REGRESSION ({text})"
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return f"GAIN ({text})"
    return f"same ({text})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for path in spec["paths"]:
        diff = filecmp.dircmp(os.path.join(args.parent, path),
                              os.path.join(args.change, path),
                              ignore=["out", "results", "__pycache__"])
        if diff.diff_files or diff.left_only or diff.right_only:
            print(f"WARNING: {path} differs between the two checkouts; "
                  "a comparison needs identical benchmark code")
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        sides: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change",
                                                                "parent"]
            for side in order:
                sides[side].append(run(getattr(args, side), spec, workload,
                                       args.seed + pair))
            print(f"  {workload} pair {pair + 1}/{args.pairs} done",
                  file=sys.stderr, flush=True)
        print(f"-- {workload}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r[name] for r in sides["parent"]]
            change = [r[name] for r in sides["change"]]
            pq, cq = (statistics.quantiles(v, n=4) for v in (parent, change))
            print(f"   {name:20s} parent {pq[1]:12.4f} [{pq[0]:.4f}, "
                  f"{pq[2]:.4f}]  change {cq[1]:12.4f} [{cq[0]:.4f}, "
                  f"{cq[2]:.4f}]  {verdict(metric, parent, change)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
