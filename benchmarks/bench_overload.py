"""Overload protection: per-tenant admission control under a stampede.

One of six tenants ramps its offered load ~100x mid-run. Two arms run
the same schedule. In ``hot_sla`` every tenant declares the same SLA,
and the hot tenant's token bucket must throttle it to its provisioned
rate (SLA throughput floor times the headroom) while every neighbour
stays inside its ``max_rejected_fraction`` bound. In ``hot_no_sla`` the
hot tenant declares none: it holds no bucket, and its goodput is what
the throttle took away. Neighbours' tail latency holds in *both* arms
(group commit left no shared log-disk bottleneck for the stampede to
saturate), so the bench claims no tail-latency contrast.

Two modes:

* ``pytest benchmarks/bench_overload.py --benchmark-only`` — a
  pytest-benchmark wrapper timing one soak per arm (deterministic
  simulation; tracks harness wall-clock);
* ``python benchmarks/bench_overload.py`` — plain mode: runs both arms,
  audits both traces with the invariant checker (including the
  *neighbour-sla-holds-under-stampede* and *rejections-within-sla-bound*
  rules), asserts the throttling shape, and writes
  ``BENCH_overload.json`` at the repository root. ``--smoke`` shrinks
  the runs for CI.
"""

import sys

import pytest

sys.path.insert(0, "src")

from repro.analysis.invariants import check_controller
from repro.harness import soaks
from repro.harness.scenario import run_scenario

#: The per-tenant SLA every database in the soak declares.
SLA_TPS = 4.0
MAX_REJECTED_FRACTION = 0.05

FULL = {"duration_s": 40.0, "ramp_at_s": 15.0}
SMOKE = {"duration_s": 24.0, "ramp_at_s": 9.0}


def run_point(hot_sla, duration_s, ramp_at_s, seed=3):
    run = run_scenario(soaks.stampede(
        hot_sla=hot_sla, duration_s=duration_s, ramp_at_s=ramp_at_s,
        sla_tps=SLA_TPS, max_rejected_fraction=MAX_REJECTED_FRACTION,
        seed=seed))
    result = soaks.stampede_report(run)
    breaches = run.parts["overload_monitor"].breaches
    violations = check_controller(run.controller)
    assert not violations, \
        "invariant violation in bench run:\n" + \
        "\n".join(str(v) for v in violations)
    per_db = {}
    for db, deltas in result.post_ramp.items():
        per_db[db] = {
            "committed": int(deltas["committed"]),
            "overload_rejected": int(deltas["overload_rejected"]),
            "overload_rejected_fraction":
                round(deltas["overload_rejected_fraction"], 6),
            "baseline_p99_s": round(result.baseline_p99.get(db, 0.0), 6),
            "stampede_p99_s": round(result.stampede_p99.get(db, 0.0), 6),
        }
    return {
        "hot_sla": bool(hot_sla),
        "hot_db": soaks.HOT_DB,
        "hot_provisioned_tps": result.hot_provisioned_tps,
        "hot_goodput_tps": round(result.hot_goodput_tps, 4),
        "hot_admitted_fraction": round(result.hot_admitted_fraction, 6),
        "neighbour_max_rejected_fraction":
            round(result.neighbour_max_rejected_fraction, 6),
        "neighbour_p99_ratio": round(result.neighbour_p99_ratio, 4),
        "shed_reads": len(run.events("shed_read")),
        "breaches": len(breaches),
        "in_rate_breaches": sum(1 for b in breaches if b.within_rate),
        "per_db": per_db,
    }


def check_shape(sla, no_sla):
    """The acceptance assertions: throttling, SLA bounds, and what the
    throttle took away."""
    # With its SLA the hot tenant is throttled to its provisioned rate
    # (a small overshoot is the token bucket's burst capacity draining).
    rate = sla["hot_provisioned_tps"]
    assert rate is not None and rate > 0
    assert sla["hot_goodput_tps"] <= rate * 1.25 + 0.5, \
        f"hot tenant not throttled: {sla['hot_goodput_tps']} tps vs " \
        f"provisioned {rate}"
    assert sla["hot_goodput_tps"] >= rate * 0.5, \
        f"hot tenant starved below its provisioned rate: " \
        f"{sla['hot_goodput_tps']} tps vs {rate}"
    # Every neighbour's admission-rejected fraction stays inside its
    # SLA bound.
    assert sla["neighbour_max_rejected_fraction"] <= MAX_REJECTED_FRACTION, \
        f"neighbour rejected fraction " \
        f"{sla['neighbour_max_rejected_fraction']} over the " \
        f"{MAX_REJECTED_FRACTION} bound"
    # Every SLA breach window belongs to a tenant over its provisioned
    # rate (the hot one); none to a tenant inside its rate.
    assert sla["in_rate_breaches"] == 0, \
        f"{sla['in_rate_breaches']} breach windows on tenants inside " \
        f"their provisioned rate"
    # The contrast: without an SLA the hot tenant has no bucket, and it
    # commits at least three times the throttled goodput.
    assert no_sla["hot_provisioned_tps"] is None
    assert no_sla["hot_goodput_tps"] >= sla["hot_goodput_tps"] * 3, \
        "the SLA-less hot tenant did not outrun the throttled one"


def format_rows(sla, no_sla):
    lines = [f"{'arm':<14}  {'hot goodput':>11}  {'provisioned':>11}  "
             f"{'nbr rej frac':>12}  {'nbr p99 ratio':>13}  {'shed':>5}"]
    for label, row in (("hot-sla", sla), ("hot-no-sla", no_sla)):
        rate = row["hot_provisioned_tps"]
        lines.append(
            f"{label:<14}  {row['hot_goodput_tps']:>11.2f}  "
            f"{rate if rate is not None else '-':>11}  "
            f"{row['neighbour_max_rejected_fraction']:>12.4f}  "
            f"{row['neighbour_p99_ratio']:>13.2f}  {row['shed_reads']:>5}")
    return "\n".join(lines)


# -- pytest-benchmark wrappers ------------------------------------------------


@pytest.mark.benchmark(group="overload")
@pytest.mark.parametrize("hot_sla", [True, False], ids=["sla", "no-sla"])
def test_bench_stampede(benchmark, hot_sla):
    result = benchmark(lambda: run_scenario(soaks.stampede(
        hot_sla=hot_sla, duration_s=20.0, ramp_at_s=8.0)))
    assert result.committed > 0


# -- plain mode ---------------------------------------------------------------


def main(argv=None) -> int:
    import argparse
    import json
    import os

    parser = argparse.ArgumentParser(
        description="Overload-protection stampede benchmark (plain mode)")
    parser.add_argument("--smoke", action="store_true",
                        help="shorter runs (CI)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: repo root)")
    args = parser.parse_args(argv)

    points = SMOKE if args.smoke else FULL
    sla = run_point(True, **points)
    no_sla = run_point(False, **points)
    check_shape(sla, no_sla)

    payload = {
        "benchmark": "overload",
        "smoke": bool(args.smoke),
        "sla": {"min_throughput_tps": SLA_TPS,
                "max_rejected_fraction": MAX_REJECTED_FRACTION},
        "hot_sla": sla,
        "hot_no_sla": no_sla,
    }
    out = args.out or os.path.normpath(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..",
        "BENCH_overload.json"))
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(format_rows(sla, no_sla))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
