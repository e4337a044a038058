"""Log-structured delta re-replication vs the full-copy reference.

One database under steady write load loses a replica; re-replication
restores the factor. The full-copy pipeline rejects every write for the
copy's whole duration, so its rejected-write count and reject window
grow linearly with database size (``copy_bytes_factor``). The delta
pipeline dumps a snapshot at a pinned LSN without rejecting anything,
replays the retained commit log on the target, and rejects only during
the final log-drain handoff — a near-zero window independent of size.

Two modes:

* ``pytest benchmarks/bench_recovery_delta.py --benchmark-only`` — a
  pytest-benchmark wrapper timing one run per pipeline (deterministic
  simulation; tracks harness wall-clock);
* ``python benchmarks/bench_recovery_delta.py`` — plain mode: runs the
  size sweep for both pipelines, audits every run with the invariant
  checker, asserts the shape (full-copy rejections grow with size,
  delta stays near zero), and writes ``BENCH_recovery_delta.json`` at
  the repository root. ``--smoke`` shrinks the sweep for CI.
"""

import sys

import pytest

sys.path.insert(0, "src")

from repro.analysis.invariants import check_controller
from repro.harness.runner import run_delta_recovery_bench

from common import bench_main

#: Database-size scale points (bytes multiplier on the generated rows);
#: the largest lands the full copy in the paper's ~2-minutes-for-200MB
#: class.
FACTORS = (5_000.0, 20_000.0, 80_000.0)
SMOKE_FACTORS = (2_000.0, 10_000.0)


def run_point(delta, factor, duration_s=60.0):
    result = run_delta_recovery_bench(delta, copy_bytes_factor=factor,
                                      duration_s=duration_s)
    violations = check_controller(result.controller,
                                  expect_recovery_complete=True)
    assert not violations, \
        "invariant violation in bench run:\n" + \
        "\n".join(str(v) for v in violations)
    assert result.recovery_duration_s is not None, \
        f"recovery did not finish (delta={delta}, factor={factor})"
    return {
        "copy_bytes_factor": factor,
        "committed": result.committed,
        "rejections": result.rejections,
        "recovery_duration_s": round(result.recovery_duration_s, 4),
        "reject_window_s": round(result.reject_window_s, 4),
        "replayed": result.replayed,
    }


def sweep(factors, duration_s=60.0):
    """{pipeline: [row per size]} for both pipelines."""
    return {
        label: [run_point(delta, factor, duration_s=duration_s)
                for factor in factors]
        for label, delta in (("full", False), ("delta", True))
    }


def format_sweep(table):
    lines = [f"{'pipeline':<8}  {'size factor':>11}  {'rejected':>8}  "
             f"{'reject win (s)':>14}  {'recovery (s)':>12}"]
    for label, rows in table.items():
        for row in rows:
            lines.append(
                f"{label:<8}  {row['copy_bytes_factor']:>11.0f}  "
                f"{row['rejections']:>8}  {row['reject_window_s']:>14.4f}  "
                f"{row['recovery_duration_s']:>12.2f}")
    return "\n".join(lines)


def check_shape(table):
    """Delta's reject window must not scale with size; full-copy's must."""
    full, delta = table["full"], table["delta"]
    # Full copy: reject window and rejection count grow with size.
    assert full[-1]["reject_window_s"] > full[0]["reject_window_s"], \
        "full-copy reject window should grow with database size"
    assert full[-1]["rejections"] > full[0]["rejections"], \
        "full-copy rejections should grow with database size"
    # Delta: the drain window stays far below the smallest full copy
    # at every size (near-constant, near-zero).
    smallest_full = min(row["reject_window_s"] for row in full)
    for row in delta:
        assert row["reject_window_s"] < 0.25 * smallest_full, (
            f"delta reject window {row['reject_window_s']}s at factor "
            f"{row['copy_bytes_factor']} is not << full copy's "
            f"{smallest_full}s")
        assert row["rejections"] <= full[0]["rejections"], \
            "delta should reject no more than the smallest full copy"
    # Delta actually replayed the log (it did not just re-dump).
    assert all(row["replayed"] and row["replayed"] > 0 for row in delta)


# -- pytest-benchmark wrappers ------------------------------------------------


@pytest.mark.benchmark(group="recovery-delta")
@pytest.mark.parametrize("delta", [True, False], ids=["delta", "full"])
def test_bench_recovery_pipeline(benchmark, delta):
    result = benchmark(run_delta_recovery_bench, delta,
                       copy_bytes_factor=5_000.0, duration_s=30.0)
    assert result.committed > 0


# -- plain mode ---------------------------------------------------------------


def plain_mode(args):
    factors = SMOKE_FACTORS if args.smoke else FACTORS
    duration_s = 30.0 if args.smoke else 60.0
    table = sweep(factors, duration_s=duration_s)
    check_shape(table)

    payload = {
        "benchmark": "recovery_delta",
        "unit": "seconds",
        "smoke": bool(args.smoke),
        "pipelines": table,
    }
    return payload, format_sweep(table)


def main(argv=None) -> int:
    return bench_main("recovery_delta",
                      "Delta vs full-copy recovery benchmark (plain mode)",
                      "two smaller size points, shorter runs (CI)",
                      plain_mode, argv)


if __name__ == "__main__":
    raise SystemExit(main())
