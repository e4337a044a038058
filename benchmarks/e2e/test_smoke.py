"""Smoke test of the e2e benchmark, ready for a CI job to call:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py

It checks ``BENCHMARK.json`` against the fixed metric and workload names
(later issues cite them verbatim, so a rename must fail here) and runs
``run.py --smoke``: every workload, untraced and traced, tiny sizes —
schema and correctness gates only.
"""

import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))

WORKLOADS = ["tpcw_shopping", "kv_prod_write", "kv_prod_read",
             "many_tenants"]
END_TO_END = ["commits_per_wall_s", "cpu_us_per_commit", "txn_sim_ms_p50",
              "txn_sim_ms_p99", "sim_tps", "setup_s", "peak_rss_mb"]
LAYERS = ["sim", "network", "controller", "consensus", "admission",
          "machine", "engine.sql", "engine.exec", "engine.locks",
          "engine.wal", "engine.storage", "analysis", "sla", "workloads",
          "driver", "other"]
PER_LAYER = [f"{layer}.self_us_per_commit" for layer in LAYERS] + [
    "sim.events_per_commit", "network.msgs_per_commit",
    "controller.fanouts_per_commit", "consensus.commands_per_commit",
    "engine.locks.acquired_per_commit", "engine.locks.waits_per_commit",
    "engine.wal.records_per_commit", "engine.wal.flushes_per_commit",
    "engine.storage.page_accesses_per_commit",
    "analysis.trace_events_per_commit",
    "admission.rejected_fraction", "engine.locks.deadlocks",
    "engine.storage.page_hit_rate", "controller.resident_tenant_logs",
    "controller.bytes_per_staged_tenant",
    "driver.py_calls_per_commit", "driver.traced_wall_us_per_commit",
    "driver.trace_overhead_ratio", "driver.commits_per_wall_s_mean",
    "driver.wall_ms_per_100_commits_p95", "driver.wall_cpu_ratio",
    "driver.failed_fraction", "host.speed", "host.calibration_ops_per_s",
    "sim.timeout_events_per_s", "sim.process_resumes_per_s",
    "network.deliver_msgs_per_s", "engine.locks.acquire_release_per_s",
    "engine.locks.contended_handoffs_per_s",
    "engine.wal.append_flush_per_s", "engine.sql.parse_plan_per_s",
    "engine.exec.point_select_per_s", "engine.exec.update_commit_per_s",
    "consensus.commands_per_s", "analysis.trace_emit_per_s",
    "analysis.metrics_record_per_s", "sla.place_per_s_10k_bins",
    "controller.connect_per_s_20k_tenants",
]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_contract_names_and_limits():
    spec = load()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert spec["paths"] == ["benchmarks/e2e"]


def test_smoke_suite_passes_its_gates():
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=120)
    elapsed = time.perf_counter() - began
    assert done.returncode == 0, done.stdout[-4000:]
    assert "NOT comparable" in done.stdout
    assert "PROBLEMS" not in done.stdout
    for workload in WORKLOADS:
        assert f"-- {workload}:" in done.stdout
    assert elapsed <= 30.0, f"--smoke took {elapsed:.1f} s"
