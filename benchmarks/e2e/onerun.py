"""One run of one workload in this process.

Phases: set-up (build + warm-up) -> measured phase of ``seconds`` wall
seconds through ``Connection`` -> drain -> correctness gate -> the
set-up again, ``SETUP_REPS`` times in all, median reported.
``trace=True`` adds a second measured phase under the profiler and the
micro pass, and reports the per-layer metrics instead of the end-to-end
ones.

**Wall vs sim.** Wall/CPU numbers come from the timed phase, cut into
``SLICE_S``-second slices, each followed by a reading of the host's
speed (:mod:`hostspeed`); the run reports the median slice *at
reference host speed* (see :class:`Slices`). Sim-time numbers come from the
*exact window*: measured-phase start until every client has finished
``exact_txns`` transactions. The loop is closed in sim time and the
kernel is deterministic, so that window holds the same events whatever
the host's speed — its statistics and ``sim_digest`` repeat exactly for
a seed, and a change that only speeds the code up leaves them identical.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import resource
import statistics
import time
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.analysis.invariants import check_trace
from repro.cluster.controller import TransactionAborted
from repro.errors import (DeadlockError, LockTimeoutError,
                          OverloadRejectedError, ProactiveRejectionError)

import layers
import micro
from hostspeed import HostSpeed
from workloads import WORKLOADS, Client, Workload, World

SLICE_S = 0.25
SETUP_REPS = 3
#: Simulator steps between two reads of the wall clock.
CHUNK = 32

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: End-to-end metric -> unit. ``failed_fraction`` is not among them: it
#: is 0 on these workloads (a metric with a relative bound must never
#: be 0); the run reports ``attempted``/``failed`` and the traced run
#: ``driver.failed_fraction``.
END_TO_END = {
    "commits_per_wall_s": "1/s",
    "cpu_us_per_commit": "us",
    "txn_sim_ms_p50": "sim-ms",
    "txn_sim_ms_p99": "sim-ms",
    "sim_tps": "1/sim-s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Exact per-commit counts of the traced run: metric -> counter.
PER_COMMIT = {
    "sim.events_per_commit": "sim.events",
    "network.msgs_per_commit": "network.msgs",
    "controller.fanouts_per_commit": "controller.fanouts",
    "consensus.commands_per_commit": "consensus.commands",
    "engine.locks.acquired_per_commit": "engine.locks.acquired",
    "engine.locks.waits_per_commit": "engine.locks.waits",
    "engine.wal.records_per_commit": "engine.wal.records",
    "engine.wal.flushes_per_commit": "engine.wal.flushes",
    "engine.storage.page_accesses_per_commit": "engine.storage.page_accesses",
    "analysis.trace_events_per_commit": "analysis.trace_events",
}

#: Per-layer metric -> unit, in reporting order.
PER_LAYER: Dict[str, str] = {
    **{f"{layer}.self_us_per_commit": "us" for layer in layers.LAYERS},
    **{name: "count" for name in PER_COMMIT},
    "admission.rejected_fraction": "ratio",
    "engine.locks.deadlocks": "count",
    "engine.storage.page_hit_rate": "ratio",
    "controller.resident_tenant_logs": "count",
    "controller.bytes_per_staged_tenant": "B",
    "driver.py_calls_per_commit": "count",
    "driver.traced_wall_us_per_commit": "us",
    "driver.trace_overhead_ratio": "ratio",
    "driver.commits_per_wall_s_mean": "1/s",
    "driver.wall_ms_per_100_commits_p95": "ms",
    "driver.wall_cpu_ratio": "ratio",
    "driver.failed_fraction": "ratio",
    "host.speed": "ratio",
    "host.calibration_ops_per_s": "1/s",
    **{name: "1/s" for name in micro.MICRO},
}

FAILURE_CAUSES = ("deadlock_timeout", "overload_rejection",
                  "proactive_rejection", "other")


def failure_cause(exc: TransactionAborted) -> str:
    cause = exc.cause
    if isinstance(cause, (DeadlockError, LockTimeoutError)):
        return "deadlock_timeout"
    if isinstance(cause, OverloadRejectedError):
        return "overload_rejection"
    if isinstance(cause, ProactiveRejectionError):
        return "proactive_rejection"
    return "other"


def percentile(ordered: List[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[min(len(ordered) - 1, int(p / 100.0 * len(ordered)))]


def audit(controller) -> list:
    """``check_controller`` over the transactions that began inside the
    trace ring.

    The ring keeps the last ``trace_capacity`` events. A transaction that
    was open when the ring's oldest event was written has lost its first
    events, and the checker's decision-before-commit rule (unlike its
    other cross-event rules) is not weakened for a truncated trace: it
    reports the commit whose decision fell off the ring. Transaction ids
    are issued in order, so every id above the largest one seen among
    the ring's first events began inside it.
    """
    trace = controller.trace
    events = trace.events()
    if trace.dropped:
        horizon = max((e.txn for e in events[:5000] if e.txn is not None),
                      default=0)
        events = [e for e in events if e.txn is None or e.txn > horizon]
    return check_trace(
        events, write_policy=controller.config.write_policy.value,
        replication_factor=controller.config.replication_factor,
        dropped=trace.dropped)


class Slices:
    """The slices of one timed phase: (wall s, CPU s, commits, host speed).

    This host's neighbours change its speed by up to 1.5x for minutes at
    a time, so a raw rate says more about the neighbours than about the
    code. Each slice's rate is therefore divided by the host speed read
    right after it, and the run reports the *median* slice: the
    collector's pauses and short stalls, which the median leaves out,
    stay visible in ``mean_per_s`` (``driver.commits_per_wall_s_mean``)
    and ``driver.wall_ms_per_100_commits_p95``.
    """

    def __init__(self, rows: List[Tuple[float, float, int, float]]):
        self.rows = [row for row in rows if row[2] > 0]
        wall = sum(row[0] for row in rows)
        self.wall_cpu = wall / max(sum(row[1] for row in rows), 1e-9)
        self.mean_per_s = sum(row[2] for row in rows) / wall
        self.host_speed = statistics.median(row[3] for row in rows)

    def commits_per_wall_s(self) -> float:
        return statistics.median(n / wall / speed
                                 for wall, _, n, speed in self.rows)

    def cpu_us_per_commit(self) -> float:
        return statistics.median(cpu / n * 1e6 * speed
                                 for _, cpu, n, speed in self.rows)


class Run:
    """One built cluster and the client loop that drives it."""

    def __init__(self, workload: Workload, seed: int, smoke: bool,
                 trace: bool, host: HostSpeed):
        self.wl = workload
        self.host = host
        self.exact_txns = 3 if smoke else workload.exact_txns
        self.warm_txns = 2 if smoke else workload.warm_txns
        self.steps = 0
        self.stop = False
        #: Sim seconds of every committed measured transaction, in
        #: completion order.
        self.latencies: List[float] = []
        self.failed = {cause: 0 for cause in FAILURE_CAUSES}
        self.updates_committed = 0
        #: perf_counter() at every 100th measured commit.
        self.marks: List[float] = []
        self.exact: Optional[Dict[str, Any]] = None

        self.world: World = workload.build(seed, smoke)
        sim = self.world.sim
        self.spans = layers.SpanRecorder(sim) if trace else None
        if trace:
            self.world.wrap_conn = self.spans.wrap
        self.go = sim.event()
        self.procs = [sim.process(self._client(c), name=f"client-{c.cid}")
                      for c in self.world.clients]
        self.warm_left = self.live = self.exact_left = len(self.procs)

    # -- the benchmark's client loop ---------------------------------------------

    def _client(self, client: Client) -> Generator:
        wl, world, sim, rng = self.wl, self.world, self.world.sim, client.rng
        rate = 1.0 / wl.think_s
        yield sim.timeout(world.settle_s + rng.uniform(0.0, wl.think_s))
        wl.open(world, client)
        for _ in range(self.warm_txns):
            yield from self._attempt(client, measured=False)
            yield sim.timeout(rng.expovariate(rate))
        self.warm_left -= 1
        yield self.go
        yield sim.timeout(rng.uniform(0.0, wl.think_s))
        done = 0
        while not self.stop:
            yield from self._attempt(client, measured=True)
            done += 1
            if done == self.exact_txns:
                self.exact_left -= 1
                if self.exact_left == 0:
                    self._close_exact_window()
            yield sim.timeout(rng.expovariate(rate))
        wl.close(world, client)
        self.live -= 1

    def _attempt(self, client: Client, measured: bool) -> Generator:
        sim = self.world.sim
        spans = self.spans if measured else None
        opened = spans.begin_txn(client) if spans else None
        began = sim.now
        try:
            yield from self.wl.txn(self.world, client)
        except TransactionAborted as exc:
            outcome = failure_cause(exc)
            if measured:
                self.failed[outcome] += 1
        else:
            outcome = "committed"
            self.updates_committed += self.wl.updates_per_txn
            if measured:
                self.latencies.append(sim.now - began)
                if len(self.latencies) % 100 == 0:
                    self.marks.append(time.perf_counter())
        if spans:
            spans.end_txn(client, opened, outcome)

    def _close_exact_window(self) -> None:
        now = layers.counters(self.world, self.steps)
        per_db = self.world.controller.metrics.per_db
        self.exact = {
            "commits": len(self.latencies),
            "latencies": list(self.latencies),
            "failed": dict(self.failed),
            "sim_s": self.world.sim.now - self.sim_began,
            "sim_now": self.world.sim.now,
            "counts": {k: now[k] - self.base[k] for k in now},
            "per_db_commits": {db: c.committed for db, c in per_db.items()},
            # Sampled here, after a fixed amount of work, not at the
            # end of the timed phase: the heap grows with every commit,
            # and how many fit into the phase depends on the host.
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    # -- pumping the simulator -----------------------------------------------------

    def _pump_until(self, done: Callable[[], bool]) -> None:
        step = self.world.sim.step
        while not done():
            step()
            self.steps += 1

    def _pump_timed(self, seconds: float, host: Optional[HostSpeed]
                    ) -> Slices:
        """Step for ``seconds`` wall seconds *and* until the exact window
        has closed; read ``host``'s speed between slices."""
        step = self.world.sim.step
        clock, cpu_clock = time.perf_counter, time.process_time
        rows = []
        wall0, cpu0, n0 = clock(), cpu_clock(), len(self.latencies)
        deadline = wall0 + seconds
        while True:
            for _ in range(CHUNK):
                step()
                self.steps += 1
            now = clock()
            if now - wall0 >= SLICE_S:
                cpu, n = cpu_clock(), len(self.latencies)
                speed = host.read() if host is not None else 1.0
                rows.append((now - wall0, cpu - cpu0, n - n0, speed))
                # The reading itself belongs to no slice.
                wall0, cpu0, n0 = clock(), cpu_clock(), n
            if now >= deadline and self.exact is not None:
                return Slices(rows)

    def warm_up(self) -> None:
        self._pump_until(lambda: self.warm_left == 0)

    def measure(self, seconds: float) -> Slices:
        gc.collect()
        self.base = layers.counters(self.world, self.steps)
        self.sim_began = self.world.sim.now
        self.go.succeed()
        return self._pump_timed(seconds, self.host)

    def measure_traced(self, seconds: float
                       ) -> Tuple[Dict[str, float], float, float]:
        """A further timed phase under the profiler.

        Returns (self us per commit by layer, traced wall-us per commit,
        function calls per commit).
        """
        profile = cProfile.Profile()
        commits, began = len(self.latencies), time.perf_counter()
        profile.enable()
        self._pump_timed(seconds, None)
        profile.disable()
        wall = time.perf_counter() - began
        commits = len(self.latencies) - commits
        seconds_by_layer, calls = layers.attribute(profile)
        rows = {layer: secs / commits * 1e6
                for layer, secs in seconds_by_layer.items()}
        return rows, wall / commits * 1e6, calls / commits

    def drain(self) -> None:
        """Let every client finish its transaction and close."""
        self.stop = True
        self._pump_until(lambda: self.live == 0)

    # -- results ---------------------------------------------------------------

    def problems(self, traced: bool) -> List[str]:
        """The correctness gate; an empty list passes."""
        found = []
        for proc in self.procs:
            if not (proc.triggered and proc.ok):
                found.append(f"{proc.name} did not end cleanly: "
                             f"{proc.value if proc.triggered else 'alive'}")
        found += self.wl.check(self.world, self.updates_committed)
        if traced:
            found += [str(v) for v in audit(self.world.controller)]
        return found

    def sim_digest(self) -> str:
        exact = self.exact
        body = json.dumps({
            "commits": exact["commits"],
            "failed": exact["failed"],
            "sim_now": repr(exact["sim_now"]),
            "per_db_commits": exact["per_db_commits"],
            "counts": exact["counts"],
            "latencies": [repr(x) for x in exact["latencies"]],
        }, sort_keys=True)
        return hashlib.sha1(body.encode()).hexdigest()[:16]


def per_layer_values(run: Run, slices: Slices, marks: List[float],
                     traced: Tuple[Dict[str, float], float, float],
                     failed_fraction: float) -> Dict[str, float]:
    """The traced run's metrics that need the cluster (all but the micro
    pass)."""
    layer_rows, traced_us, calls = traced
    counts = run.exact["counts"]
    commits = max(counts["commits"], 1)
    gaps = sorted((b - a) * 1e3 for a, b in zip(marks, marks[1:]))
    values = {f"{layer}.self_us_per_commit": us
              for layer, us in layer_rows.items()}
    values.update({metric: counts[counter] / commits
                   for metric, counter in PER_COMMIT.items()})
    values.update({
        "admission.rejected_fraction":
            counts["overload_rejected"] / max(counts["finished"], 1),
        "engine.locks.deadlocks": counts["engine.locks.deadlocks"],
        "engine.storage.page_hit_rate":
            counts["engine.storage.page_hits"]
            / max(counts["engine.storage.page_accesses"], 1),
        "controller.resident_tenant_logs":
            len(getattr(run.world.controller, "db_logs", ())),
        "driver.py_calls_per_commit": calls,
        "driver.traced_wall_us_per_commit": traced_us,
        "driver.trace_overhead_ratio": traced_us * slices.mean_per_s / 1e6,
        "driver.commits_per_wall_s_mean": slices.mean_per_s,
        "driver.wall_ms_per_100_commits_p95":
            percentile(gaps, 95) if gaps else 0.0,
        "driver.wall_cpu_ratio": slices.wall_cpu,
        "driver.failed_fraction": failed_fraction,
        "host.speed": slices.host_speed,
    })
    return values


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            process_began: float) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; returns (result line, detail for the suite).

    Raises :class:`SystemExit` with a message if the correctness gate
    fails — a failed run prints no metrics.
    """
    wl = WORKLOADS[name]
    host = HostSpeed()
    imports_s = (time.perf_counter() - process_began) * host.read()

    def set_up() -> Tuple[Run, float]:
        """Build and warm up; seconds at reference host speed."""
        speed, began = host.read(), time.perf_counter()
        built = Run(wl, seed, smoke, trace, host)
        built.warm_up()
        elapsed = time.perf_counter() - began
        return built, elapsed * (speed + host.read()) / 2.0

    run, first_build_s = set_up()
    slices = run.measure(seconds)
    marks = list(run.marks)
    traced = run.measure_traced(seconds) if trace else None
    run.drain()

    found = run.problems(traced=trace)
    if found:
        raise SystemExit("correctness gate FAILED:\n  " + "\n  ".join(found))

    exact = run.exact
    ordered = sorted(exact["latencies"])
    failed = sum(run.failed.values())
    attempted = len(run.latencies) + failed
    detail = {
        "workload": name, "seed": seed, "smoke": smoke,
        "sim_digest": run.sim_digest(),
        "exact_commits": exact["commits"],
        "samples_beyond_p99": len(ordered) - int(0.99 * len(ordered)) - 1,
        "wall_cpu_ratio": slices.wall_cpu,
        "disturbed": slices.wall_cpu > 1.05,
        "slices": len(slices.rows),
        "host_speed": slices.host_speed,
        "raw_commits_per_wall_s_mean": slices.mean_per_s,
        "failed_by_cause": run.failed,
        "profile_skipped": run.world.profile_skipped,
    }
    if not trace:
        units = END_TO_END
        values = {
            "commits_per_wall_s": slices.commits_per_wall_s(),
            "cpu_us_per_commit": slices.cpu_us_per_commit(),
            "txn_sim_ms_p50": percentile(ordered, 50) * 1e3,
            "txn_sim_ms_p99": percentile(ordered, 99) * 1e3,
            "sim_tps": exact["commits"] / exact["sim_s"],
            "peak_rss_mb": exact["peak_rss_mb"],
        }
        # Set up twice more, *after* measuring (so the measured phase
        # ran on a fresh heap), and report the median build.
        builds = [first_build_s]
        while not smoke and len(builds) < SETUP_REPS:
            run = None
            gc.collect()
            run, build_s = set_up()
            builds.append(build_s)
        values["setup_s"] = imports_s + statistics.median(builds)
    else:
        units = PER_LAYER
        values = per_layer_values(run, slices, marks, traced,
                                  failed / attempted)
        path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
        detail["spans_written"] = run.spans.dump(path)
        detail["spans_file"] = os.path.relpath(path)
        detail["layer_rows_sum_us"] = sum(traced[0].values())
        # The micro pass measures single layers, not this workload:
        # drop the cluster first so its heap does not tax the loops.
        run = None
        gc.collect()
        values["controller.bytes_per_staged_tenant"] = (
            micro.bytes_per_staged_tenant(500 if smoke else 5000))
        values["host.calibration_ops_per_s"] = micro.calibration_ops_per_s()
        values.update(micro.run_all(smoke))
    result = {
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()},
    }
    return result, detail
