"""Per-layer measurement, all taken from outside ``src/``.

* :func:`layer_of` — source file -> layer name (the 16 ledger rows);
* :func:`counters` — exact work counts read off public stats objects;
* :func:`attribute` — profiler self time bucketed by layer, with
  built-in/stdlib time charged to the calling layer through caller
  edges;
* :class:`SpanRecorder` — txn -> statement/commit spans kept by the
  benchmark's own client loop (spans *inside* the program are a later
  change).
"""

from __future__ import annotations

import json
import os
import pstats
import time
from typing import Dict, List, Optional, Tuple

LAYERS = [
    "sim", "network", "controller", "consensus", "admission", "machine",
    "engine.sql", "engine.exec", "engine.locks", "engine.wal",
    "engine.storage", "analysis", "sla", "workloads", "driver", "other",
]

#: Layer groups the workloads are predicted to separate.
ENGINE_GROUP = ["engine.sql", "engine.exec", "engine.locks", "engine.wal",
                "engine.storage"]
CLUSTER_GROUP = ["sim", "network", "controller", "machine", "consensus"]

_HERE = os.path.dirname(os.path.abspath(__file__))

# Longest match wins; paths are relative to the ``repro`` package.
_MODULES = {
    "sim/": "sim",
    "cluster/network.py": "network",
    "cluster/controller.py": "controller",
    "cluster/routing.py": "controller",
    "cluster/replica_map.py": "controller",
    "cluster/consensus.py": "consensus",
    "cluster/admission.py": "admission",
    "cluster/machine.py": "machine",
    "engine/sqlparse/": "engine.sql",
    "engine/planner.py": "engine.sql",
    "engine/optimizer.py": "engine.sql",
    "engine/stats.py": "engine.sql",
    "engine/locks.py": "engine.locks",
    "engine/wal.py": "engine.wal",
    "engine/storage.py": "engine.storage",
    "engine/btree.py": "engine.storage",
    "engine/bufferpool.py": "engine.storage",
    # compile, executor, engine and their small helpers (types, schema,
    # transactions, config).
    "engine/": "engine.exec",
    "analysis/": "analysis",
    "sla/": "sla",
    "workloads/": "workloads",
}
_PREFIXES = sorted(_MODULES, key=len, reverse=True)


def layer_of(filename: str) -> Optional[str]:
    """Layer of a source file; ``None`` for stdlib and built-ins."""
    path = filename.replace(os.sep, "/")
    marker = path.rfind("/repro/")
    if marker >= 0:
        rel = path[marker + len("/repro/"):]
        for prefix in _PREFIXES:
            if rel.startswith(prefix):
                return _MODULES[prefix]
        return "other"
    if path.startswith(_HERE.replace(os.sep, "/")):
        return "driver"
    return None


def attribute(profile) -> Tuple[Dict[str, float], int]:
    """Seconds of profiler self time per layer (the rows sum to the
    total), and the number of function calls profiled.

    A function outside the repo (built-in, stdlib) has no layer of its
    own: each caller edge's self time goes to the caller's layer, and a
    caller that is itself outside the repo passes it on to *its*
    callers in proportion to their cumulative time on that edge.
    """
    summary = pstats.Stats(profile)
    stats = summary.stats
    out = {layer: 0.0 for layer in LAYERS}
    shares: Dict[Tuple, Dict[str, float]] = {}

    def share(func, depth=0) -> Dict[str, float]:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        shares[func] = {"other": 1.0}       # cycle / depth guard
        callers = stats.get(func, (0, 0, 0, 0, {}))[4]
        weight = sum(edge[3] for edge in callers.values())
        if depth < 8 and weight > 0:
            mix: Dict[str, float] = {}
            for caller, edge in callers.items():
                for layer, frac in share(caller, depth + 1).items():
                    mix[layer] = mix.get(layer, 0.0) + frac * edge[3] / weight
            shares[func] = mix
        return shares[func]

    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            out[layer] += tt
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if not callers or edge_total <= 0:
            out["other"] += tt
            continue
        for caller, edge in callers.items():
            for layer, frac in share(caller).items():
                out[layer] += tt * (edge[2] / edge_total) * frac
    return out, summary.total_calls


def counters(world, steps: int) -> Dict[str, float]:
    """Cumulative exact work counts, read off public stats objects."""
    controller = world.controller
    metrics = controller.metrics
    engines = [m.engine for m in controller.machines.values()]
    consensus = getattr(controller, "consensus", None)
    commands = 0
    if consensus is not None:
        commands = len(consensus.acting_node.chosen)
    per_db = metrics.per_db.values()
    trace = controller.trace
    return {
        "commits": sum(c.committed for c in per_db),
        "finished": sum(c.total_finished for c in per_db),
        "overload_rejected": sum(c.overload_rejected for c in per_db),
        "sim.events": steps,
        "network.msgs": metrics.network.messages_sent,
        "controller.fanouts": sum(f.count for f in metrics.fanouts.values()),
        "consensus.commands": commands,
        "engine.locks.acquired": sum(e.locks.stats.acquired for e in engines),
        "engine.locks.waits": sum(e.locks.stats.waits for e in engines),
        "engine.locks.deadlocks": sum(e.locks.stats.deadlocks
                                      for e in engines),
        "engine.wal.records": sum(e.wal.stats.records for e in engines),
        "engine.wal.flushes": sum(e.wal.stats.flushes for e in engines),
        "engine.storage.page_hits": sum(e.buffer_pool.stats.hits
                                        for e in engines),
        "engine.storage.page_accesses": sum(e.buffer_pool.stats.accesses
                                            for e in engines),
        "analysis.trace_events": len(trace) + trace.dropped,
    }


class SpanRecorder:
    """In-memory txn -> statement/commit spans, written as JSONL at exit.

    A span's wall interval covers whatever else the single thread ran
    between the request and its reply; the sim interval is the
    client-observed latency.
    """

    #: Transactions recorded before the recorder stops adding spans
    #: (bounds memory on a long run).
    MAX_TXNS = 5000

    def __init__(self, sim):
        self.sim = sim
        self.spans: List[Tuple] = []
        self.txns = 0

    def wrap(self, conn, client):
        return _SpanConnection(conn, client, self)

    def begin_txn(self, client) -> Optional[Tuple]:
        if self.txns >= self.MAX_TXNS:
            client.txn_span = None
            return None
        self.txns += 1
        client.txn_span = self.txns
        return (self.txns, time.perf_counter(), self.sim.now)

    def end_txn(self, client, opened: Optional[Tuple], outcome: str) -> None:
        if opened is not None:
            txn, wall0, sim0 = opened
            self.spans.append((txn, False, "txn:" + outcome, client.db,
                               wall0, time.perf_counter(), sim0,
                               self.sim.now))

    def dump(self, path: str) -> int:
        """Write the spans; a txn span is ``t<n>``, its children ``t<n>.<k>``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        children: Dict[int, int] = {}
        with open(path, "w") as fh:
            for txn, is_child, name, db, w0, w1, s0, s1 in self.spans:
                span, parent = f"t{txn}", None
                if is_child:
                    children[txn] = children.get(txn, 0) + 1
                    span, parent = f"t{txn}.{children[txn]}", span
                fh.write(json.dumps({
                    "span": span, "txn": txn, "parent": parent,
                    "name": name, "db": db, "wall_start": w0,
                    "wall_end": w1, "sim_start": s0, "sim_end": s1}) + "\n")
        return len(self.spans)


class _SpanConnection:
    """A ``Connection`` stand-in that records one span per request."""

    def __init__(self, conn, client, recorder: SpanRecorder):
        self._conn = conn
        self._client = client
        self._rec = recorder
        self.db = conn.db

    def _spanned(self, name: str, proc):
        txn = self._client.txn_span
        if txn is not None:
            rec = self._rec
            wall0, sim0, db = time.perf_counter(), rec.sim.now, self.db
            proc.add_callback(lambda _ev: rec.spans.append(
                (txn, True, name, db, wall0, time.perf_counter(), sim0,
                 rec.sim.now)))
        return proc

    def execute(self, sql: str, params=()):
        return self._spanned("statement", self._conn.execute(sql, params))

    def commit(self):
        return self._spanned("commit", self._conn.commit())

    def rollback(self):
        return self._spanned("rollback", self._conn.rollback())

    def close(self) -> None:
        self._conn.close()
