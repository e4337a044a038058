"""Correctness checking and measurement tools.

* :mod:`repro.analysis.history` — per-site operation histories recorded by
  engine instances.
* :mod:`repro.analysis.serialization_graph` — the paper's formal tool: the
  global serialization graph over committed transactions, whose acyclicity
  is equivalent to one-copy serializability under read-one-write-all
  (Bernstein/Hadzilacos/Goodman, as cited in Section 3.1).
* :mod:`repro.analysis.metrics` — throughput/abort/rejection counters and
  time-windowed series used by the benchmark harness.
* :mod:`repro.analysis.trace` — ring-buffered, sim-time-stamped event
  trace of the cluster's replication/2PC machinery (JSONL exportable).
* :mod:`repro.analysis.invariants` — trace-driven checker for the 2PC and
  re-replication invariants the controller design promises.
"""

from importlib import import_module

# Public name -> submodule that defines it.
_EXPORTS = {
    "GlobalHistory": "history",
    "Histogram": "metrics",
    "InvariantChecker": "invariants",
    "MetricsCollector": "metrics",
    "SerializationGraph": "serialization_graph",
    "SiteHistory": "history",
    "TimeSeries": "metrics",
    "TraceEvent": "trace",
    "Tracer": "trace",
    "Violation": "invariants",
    "check_bounds": "invariants",
    "check_controller": "invariants",
    "check_one_copy_serializable": "serialization_graph",
    "check_trace": "invariants",
    "load_jsonl": "trace",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # Submodules load on first use of one of their names, not with the
    # package: ``python -m repro.analysis.invariants`` imports the package
    # first, and runpy warns ("found in sys.modules ... unpredictable
    # behaviour") when that has already loaded the module it is to run.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
