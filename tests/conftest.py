"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
from typing import Optional

import pytest
from hypothesis import settings

from repro.cluster import ClusterConfig, ClusterController, ReadOption, WritePolicy
from repro.engine import Engine
from repro.sim import Simulator

# Tier-1 runs Hypothesis unseeded so it keeps exploring; a failure
# prints the @reproduce_failure blob, which replays it from the log.
settings.register_profile("tier1", print_blob=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def engine():
    """A standalone engine with a simple kv database."""
    eng = Engine("test-engine")
    eng.create_database("db")
    txn = eng.begin()
    eng.execute_sync(txn, "db",
                     "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
    for k in range(20):
        eng.execute_sync(txn, "db", "INSERT INTO kv VALUES (?, ?)", (k, k * 10))
    eng.commit(txn)
    return eng


def make_cluster(sim: Simulator, machines: int = 3,
                 read_option: ReadOption = ReadOption.OPTION_1,
                 write_policy: WritePolicy = WritePolicy.CONSERVATIVE,
                 record_history: bool = False,
                 lock_wait_timeout_s: float = 2.0,
                 profile: Optional[ClusterConfig] = None,
                 **config_kwargs) -> ClusterController:
    """A cluster on ``profile`` (default: the default configuration; the
    one we would run is ``repro.cluster.config.production_profile``)
    with what the test varies replaced."""
    config = dataclasses.replace(profile or ClusterConfig(),
                                 read_option=read_option,
                                 write_policy=write_policy,
                                 record_history=record_history,
                                 lock_wait_timeout_s=lock_wait_timeout_s,
                                 **config_kwargs)
    controller = ClusterController(sim, config)
    controller.add_machines(machines)
    return controller


def make_kv_cluster(sim: Simulator, keys: int = 20, machines: int = 3,
                    replicas: int = 2, **kwargs) -> ClusterController:
    controller = make_cluster(sim, machines=machines, **kwargs)
    controller.create_database(
        "kv", ["CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"],
        replicas=replicas)
    controller.bulk_load("kv", "kv", [(k, 0) for k in range(keys)])
    return controller


def read_table(controller: ClusterController, machine_name: str, db: str,
               sql: str):
    """Directly query one machine's engine (verification helper)."""
    engine = controller.machines[machine_name].engine
    txn = engine.begin()
    try:
        return engine.execute_sync(txn, db, sql).rows
    finally:
        engine.commit(txn)


def assert_no_violations(controller: ClusterController, **kwargs) -> None:
    """Run the 2PC invariant checker over the controller's trace."""
    from repro.analysis.invariants import check_controller

    violations = check_controller(controller, **kwargs)
    assert not violations, "\n".join(str(v) for v in violations)
