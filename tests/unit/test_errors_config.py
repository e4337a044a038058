"""Unit tests for the error hierarchy and configuration defaults."""

import pytest

from repro import errors
from repro.cluster.config import ClusterConfig, MachineConfig
from repro.engine import engine as engine_module
from repro.engine.config import EngineConfig


class TestErrorHierarchy:
    def test_engine_errors_are_platform_errors(self):
        for exc_type in (errors.SqlError, errors.SchemaError,
                         errors.ConstraintError, errors.TransactionError,
                         errors.DeadlockError, errors.LockTimeoutError,
                         errors.WouldBlockError):
            assert issubclass(exc_type, errors.EngineError)
            assert issubclass(exc_type, errors.PlatformError)

    def test_platform_level_errors(self):
        for exc_type in (errors.ProactiveRejectionError,
                         errors.MachineFailedError, errors.NoReplicaError,
                         errors.SlaViolationError):
            assert issubclass(exc_type, errors.PlatformError)
            assert not issubclass(exc_type, errors.EngineError)

    def test_deadlock_is_not_rejection(self):
        # Section 4.1: deadlocks are inherent to the application and do
        # not count against the availability SLA.
        assert not issubclass(errors.DeadlockError,
                              errors.ProactiveRejectionError)
        assert not issubclass(errors.ProactiveRejectionError,
                              errors.EngineError)


class TestConfigDefaults:
    def test_engine_defaults_sane(self):
        config = EngineConfig()
        assert engine_module.RELEASE_READ_LOCKS_AT_PREPARE is True
        assert config.nonlocking_reads is False
        assert config.buffer_pool_pages > 0
        assert config.rows_per_page > 0
        assert config.btree_order >= 4

    def test_machine_defaults_match_paper_testbed(self):
        config = MachineConfig()
        # "two 2.80GHz Intel(R) Xeon(TM) CPUs, 4GB RAM"
        assert config.cores == 2
        assert config.memory_mb == 4096.0
        assert config.copy_bytes_factor == 1.0

    def test_cluster_defaults(self):
        config = ClusterConfig()
        # The paper's evaluation hosts 2 replicas per database.
        assert config.replication_factor == 2
        assert config.lock_wait_timeout_s > 0
        assert config.record_history is False

    def test_configs_are_independent(self):
        a = ClusterConfig()
        b = ClusterConfig()
        a.machine.engine.buffer_pool_pages = 1
        assert b.machine.engine.buffer_pool_pages != 1
