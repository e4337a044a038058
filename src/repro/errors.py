"""Exception hierarchy shared across the platform.

Every error a client of the platform can observe derives from
:class:`PlatformError`; engine-internal errors derive from
:class:`EngineError`. The distinction between :class:`DeadlockError`
(inherent to the application, per the paper's SLA definition) and
:class:`ProactiveRejectionError` (caused by failures/migration, counted
against the availability SLA) mirrors Section 4.1 of the paper.
"""

from __future__ import annotations


class PlatformError(Exception):
    """Base class for all errors raised by the data platform."""


class EngineError(PlatformError):
    """Base class for errors raised by the single-node DBMS engine."""


class SqlError(EngineError):
    """Malformed SQL: lexing, parsing, or binding failure."""


class SchemaError(EngineError):
    """Unknown / duplicate database, table, column, or index."""


class ConstraintError(EngineError):
    """Primary-key or not-null violation."""


class TransactionError(EngineError):
    """Illegal transaction state transition (e.g. commit after abort)."""


class DeadlockError(EngineError):
    """The transaction was chosen as a deadlock victim.

    Per Section 4.1 these are *inherent to the application* and are not
    counted as proactive rejections.
    """


class LockTimeoutError(EngineError):
    """A lock wait exceeded the configured timeout.

    Used to resolve distributed deadlocks that span machines (no single
    machine's waits-for graph contains the cycle).
    """


class WouldBlockError(EngineError):
    """Synchronous (non-simulated) execution hit a lock conflict."""


class ProactiveRejectionError(PlatformError):
    """The platform itself rejected the operation.

    Raised for writes to a table that is currently being copied
    (Algorithm 1, line 11) and for operations lost to machine failures.
    The SLA's availability requirement bounds the fraction of these.

    ``database`` tags the tenant whose SLA the rejection counts against;
    ``retryable`` tells clients whether backing off and retrying can
    succeed (a copy window passes; a machine failure may not).
    """

    def __init__(self, message: str, database: str = None,
                 retryable: bool = False):
        super().__init__(message)
        self.database = database
        self.retryable = retryable


class OverloadRejectedError(ProactiveRejectionError):
    """Admission control turned the transaction away at the door.

    The tenant's token bucket (provisioned from its SLA's minimum
    throughput plus burst headroom) was empty: the database is offering
    more load than it bought. Always retryable — tokens refill at the
    provisioned rate — and always tenant-tagged, so rejections count
    against the *overloading* tenant's ``max_rejected_fraction``, never
    a neighbour's. Subclasses :class:`ProactiveRejectionError` so every
    existing rejection-accounting path treats it as a proactive
    rejection.
    """

    def __init__(self, message: str, database: str = None,
                 retryable: bool = True):
        super().__init__(message, database=database, retryable=retryable)


class MachineFailedError(PlatformError):
    """An operation was in flight on a machine that failed."""


class RPCTimeoutError(MachineFailedError):
    """An RPC to a machine timed out after exhausting its retries.

    Subclasses :class:`MachineFailedError` because the caller cannot
    distinguish a dead machine from an unreachable one — both look like
    silence. Handlers that must be conservative about *unreachable but
    possibly alive* participants (2PC PREPARE) catch this subtype first.
    """


class ControllerFailedError(PlatformError):
    """The acting cluster controller crashed; clients must reconnect.

    Raised to clients whose connection state lived on the failed
    controller (or on one whose leader lease lapsed). The next leader —
    the restarted controller itself, in a group of one — completes or
    presumed-aborts their in-flight transactions during take-over
    (Section 2)."""


class NotLeaderError(PlatformError):
    """The contacted controller replica does not hold the leader lease.

    A client may reach a follower of the controller group (or a deposed
    or crashed leader); the error carries
    the best-known leader so the client can redirect, mirroring a Paxos
    group's NOT_MASTER response.
    """

    def __init__(self, message: str, leader: str = None):
        super().__init__(message)
        self.leader = leader


class NoReplicaError(PlatformError):
    """No live replica of the requested database exists in the cluster."""


class ColoFencedError(PlatformError):
    """The colo was fenced by the system controller after being declared.

    A fenced primary colo rejects new connections and stops shipping its
    replication log; clients must re-route through the system controller,
    which serves the database from the promoted standby colo.
    """


class SlaViolationError(PlatformError):
    """A database's SLA cannot be satisfied with available resources."""
