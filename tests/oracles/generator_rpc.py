"""The generator RPC the controller used before PR 20, verbatim.

One logical call was a coordinator process (or a ``yield from`` inside the
caller's) running ``_rpc``: per attempt a request leg through
``fabric.deliver``, ``machine.submit_rpc``, an ``AnyOf`` of a ``settled``
relay event and a deadline timer, a reply leg, and ``wait_out_deadline``
for every kind of silence. Production's ``repro.cluster.controller._Rpc``
is a callback state machine over ``fabric.post``;
``tests/property/test_rpc_property.py`` runs one scripted scenario on both.

:class:`GeneratorRpc` borrows the collaborators of the controller's
``RpcLayer`` so the two methods below read exactly as they did inside
``ClusterController``.
"""

from typing import Generator, Optional

from repro.cluster.controller import RPC_MAX_RETRIES
from repro.cluster.machine import Machine
from repro.cluster.network import CONTROLLER
from repro.errors import MachineFailedError, RPCTimeoutError
from repro.sim import Interrupt

# Sentinel: an RPC attempt produced silence (drop, partition, dead or
# fenced machine, or an over-deadline execution) rather than an answer.
_RPC_TIMED_OUT = object()


class GeneratorRpc:
    def __init__(self, rpc_layer):
        self.sim = rpc_layer.sim
        self.config = rpc_layer.config
        self.fabric = rpc_layer.fabric
        self.metrics = rpc_layer.metrics
        self._msg_ids = rpc_layer._msg_ids

    def _rpc(self, machine: Machine, make_body, *, txn_id: int, label: str,
             timeout: Optional[float] = None,
             retries: Optional[int] = None) -> Generator:
        net = self.config.network
        timeout = net.rpc_timeout_s if timeout is None else timeout
        retries = RPC_MAX_RETRIES if retries is None else retries
        msg_id = next(self._msg_ids)  # stable across retransmissions
        attempt = 0
        while True:
            attempt += 1
            outcome = yield from self._rpc_attempt(machine, make_body, msg_id,
                                                   txn_id, label, timeout)
            if outcome is not _RPC_TIMED_OUT:
                ok, value = outcome
                if ok:
                    return value
                raise value
            self.metrics.network.rpc_timeouts += 1
            if attempt > retries:
                raise RPCTimeoutError(
                    f"{label} to {machine.name} timed out "
                    f"after {attempt} attempts")
            self.metrics.network.rpc_retries += 1
            yield self.sim.timeout(self.fabric.backoff_delay(attempt))

    def _rpc_attempt(self, machine: Machine, make_body, msg_id: int,
                     txn_id: int, label: str, timeout: float) -> Generator:
        """One send/execute/reply round. Returns ``_RPC_TIMED_OUT`` or
        ``(ok, value)``; a machine that is dead or fenced answers with
        silence, never an error (the caller cannot tell the difference)."""
        started = self.sim.now

        def wait_out_deadline():
            remaining = started + timeout - self.sim.now
            if remaining > 0:
                yield self.sim.timeout(remaining)

        delivered = yield from self.fabric.deliver(CONTROLLER, machine.name)
        if not delivered or not machine.alive or machine.fenced:
            yield from wait_out_deadline()
            return _RPC_TIMED_OUT
        proc = machine.submit_rpc(msg_id, txn_id, make_body, label=label)
        proc.defused = True
        if not proc.triggered:
            settled = self.sim.event()
            proc.add_callback(lambda p, e=settled: e.succeed(p))
            deadline = self.sim.timeout(max(0.0,
                                            started + timeout - self.sim.now))
            yield self.sim.any_of([settled, deadline])
            if not proc.triggered:
                # Still executing at the deadline. Execution continues
                # server-side; the retransmission finds its cached result.
                return _RPC_TIMED_OUT
        if not machine.alive or machine.fenced:
            # Finished (or was interrupted) but the machine can no longer
            # answer: silence.
            yield from wait_out_deadline()
            return _RPC_TIMED_OUT
        delivered = yield from self.fabric.deliver(machine.name, CONTROLLER)
        if not delivered:
            yield from wait_out_deadline()
            return _RPC_TIMED_OUT
        if proc.ok:
            return (True, proc.value)
        exc = proc.value
        if isinstance(exc, Interrupt):
            cause = exc.cause
            exc = (cause if isinstance(cause, BaseException)
                   else MachineFailedError(machine.name))
        return (False, exc)
