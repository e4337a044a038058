"""Runtime SLA monitoring.

Section 4.1 defines the two SLA requirements; placement enforces them
*a priori* and admission control (:mod:`repro.cluster.admission`) at
every transaction's entry. This module closes the loop: an audit of
admission rejections against each tenant's bound, window by window, and
the availability-constraint inputs (failure rate, recovery time)
estimated from what actually happened — the "observation and
appropriate reaction" the paper's related-work section contrasts
against OS-level enforcement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Tuple

from repro.cluster.recovery import RecoveryRecord
from repro.sla.model import AvailabilityInputs


@dataclass
class SlaBreach:
    """One monitor window in which a tenant's rejection bound broke."""

    db: str
    at: float
    fraction: float
    bound: float
    within_rate: bool   # was the tenant inside its provisioned rate?


class OverloadMonitor:
    """Runtime enforcement audit of admission rejections vs SLA bounds.

    A sim process sampling the controller's per-database counters every
    ``window_s`` simulated seconds. For each database with a provisioned
    admission rate (an SLA with a non-zero floor) it emits one ``sla_window`` trace event per active window — offered
    rate, admission-rejected fraction, the tenant's bound, and whether
    the tenant stayed inside its provisioned admission rate — and an
    ``sla_breach`` event (plus a :class:`SlaBreach` record) when the
    window's rejected fraction exceeds the bound. The invariant checker
    consumes these events for the *neighbour-sla-holds-under-stampede*
    and *rejections-within-sla-bound* rules: a breach on a tenant that
    stayed within its rate is a platform bug (noisy-neighbour
    leakage), a breach on one that overran its rate is the admission
    layer doing its job.

    Only counts *admission* rejections against the windows: rejections
    from failures and copy windows are covered by the paper's
    availability formula (Section 4.1), not by overload protection, so
    a fault-injected soak does not trip the overload rules.
    """

    def __init__(self, controller, window_s: float = 1.0):
        if window_s <= 0:
            raise ValueError("window must be positive")
        self.controller = controller
        self.window_s = window_s
        self.breaches: List[SlaBreach] = []
        self.windows: int = 0
        self._proc = None
        # db -> (total_finished, overload_rejected) at the last window.
        self._last: Dict[str, Tuple[int, int]] = {}

    def start(self):
        """Spawn the monitor loop on the controller's simulator."""
        self._proc = self.controller.sim.process(self._loop(),
                                                 name="sla-monitor")
        self._proc.defused = True
        return self._proc

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("monitor stopped")
        self._proc = None

    def _loop(self) -> Generator:
        sim = self.controller.sim
        try:
            while True:
                yield sim.timeout(self.window_s)
                self._sample(sim.now)
        except Exception:
            return  # interrupted: monitor stopped

    def _sample(self, now: float) -> None:
        metrics = self.controller.metrics
        admission = self.controller.admission
        for db, sla in sorted(self.controller.slas.items()):
            rate = admission.provisioned_rate(db)
            counters = metrics.per_db.get(db)
            if rate is None or counters is None:
                continue  # never throttled, or no traffic yet
            finished, rejected = (counters.total_finished,
                                  counters.overload_rejected)
            last_finished, last_rejected = self._last.get(db, (0, 0))
            self._last[db] = (finished, rejected)
            window_finished = finished - last_finished
            window_rejected = rejected - last_rejected
            if window_finished <= 0:
                continue  # idle tenant, nothing to audit
            offered_tps = window_finished / self.window_s
            within_rate = offered_tps <= rate * 1.001
            fraction = window_rejected / window_finished
            bound = sla.max_rejected_fraction
            self.windows += 1
            self.controller.trace.emit(
                "sla_window", db=db, offered_tps=round(offered_tps, 4),
                finished=window_finished, rejected=window_rejected,
                fraction=round(fraction, 6), bound=bound,
                within_rate=within_rate, rate=round(rate, 4))
            if fraction > bound:
                self.breaches.append(SlaBreach(
                    db=db, at=now, fraction=fraction, bound=bound,
                    within_rate=within_rate))
                self.controller.trace.emit(
                    "sla_breach", db=db, fraction=round(fraction, 6),
                    bound=bound, within_rate=within_rate)


def observed_availability_inputs(
    db: str,
    records: List[RecoveryRecord],
    failures_observed: int,
    window_s: float,
    write_mix: float,
    period_s: float,
) -> AvailabilityInputs:
    """Estimate the Section 4.1 constraint inputs from observed history.

    ``records`` are the recovery manager's completed copies; the
    database's mean observed copy duration stands in for
    ``recovery_time``, and the observed failure count is extrapolated
    from the observation window to the SLA period.
    """
    mine = [r for r in records if r.db == db and r.succeeded]
    recovery_time = (sum(r.duration for r in mine) / len(mine)
                     if mine else 0.0)
    scale = period_s / window_s if window_s > 0 else 0.0
    return AvailabilityInputs(
        machine_failure_rate=failures_observed * scale,
        reallocation_rate=0.0,
        recovery_time_s=recovery_time,
        write_mix=write_mix,
    )

