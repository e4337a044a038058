"""Per-tenant admission control: token buckets provisioned from SLAs.

The SLA model of Section 4 drives placement *a priori*; this module is
the runtime half of the contract, and every cluster runs it. Each
database that declared an SLA gets a token bucket whose refill rate is
its SLA's minimum throughput (times a headroom factor) and whose
capacity is a few seconds of burst. A transaction spends one token on
entry; an empty bucket means the tenant is offering more load than it
bought, and the transaction is turned away with a retryable
:class:`~repro.errors.OverloadRejectedError` *before* it can queue work
on any machine. Because buckets are per tenant, a stampeding tenant
drains only its own bucket — the noisy-neighbour isolation the
multi-tenant promise of the paper requires.

A tenant without an SLA (or with a zero throughput floor) bought no
rate, so there is nothing to enforce: it holds no bucket and is always
admitted — the degenerate case, not a mode.

Everything here is driven by simulated time (a ``clock`` callable, the
cluster's ``sim.now``): refill is computed lazily on access, no timers
run, no randomness is consumed, so admission changes no event ordering
for workloads that are never rejected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

if TYPE_CHECKING:  # repro.sla pulls in the profiler, which imports back
    from repro.sla.model import Sla  # into repro.cluster — break the cycle.


#: Refill-rate multiplier over the SLA's minimum throughput: the floor is
#: what the tenant *bought*; the headroom keeps admission from clipping a
#: tenant that merely runs at its floor with Poisson arrival jitter.
HEADROOM = 1.5
#: Bucket capacity in seconds of refill: how long a burst above the
#: provisioned rate is absorbed before rejections start.
BURST_S = 2.0
#: Cap on resident token buckets. Past it, the least-recently-admitted
#: tenant whose bucket has refilled to full is paged out (a paged-out
#: bucket re-materialises full on next touch — exactly the state it was
#: dropped in, so eviction never changes an admit decision).
RESIDENT_BUCKETS = 256


class TokenBucket:
    """A deterministic sim-time token bucket.

    Tokens accrue continuously at ``rate`` per simulated second up to
    ``capacity``; refill happens lazily whenever the bucket is consulted
    (no scheduled events). Buckets start full — a fresh tenant gets its
    burst allowance immediately.
    """

    def __init__(self, rate: float, capacity: float, now: float = 0.0):
        if rate <= 0:
            raise ValueError(f"refill rate must be positive: {rate}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.rate = rate
        self.capacity = capacity
        self._tokens = capacity
        self._last = now

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(self.capacity,
                               self._tokens + (now - self._last) * self.rate)
        self._last = max(self._last, now)

    def tokens_at(self, now: float) -> float:
        """Tokens available at sim time ``now`` (refills as a side effect)."""
        self._refill(now)
        return self._tokens

    def try_acquire(self, now: float, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if available; False (and no spend) otherwise."""
        self._refill(now)
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False


class AdmissionController:
    """Per-database token buckets, provisioned from each tenant's SLA.

    ``sla_lookup`` resolves a tenant's current SLA (the controller's
    registry). Buckets materialise lazily, at a tenant's first
    transaction: because a fresh bucket starts full and refill caps at
    capacity, provisioning at first touch admits exactly what
    provisioning at creation time would have — the lazy path is
    behaviourally identical, it just skips the allocation for tenants
    that never show up. :meth:`forget` drops a bucket after an SLA
    change, so the next touch re-provisions from the new one.
    """

    def __init__(self, clock: Callable[[], float],
                 sla_lookup: Callable[[str], Optional["Sla"]]):
        self.clock = clock
        self.sla_lookup = sla_lookup
        self.buckets: Dict[str, TokenBucket] = {}
        self.evicted_buckets = 0  # stat: buckets paged out by the cap

    def provisioned_rate(self, db: str) -> Optional[float]:
        """The rate ``db``'s transactions are admitted at (tps): its
        SLA's throughput floor times the headroom factor, or None for a
        tenant with no SLA or a zero floor — it bought no rate, so it is
        never throttled. Allocates nothing."""
        sla = self.sla_lookup(db)
        if sla is None or sla.min_throughput_tps <= 0:
            return None
        return sla.min_throughput_tps * HEADROOM

    def forget(self, db: str) -> None:
        self.buckets.pop(db, None)

    def admit(self, db: str) -> bool:
        """Spend one token for a new transaction of ``db``.

        A tenant with a provisioned rate and no resident bucket — never
        touched, paged out, or just given a new SLA — is provisioned on
        first sight, full, with ``BURST_S`` seconds of its rate as
        capacity (at least one whole token, so tiny floors still admit
        work). A tenant without one is admitted and allocates nothing.
        """
        bucket = self.buckets.pop(db, None)
        if bucket is None:
            rate = self.provisioned_rate(db)
            if rate is None:
                return True
            bucket = TokenBucket(rate, max(1.0, rate * BURST_S),
                                 now=self.clock())
        # Re-inserted at the back of the eviction order (dict order = LRU).
        self.buckets[db] = bucket
        decision = bucket.try_acquire(self.clock())
        if len(self.buckets) > RESIDENT_BUCKETS:
            self._evict_cold()
        return decision

    def _evict_cold(self) -> None:
        """Page out the least-recently-admitted *full* bucket.

        Only a bucket that has refilled to capacity may be dropped: it
        re-materialises in exactly that state on next touch, so the cap
        can never flip an admit decision. If every resident bucket is
        below capacity (all genuinely hot), nothing is evicted — the
        resident set is then bounded by the hot set, not the cap.
        """
        now = self.clock()
        for db, bucket in self.buckets.items():
            if bucket.tokens_at(now) >= bucket.capacity:
                del self.buckets[db]  # rebuilt from the SLA: exact
                self.evicted_buckets += 1
                return
