"""Per-tenant admission control: token buckets provisioned from SLAs.

The SLA model of Section 4 drives placement *a priori*; this module is
the runtime half of the contract. Each database gets a token bucket
whose refill rate is its SLA's minimum throughput (times a headroom
factor) and whose capacity is a few seconds of burst. A transaction
spends one token on entry; an empty bucket means the tenant is offering
more load than it bought, and the transaction is turned away with a
retryable :class:`~repro.errors.OverloadRejectedError` *before* it can
queue work on any machine. Because buckets are per tenant, a stampeding
tenant drains only its own bucket — the noisy-neighbour isolation the
multi-tenant promise of the paper requires.

Everything here is driven by simulated time (a ``clock`` callable, the
cluster's ``sim.now``): refill is computed lazily on access, no timers
run, no randomness is consumed, so enabling admission control changes
no event ordering for workloads that are never rejected — and leaving
it disabled (the default) replays pre-admission behaviour identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:  # repro.sla pulls in the profiler, which imports back
    from repro.sla.model import Sla  # into repro.cluster — break the cycle.


#: Refill-rate multiplier over the SLA's minimum throughput: the floor is
#: what the tenant *bought*; the headroom keeps admission from clipping a
#: tenant that merely runs at its floor with Poisson arrival jitter.
HEADROOM = 1.5
#: Bucket capacity in seconds of refill: how long a burst above the
#: provisioned rate is absorbed before rejections start.
BURST_S = 2.0
#: Refill rate for databases created without an SLA (tests, ad-hoc
#: experiments): generous, so admission only bites where an SLA says it
#: should.
DEFAULT_RATE_TPS = 1000.0
#: Cap on resident token buckets. Past it, the least-recently-admitted
#: tenant whose bucket has refilled to full is paged out (a paged-out
#: bucket re-materialises full on next touch — exactly the state it was
#: dropped in, so eviction never changes an admit decision).
RESIDENT_BUCKETS = 256


@dataclass
class AdmissionConfig:
    """Knobs of the overload-protection layer (``ClusterConfig.admission``)."""

    # Read shedding: an option-1 read whose designated replica has this
    # many sim processes in flight spills to the least-loaded live
    # replica instead (0 disables the watermark check entirely).
    shed_inflight_watermark: int = 8


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

    Buckets materialise lazily: nothing is allocated for a tenant until
    its first transaction. Because a fresh bucket starts full and refill
    caps at capacity, provisioning at first touch admits exactly what
    provisioning at creation time would have — the lazy path is
    behaviourally identical, it just skips the allocation for tenants
    that never show up. ``sla_lookup`` (when given) resolves a tenant's
    current SLA at materialisation time; :meth:`invalidate` drops a
    bucket after an SLA change so the next touch re-provisions.
    """

    def __init__(self, clock: Callable[[], float],
                 sla_lookup: Optional[Callable[[str], Optional["Sla"]]] = None):
        self.clock = clock
        self.sla_lookup = sla_lookup
        self.buckets: Dict[str, TokenBucket] = {}
        self.rates: Dict[str, float] = {}
        self.evicted_buckets = 0  # stat: buckets paged out by the cap

    def _rate_for(self, sla: Optional["Sla"]) -> float:
        if sla is not None and sla.min_throughput_tps > 0:
            return sla.min_throughput_tps * HEADROOM
        return DEFAULT_RATE_TPS

    def provision(self, db: str, sla: Optional["Sla"]) -> None:
        """(Re)create ``db``'s bucket from its SLA.

        Without an SLA the tenant gets the generous default rate; with
        one, the refill is the bought throughput floor times the
        headroom factor and the capacity is ``BURST_S`` seconds of it
        (at least one whole token, so tiny floors still admit work).
        """
        rate = self.rates[db] = self._rate_for(sla)
        self.buckets[db] = TokenBucket(rate, max(1.0, rate * BURST_S),
                                       now=self.clock())

    def forget(self, db: str) -> None:
        self.buckets.pop(db, None)
        self.rates.pop(db, None)

    def invalidate(self, db: str) -> None:
        """Drop ``db``'s bucket after an SLA change; the next admit
        re-provisions from ``sla_lookup``'s current answer."""
        self.forget(db)

    def provisioned_rate(self, db: str) -> float:
        """The refill rate ``db``'s transactions are admitted at (tps).

        For a tenant whose bucket has not materialised (or was paged
        out) this is computed from the current SLA without allocating.
        """
        rate = self.rates.get(db)
        if rate is not None:
            return rate
        sla = self.sla_lookup(db) if self.sla_lookup is not None else None
        return self._rate_for(sla)

    def admit(self, db: str) -> bool:
        """Spend one token for a new transaction of ``db``.

        A database with no resident bucket — never touched, paged out,
        created before admission was enabled, or mid-takeover — is
        provisioned on first sight, full, at :meth:`provisioned_rate`
        rather than rejected.
        """
        bucket = self.buckets.pop(db, None)
        if bucket is None:
            rate = self.rates[db] = self.provisioned_rate(db)
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
                del self.buckets[db]  # rate stays: rebuild is exact
                self.evicted_buckets += 1
                return


def least_loaded(replicas: Sequence[str],
                 loads: Dict[str, int]) -> str:
    """The replica with the fewest in-flight operations (first on ties).

    Shedding must never become unavailability: even when *every*
    replica is over the watermark, the least-loaded one still serves.
    """
    if not replicas:
        raise ValueError("no replicas to choose from")
    best = replicas[0]
    best_load = loads.get(best, 0)
    for name in replicas[1:]:
        load = loads.get(name, 0)
        if load < best_load:
            best, best_load = name, load
    return best


def shed_choice(preferred: str, replicas: Sequence[str],
                loads: Dict[str, int],
                watermark: int) -> Tuple[str, bool]:
    """Load-aware final routing choice for one read.

    Keeps ``preferred`` (the read option's pick — the designated
    primary under option 1) while it is under the in-flight watermark;
    past it, the read spills to the least-loaded live replica. Returns
    ``(choice, shed)`` where ``shed`` says the preferred replica was
    abandoned under load.
    """
    if watermark <= 0 or loads.get(preferred, 0) < watermark:
        return preferred, False
    choice = least_loaded(replicas, loads)
    return choice, choice != preferred
