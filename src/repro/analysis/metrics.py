"""Throughput, rejection, and deadlock accounting.

The paper reports: transactions per second (Figures 2-4, 9, Table 2),
deadlock rate (Figures 5-7), and the number of proactively rejected
transactions (Figure 8 and the availability SLA of Section 4.1).
:class:`MetricsCollector` accumulates these per database plus a
:class:`TimeSeries` view for the "during recovery" plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log2
from typing import Dict, List, Optional, Tuple

from repro.analysis.trace import LatencyHistogram


@dataclass
class DbCounters:
    """Per-database transaction outcome counters."""

    committed: int = 0
    deadlocks: int = 0
    rejected: int = 0          # proactive rejections (Algorithm 1 / failures)
    overload_rejected: int = 0  # subset of rejected: admission control
    rollbacks: int = 0         # voluntary client rollbacks
    other_aborts: int = 0      # platform-initiated failure aborts
    response_time_total: float = 0.0

    @property
    def total_finished(self) -> int:
        return (self.committed + self.deadlocks + self.rejected
                + self.rollbacks + self.other_aborts)

    @property
    def mean_response_time(self) -> float:
        return (self.response_time_total / self.committed
                if self.committed else 0.0)

    def rejected_fraction(self) -> float:
        """Fraction of proactively rejected transactions (the SLA metric)."""
        total = self.total_finished
        return self.rejected / total if total else 0.0

    def overload_rejected_fraction(self) -> float:
        """Fraction rejected by admission control specifically."""
        total = self.total_finished
        return self.overload_rejected / total if total else 0.0


@dataclass
class FanoutStats:
    """Scatter/gather accounting for one coordinator broadcast label."""

    count: int = 0          # fan-outs issued
    total_width: int = 0    # branches across all fan-outs
    max_width: int = 0

    @property
    def mean_width(self) -> float:
        return self.total_width / self.count if self.count else 0.0


@dataclass
class NetworkCounters:
    """Fabric-level delivery and failure-detector accounting."""

    messages_sent: int = 0
    messages_dropped: int = 0      # random loss
    messages_cut: int = 0          # lost to a partition
    rpc_timeouts: int = 0          # controller-side per-message timeouts
    rpc_retries: int = 0           # retransmissions after a timeout
    false_suspicions: int = 0      # suspected or declared, but alive
    elections: int = 0             # consensus campaigns started
    leader_changes: int = 0        # elections won by a different node

    @property
    def delivered(self) -> int:
        return self.messages_sent - self.messages_dropped - self.messages_cut


@dataclass
class DrCounters:
    """Cross-colo disaster-recovery accounting (the platform tier)."""

    shipped: int = 0               # log entries sequenced for shipping
    applied: int = 0               # log entries applied on a standby
    promotions: int = 0            # standby colos promoted to primary
    failbacks: int = 0             # re-protections onto a repaired colo
    false_suspicions: int = 0      # colo suspected/declared but alive


@dataclass
class DrPromotion:
    """One colo failover for one database.

    ``rpo_commits`` counts acknowledged commits that had not reached the
    standby at promotion time — the data-loss window. ``rto_s`` is the
    time from the declare to the first successful statement on the new
    primary; ``None`` until a client lands one.
    """

    db: str
    old_primary: str
    new_primary: str
    epoch: int
    declared_at: float
    rpo_commits: int
    rto_s: Optional[float] = None


class LinkLatency:
    """Fixed-size one-way latency summary of one directed link: a link
    carries tens of messages per commit for as long as the cluster runs,
    so it keeps their sum and a count per log-spaced bucket (eight to
    the power of two, a nanosecond to 256 s), no samples. A percentile
    is the geometric middle of its bucket (within 4.5 %), or the mean
    when one bucket holds everything — exact on a link without jitter.
    :class:`LatencyHistogram` keeps exact percentiles for the phase and
    per-database latencies; same ``summary()`` keys."""

    __slots__ = ("total", "buckets")

    def __init__(self) -> None:
        self.total = 0.0
        self.buckets = [0] * (8 * 38)

    def observe(self, seconds: float) -> None:
        self.total += seconds
        try:
            # 2**-30 s keeps zero loggable and the index non-negative.
            self.buckets[int(8.0 * log2(seconds + 2.0 ** -30) + 240.0)] += 1
        except IndexError:
            self.buckets[-1] += 1

    def summary(self) -> Dict[str, float]:
        count = sum(self.buckets)
        if not count:
            return dict.fromkeys(("count", "mean", "p50", "p95", "p99"), 0.0)
        out = {"count": float(count), "mean": self.total / count}
        for name, p in (("p50", 50.0), ("p95", 95.0), ("p99", 99.0)):
            # Nearest rank, as LatencyHistogram.percentile.
            rank = min(count, max(1, int(round(p / 100.0 * count + 0.5))))
            for index, held in enumerate(self.buckets):
                rank -= held
                if rank <= 0:
                    break
            out[name] = (out["mean"] if held == count
                         else 2.0 ** ((index - 239.5) / 8.0))
        return out


class TimeSeries:
    """Events bucketed into fixed windows of simulated time."""

    def __init__(self, window: float):
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        self.window = window
        self._buckets: Dict[int, float] = {}

    def add(self, when: float, amount: float = 1.0) -> None:
        self._buckets[int(when // self.window)] = (
            self._buckets.get(int(when // self.window), 0.0) + amount
        )

    def series(self, until: Optional[float] = None) -> List[Tuple[float, float]]:
        """(window start time, total) pairs, gaps filled with zero."""
        if not self._buckets:
            return []
        last = max(self._buckets)
        if until is not None:
            last = max(last, int(until // self.window))
        return [
            (bucket * self.window, self._buckets.get(bucket, 0.0))
            for bucket in range(0, last + 1)
        ]

    def rate_series(self, until: Optional[float] = None) -> List[Tuple[float, float]]:
        """Like :meth:`series` but values divided by the window length."""
        return [(t, v / self.window) for t, v in self.series(until)]


class MetricsCollector:
    """Cluster-wide metrics: per-database counters plus time series."""

    def __init__(self, window: float = 10.0, resident_tenants: int = 0):
        # Cap on tenants with a fully-resident latency histogram (the
        # one per-tenant structure that grows with traffic — it keeps
        # every sample). Past the cap the least-recently-committing
        # tenant's histogram is summarised (counts + percentile
        # snapshot) and its samples dropped. 0 = unbounded, the
        # replay-identical default. Counters stay exact and resident
        # either way — they are a handful of ints per tenant.
        self.resident_tenants = resident_tenants
        self.db_latency_summaries: Dict[str, Dict[str, float]] = {}
        self.db_latency_evictions = 0
        self.per_db: Dict[str, DbCounters] = {}
        self.commits_over_time = TimeSeries(window)
        self.rejections_over_time = TimeSeries(window)
        self.deadlocks_over_time = TimeSeries(window)
        # Per-phase latency distributions fed by the cluster controller
        # ("write" = replica write ack, "prepare" = 2PC phase 1,
        # "commit" = 2PC phase 2, "txn" = begin-to-commit; fan-out
        # branches land under "branch:<label>").
        self.phase_latencies: Dict[str, LatencyHistogram] = {}
        # Per-database committed-transaction latency distributions, fed
        # by record_commit's response time — the tail-latency view of
        # noisy-neighbour isolation (per_db_summary surfaces these).
        self.db_latencies: Dict[str, LatencyHistogram] = {}
        # Coordinator broadcast widths per label ("prepare", "commit",
        # "commit-ro", "abort").
        self.fanouts: Dict[str, FanoutStats] = {}
        # Statement-classification cache evictions (LRU bound).
        self.stmt_cache_evictions: int = 0
        # Network-fabric accounting (only populated when the simulated
        # unreliable fabric is enabled): delivery counters plus observed
        # one-way latency per directed link ("src->dst").
        self.network = NetworkCounters()
        self.link_latencies: Dict[str, LinkLatency] = {}
        # Disaster-recovery accounting (only populated by the platform
        # tier's system controller): ship/apply counters plus one
        # :class:`DrPromotion` record per colo failover.
        self.dr = DrCounters()
        self.dr_promotions: List[DrPromotion] = []

    def db(self, name: str) -> DbCounters:
        if name not in self.per_db:
            self.per_db[name] = DbCounters()
        return self.per_db[name]

    def record_commit(self, db: str, when: float,
                      response_time: float = 0.0) -> None:
        counters = self.db(db)
        counters.committed += 1
        counters.response_time_total += response_time
        self.commits_over_time.add(when)
        histogram = self.db_latencies.get(db)
        if histogram is None:
            histogram = self.db_latencies[db] = LatencyHistogram()
        elif self.resident_tenants > 0:
            # Refresh recency (dict order doubles as the LRU order).
            del self.db_latencies[db]
            self.db_latencies[db] = histogram
        histogram.observe(response_time)
        if 0 < self.resident_tenants < len(self.db_latencies):
            self._evict_cold_histogram()

    def _evict_cold_histogram(self) -> None:
        """Summarise and drop the least-recently-committing tenant's
        latency histogram. The snapshot (count/mean/percentiles at
        eviction time) stays addressable through
        :meth:`per_db_summary`; if the tenant heats up again a fresh
        histogram starts from its next commit."""
        cold_db = next(iter(self.db_latencies))
        histogram = self.db_latencies.pop(cold_db)
        self.db_latency_summaries[cold_db] = histogram.summary()
        self.db_latency_evictions += 1

    def record_deadlock(self, db: str, when: float) -> None:
        self.db(db).deadlocks += 1
        self.deadlocks_over_time.add(when)

    def record_rejection(self, db: str, when: float) -> None:
        self.db(db).rejected += 1
        self.rejections_over_time.add(when)

    def record_overload_rejection(self, db: str, when: float) -> None:
        """An admission-control rejection: a proactive rejection (it
        counts against the tenant's ``max_rejected_fraction``) that is
        also tallied separately, so overload throttling is
        distinguishable from failure- and copy-window rejections."""
        counters = self.db(db)
        counters.rejected += 1
        counters.overload_rejected += 1
        self.rejections_over_time.add(when)

    def record_rollback(self, db: str) -> None:
        """A voluntary client ROLLBACK (not a failure abort)."""
        self.db(db).rollbacks += 1

    def record_other_abort(self, db: str) -> None:
        self.db(db).other_aborts += 1

    def record_phase_latency(self, phase: str, seconds: float) -> None:
        histogram = self.phase_latencies.get(phase)
        if histogram is None:
            histogram = self.phase_latencies[phase] = LatencyHistogram()
        histogram.observe(seconds)

    def latency_summary(self) -> Dict[str, Dict[str, float]]:
        """{phase: {count, mean, p50, p95, p99}} for every observed phase."""
        return {phase: histogram.summary()
                for phase, histogram in sorted(self.phase_latencies.items())}

    def per_db_summary(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant outcome and latency breakdown, keyed by db name.

        One row per database that finished any transaction: the outcome
        counters, the SLA's rejected fraction (and the admission-only
        subset), and the committed-transaction latency percentiles —
        overload isolation made observable without trace parsing.
        """
        summary: Dict[str, Dict[str, object]] = {}
        for db, counters in sorted(self.per_db.items()):
            histogram = self.db_latencies.get(db)
            summary[db] = {
                "committed": counters.committed,
                "deadlocks": counters.deadlocks,
                "rejected": counters.rejected,
                "overload_rejected": counters.overload_rejected,
                "rollbacks": counters.rollbacks,
                "other_aborts": counters.other_aborts,
                "total_finished": counters.total_finished,
                "rejected_fraction": counters.rejected_fraction(),
                "overload_rejected_fraction":
                    counters.overload_rejected_fraction(),
                "latency": (histogram.summary() if histogram is not None
                            else self.db_latency_summaries.get(db)),
                "latency_summarised": (histogram is None
                                       and db in self.db_latency_summaries),
            }
        return summary

    def record_fanout(self, label: str, width: int,
                      branch_latency: Optional[float] = None) -> None:
        """One coordinator broadcast of ``width`` branches.

        Per-branch latencies arrive separately (one call per settled
        branch with ``width=0``) and feed the ``branch:<label>`` phase
        histogram.
        """
        stats = self.fanouts.get(label)
        if stats is None:
            stats = self.fanouts[label] = FanoutStats()
        if width > 0:
            stats.count += 1
            stats.total_width += width
            stats.max_width = max(stats.max_width, width)
        if branch_latency is not None:
            self.record_phase_latency(f"branch:{label}", branch_latency)

    def fanout_summary(self) -> Dict[str, Dict[str, float]]:
        """{label: {count, mean_width, max_width}} per broadcast label."""
        return {label: {"count": stats.count,
                        "mean_width": stats.mean_width,
                        "max_width": stats.max_width}
                for label, stats in sorted(self.fanouts.items())}

    def record_stmt_cache_eviction(self) -> None:
        self.stmt_cache_evictions += 1

    # -- network fabric --------------------------------------------------------

    def record_message_sent(self) -> None:
        self.network.messages_sent += 1

    def record_message_dropped(self, cut: bool = False) -> None:
        if cut:
            self.network.messages_cut += 1
        else:
            self.network.messages_dropped += 1

    def record_rpc_timeout(self, retry: bool = False) -> None:
        self.network.rpc_timeouts += 1
        if retry:
            self.network.rpc_retries += 1

    def record_false_suspicion(self) -> None:
        self.network.false_suspicions += 1

    def record_election(self) -> None:
        """A consensus controller replica started a leader campaign."""
        self.network.elections += 1

    def record_leader_change(self) -> None:
        """An election was won by a node other than the previous leader."""
        self.network.leader_changes += 1

    def record_link_latency(self, src: str, dst: str,
                            seconds: float) -> None:
        key = f"{src}->{dst}"
        histogram = self.link_latencies.get(key)
        if histogram is None:
            histogram = self.link_latencies[key] = LinkLatency()
        histogram.observe(seconds)

    def network_summary(self) -> Dict[str, object]:
        """Fabric counters plus per-link one-way latency percentiles."""
        return {
            "messages_sent": self.network.messages_sent,
            "messages_dropped": self.network.messages_dropped,
            "messages_cut": self.network.messages_cut,
            "delivered": self.network.delivered,
            "rpc_timeouts": self.network.rpc_timeouts,
            "rpc_retries": self.network.rpc_retries,
            "false_suspicions": self.network.false_suspicions,
            "elections": self.network.elections,
            "leader_changes": self.network.leader_changes,
            "links": {link: histogram.summary()
                      for link, histogram in
                      sorted(self.link_latencies.items())},
        }

    # -- disaster recovery -----------------------------------------------------

    def record_dr_ship(self) -> None:
        self.dr.shipped += 1

    def record_dr_apply(self) -> None:
        self.dr.applied += 1

    def record_dr_failback(self) -> None:
        self.dr.failbacks += 1

    def record_dr_false_suspicion(self) -> None:
        self.dr.false_suspicions += 1

    def record_dr_promotion(self, db: str, old_primary: str,
                            new_primary: str, epoch: int,
                            declared_at: float,
                            rpo_commits: int) -> DrPromotion:
        promotion = DrPromotion(db=db, old_primary=old_primary,
                                new_primary=new_primary, epoch=epoch,
                                declared_at=declared_at,
                                rpo_commits=rpo_commits)
        self.dr.promotions += 1
        self.dr_promotions.append(promotion)
        return promotion

    def record_dr_rto(self, db: str, seconds: float) -> None:
        """First successful statement on ``db``'s promoted primary."""
        for promotion in self.dr_promotions:
            if promotion.db == db and promotion.rto_s is None:
                promotion.rto_s = seconds
                return

    def dr_summary(self) -> Dict[str, object]:
        """RPO/RTO per failover plus ship/apply totals.

        RPO is measured in acked commits lost at promotion (the paper's
        asynchronous cross-colo replication makes a bounded-loss window
        explicit); RTO is declare-to-first-successful-statement seconds
        on the new primary, ``None`` if no client reached it yet.
        """
        return {
            "shipped": self.dr.shipped,
            "applied": self.dr.applied,
            "promotions": [
                {"db": p.db, "old_primary": p.old_primary,
                 "new_primary": p.new_primary, "epoch": p.epoch,
                 "rpo_commits": p.rpo_commits, "rto_s": p.rto_s}
                for p in self.dr_promotions
            ],
            "rpo_commits": {p.db: p.rpo_commits
                            for p in self.dr_promotions},
            "rto_s": {p.db: p.rto_s for p in self.dr_promotions
                      if p.rto_s is not None},
            "failbacks": self.dr.failbacks,
            "false_suspicions": self.dr.false_suspicions,
        }

    # -- aggregates -----------------------------------------------------------

    def total_committed(self) -> int:
        return sum(c.committed for c in self.per_db.values())

    def total_rejected(self) -> int:
        return sum(c.rejected for c in self.per_db.values())

    def total_deadlocks(self) -> int:
        return sum(c.deadlocks for c in self.per_db.values())

    def throughput(self, elapsed: float) -> float:
        """Committed transactions per second over ``elapsed`` sim-seconds."""
        return self.total_committed() / elapsed if elapsed > 0 else 0.0

    def deadlock_rate(self, elapsed: float) -> float:
        return self.total_deadlocks() / elapsed if elapsed > 0 else 0.0
