"""Throughput, rejection, and deadlock accounting.

The paper reports: transactions per second (Figures 2-4, 9, Table 2),
deadlock rate (Figures 5-7), and the number of proactively rejected
transactions (Figure 8 and the availability SLA of Section 4.1).
:class:`MetricsCollector` accumulates these per database plus a
:class:`TimeSeries` view for the "during recovery" plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import log2
from typing import Any, Callable, Dict, List, Optional, Tuple


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


class Histogram:
    """Bounded latency distribution: sparse log-spaced buckets, each
    holding ``[count, sum]`` of its samples — what a phase, a tenant or
    a link keeps however long the cluster runs: 32 buckets per octave
    from 2**-30 s (under a nanosecond) to 256 s, 32 × 38 at most, and a
    real one spans a few octaves.

    A percentile is the *mean* of the bucket holding the nearest rank:
    exact whenever that bucket's samples coincide (a jitter-free
    simulated phase), otherwise between the bucket's smallest and
    largest sample, so off by less than the bucket's width —
    2**(1/32) - 1 = 2.2 % — and by about 1 % on smooth data. ``copy``
    at a mark and ``minus`` later give the distribution of what was
    observed in between.
    """

    __slots__ = ("buckets",)

    def __init__(self) -> None:
        self.buckets: Dict[int, List[float]] = {}

    def observe(self, seconds: float) -> None:
        # The 2**-30 s keeps zero loggable and the index non-negative;
        # the last bucket takes 256 s and everything longer.
        index = int(32.0 * log2(seconds + 2.0 ** -30) + 960.0)
        if index > 1215:
            index = 1215
        try:
            bucket = self.buckets[index]
        except KeyError:
            self.buckets[index] = [1, seconds]
        else:
            bucket[0] += 1
            bucket[1] += seconds

    @property
    def count(self) -> int:
        return sum(held for held, _ in self.buckets.values())

    @property
    def mean(self) -> float:
        count = self.count
        return (sum(total for _, total in self.buckets.values()) / count
                if count else 0.0)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]; 0.0 when empty."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        count = self.count
        rank = min(count, max(1, int(round(p / 100.0 * count + 0.5))))
        for _, (held, total) in sorted(self.buckets.items()):
            rank -= held
            if rank <= 0:
                return total / held
        return 0.0

    def summary(self) -> Dict[str, float]:
        return {"count": float(self.count), "mean": self.mean,
                "p50": self.percentile(50.0), "p95": self.percentile(95.0),
                "p99": self.percentile(99.0)}

    def copy(self) -> "Histogram":
        return self.minus(Histogram())

    def minus(self, earlier: "Histogram") -> "Histogram":
        """What was observed since ``earlier``, a :meth:`copy` of this
        histogram taken at some mark."""
        out = Histogram()
        for index, (held, total) in self.buckets.items():
            was_held, was_total = earlier.buckets.get(index, (0, 0.0))
            if held > was_held:
                out.buckets[index] = [held - was_held, total - was_total]
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


#: What an ``abort`` or ``rollback`` event counts, by its ``reason`` — a
#: failure's exception name after any ``stage:``. An admission rejection
#: is also a proactive rejection; a closed connection counts nothing; any
#: other name is an other-abort.
ABORT_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "connection closed": (), "client rollback": ("rollbacks",),
    "DeadlockError": ("deadlocks",), "LockTimeoutError": ("deadlocks",),
    "OverloadRejectedError": ("overload_rejected", "rejected"),
    **dict.fromkeys(("ProactiveRejectionError", "MachineFailedError",
                     "RPCTimeoutError", "NoReplicaError"), ("rejected",)),
}


def _tally(record: Any, name: str, *_event: Any) -> None:
    """An event whose every occurrence adds one to ``record.name``."""
    setattr(record, name, getattr(record, name) + 1)


class MetricsCollector:
    """Cluster-wide metrics: per-database counters plus time series.

    What a trace event states is counted by :attr:`readers` from the
    event, handed over by a ``Tracer(metrics=)``; what none states, the
    site that owns it writes into the typed records (:class:`DbCounters`
    via :meth:`db`, :attr:`network`, :attr:`fanouts`). :meth:`snapshot`
    is the one read-out.
    """

    def __init__(self, window: float = 10.0):
        self.per_db: Dict[str, DbCounters] = {}
        self.commits_over_time = TimeSeries(window)
        # Per-phase latency distributions fed by the cluster controller
        # ("write" = replica write ack, "prepare" = 2PC phase 1,
        # "commit" = 2PC phase 2, "txn" = begin-to-commit; fan-out
        # branches land under "branch:<label>").
        self.phase_latencies: Dict[str, Histogram] = {}
        # Per-database committed-transaction latency distributions, fed
        # by record_commit's response time — the tail-latency view of
        # noisy-neighbour isolation.
        self.db_latencies: Dict[str, Histogram] = {}
        # Coordinator broadcast widths per label ("prepare", "commit",
        # "commit-ro", "abort").
        self.fanouts: Dict[str, FanoutStats] = {}
        # Statement-classification cache evictions (LRU bound).
        self.stmt_cache_evictions: int = 0
        # Network-fabric accounting (only populated when the simulated
        # unreliable fabric is enabled): delivery counters plus observed
        # one-way latency per directed link ("src->dst"; the fabric
        # registers each link's histogram here when the link first
        # carries a message).
        self.network = NetworkCounters()
        self.link_latencies: Dict[str, Histogram] = {}
        # Disaster-recovery accounting (only populated by the platform
        # tier's system controller): ship/apply counters plus one
        # :class:`DrPromotion` record per colo failover.
        self.dr = DrCounters()
        self.dr_promotions: List[DrPromotion] = []
        network, dr = self.network, self.dr
        false_suspicion = partial(_tally, network, "false_suspicions")
        #: Event kind -> what counts the fact it states, called with the
        #: event's ``(t, db, machine, extra)`` (DESIGN §4r).
        self.readers: Dict[str, Callable[..., None]] = {
            "committed": self._on_committed,
            "decision_logged": lambda t, db, machine, extra:
                self.record_phase_latency("prepare", extra["prepare_latency"]),
            "fanout_start": self._on_fanout_start,
            "abort": self._on_abort,
            "rollback": self._on_abort,
            "txn_orphaned": lambda t, db, *_: _tally(self.db(db),
                                                     "other_aborts"),
            "machine_unsuspected": false_suspicion,
            "machine_readmitted": false_suspicion,
            "ctl_election_start": partial(_tally, network, "elections"),
            "ctl_leader_elected": self._on_leader_elected,
            "dr_ship": partial(_tally, dr, "shipped"),
            "dr_apply": partial(_tally, dr, "applied"),
            "colo_unsuspected": partial(_tally, dr, "false_suspicions"),
            "dr_failback": partial(_tally, dr, "failbacks"),
            "dr_promote": self._on_dr_promote,
            "dr_rto": self._on_dr_rto,
        }

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
            histogram = self.db_latencies[db] = Histogram()
        histogram.observe(response_time)

    def record_phase_latency(self, phase: str, seconds: float) -> None:
        histogram = self.phase_latencies.get(phase)
        if histogram is None:
            histogram = self.phase_latencies[phase] = Histogram()
        histogram.observe(seconds)

    def record_fanout(self, label: str, width: int) -> None:
        """One coordinator broadcast of ``width`` branches (their
        latencies are the ``branch:<label>`` phase)."""
        stats = self.fanouts.get(label)
        if stats is None:
            stats = self.fanouts[label] = FanoutStats()
        stats.count += 1
        stats.total_width += width
        stats.max_width = max(stats.max_width, width)

    # -- readers (see ``readers``) --------------------------------------------

    def _on_committed(self, t, db, machine, extra) -> None:
        self.record_commit(db, t, extra["latency"])
        if "commit_latency" in extra:
            self.record_phase_latency("commit", extra["commit_latency"])
        self.record_phase_latency("txn", extra["latency"])

    def _on_fanout_start(self, t, db, machine, extra) -> None:
        if extra["width"]:
            self.record_fanout(extra["label"], extra["width"])

    def _on_abort(self, t, db, machine, extra) -> None:
        for name in ABORT_COUNTERS.get(extra["reason"].rpartition(":")[2],
                                       ("other_aborts",)):
            _tally(self.db(db), name)

    def _on_leader_elected(self, t, db, machine, extra) -> None:
        if extra["previous"] != machine:
            self.network.leader_changes += 1

    def _on_dr_promote(self, t, db, machine, extra) -> None:
        self.dr_promotions.append(DrPromotion(
            db, extra["old"], extra["new"], extra["epoch"],
            extra["declared_at"], extra["rpo_commits"]))

    def _on_dr_rto(self, t, db, machine, extra) -> None:
        """First successful statement on ``db``'s promoted primary."""
        for promotion in self.dr_promotions:
            if promotion.db == db and promotion.rto_s is None:
                promotion.rto_s = extra["seconds"]
                return

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Everything collected, as one JSON-serialisable dict.

        ``per_db``: one row per database that finished any transaction —
        the outcome counters, the SLA's rejected fraction (and the
        admission-only subset) and the committed-transaction latency
        summary (``count, mean, p50, p95, p99``; all zero before the
        first commit). ``phases`` / ``links``: the same summary per 2PC
        phase and per directed fabric link. ``fanouts``: broadcast count
        and widths per label. ``network``: the fabric and detector
        counters. ``dr``: ship/apply totals plus, per failover, RPO
        (acked commits lost at promotion — asynchronous cross-colo
        replication makes a bounded-loss window explicit) and RTO
        (declare to first successful statement on the new primary;
        absent until a client lands one).
        """
        no_commits = Histogram()
        return {
            "per_db": {
                db: {**vars(counters),
                     "total_finished": counters.total_finished,
                     "rejected_fraction": counters.rejected_fraction(),
                     "overload_rejected_fraction":
                         counters.overload_rejected_fraction(),
                     "latency": self.db_latencies.get(
                         db, no_commits).summary()}
                for db, counters in sorted(self.per_db.items())},
            "phases": _summaries(self.phase_latencies),
            "fanouts": {label: {**vars(stats),
                                "mean_width": stats.mean_width}
                        for label, stats in sorted(self.fanouts.items())},
            "network": {**vars(self.network),
                        "delivered": self.network.delivered},
            "links": _summaries(self.link_latencies),
            "dr": {**vars(self.dr),
                   "promotions": [dict(vars(p)) for p in self.dr_promotions],
                   "rpo_commits": {p.db: p.rpo_commits
                                   for p in self.dr_promotions},
                   "rto_s": {p.db: p.rto_s for p in self.dr_promotions
                             if p.rto_s is not None}},
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


def _summaries(histograms: Dict[str, Histogram]) -> Dict[str, Dict[str, float]]:
    return {name: histogram.summary()
            for name, histogram in sorted(histograms.items())}
