"""Simulated unreliable network fabric between cluster endpoints.

Every controller↔machine interaction — statement RPCs, 2PC PREPARE /
COMMIT / abort messages, heartbeats, and the dump/load copy streams of
recovery — crosses this fabric as a message over a directed per-link
channel. Each link has a configurable one-way latency distribution
(mean ± uniform jitter), an independent drop probability, and can be
*cut* (partitioned) and *healed* at runtime. Links deliver in FIFO
order (a later message never overtakes an earlier one on the same
link), matching TCP-like transports; drops and cuts are how messages
are lost, not reordering.

The fabric is deterministic: all randomness comes from one
:class:`~repro.sim.rng.SeededRNG` stream, so a partition experiment
replays exactly for a given seed.

``NetworkConfig.enabled`` gates the whole layer. When disabled
(the default), the cluster controller uses its original direct
submission paths — zero extra simulation events — so every experiment
that predates the fabric behaves identically. Enabling it routes all
messages here and activates per-message timeouts, retries with
exponential backoff, and the heartbeat failure detector's transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Generator, List, Optional, Sequence, Set,
                    Tuple)

from repro.analysis.metrics import Histogram
from repro.errors import PlatformError
from repro.sim import Simulator
from repro.sim.rng import SeededRNG

#: Well-known fabric endpoints that are not machines.
CONTROLLER = "controller"
#: The system controller's endpoint on the cross-colo WAN fabric; colo
#: endpoints are the colo names themselves.
SYSTEM = "system"


class NetworkPartitionedError(PlatformError):
    """A message could not cross the fabric: the link is cut."""


@dataclass
class NetworkConfig:
    """Knobs of the simulated network fabric.

    ``latency_s`` is the *mean one-way* message latency (the historical
    ``MachineConfig.network_latency_s`` round trip moved here); jitter is
    uniform in ``[-jitter_s, +jitter_s]``. ``drop_probability`` applies
    independently to every message on every link.
    """

    enabled: bool = False
    latency_s: float = 0.0001          # mean one-way latency
    jitter_s: float = 0.0              # uniform +/- jitter on latency
    drop_probability: float = 0.0      # per-message loss rate
    seed: int = 0


#: Exponential backoff between RPC retries: doubles each retry up to the
#: cap, plus jitter.
RPC_BACKOFF_BASE_S = 0.05
RPC_BACKOFF_MAX_S = 1.0


@dataclass
class LinkStats:
    """Per-directed-link delivery counters, one-way latency of what
    arrived, and the link's FIFO clamp."""

    sent: int = 0
    dropped: int = 0       # random loss
    cut_dropped: int = 0   # lost to a partition
    latency: Histogram = field(default_factory=Histogram, repr=False,
                               compare=False)
    # Earliest time the next message on the link may arrive.
    last_arrival: float = field(default=0.0, init=False, repr=False,
                                compare=False)


class NetworkFabric:
    """All messages between cluster endpoints flow through here."""

    def __init__(self, sim: Simulator, config: Optional[NetworkConfig] = None,
                 metrics=None, trace=None, direct_latency_s: float = 0.0):
        self.sim = sim
        self.config = config or NetworkConfig()
        self.metrics = metrics
        self.trace = trace
        # What a bulk copy stream pays on top of its transfer time while
        # the fabric is disabled (the owner's pre-fabric link latency).
        self.direct_latency_s = direct_latency_s
        self.rng = SeededRNG(self.config.seed).fork("network-fabric")
        # Directed cuts: (src, dst) pairs that currently drop everything.
        self._cuts: Set[Tuple[str, str]] = set()
        self.link_stats: Dict[Tuple[str, str], LinkStats] = {}

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    # -- partition control -----------------------------------------------------

    def connected(self, src: str, dst: str) -> bool:
        """True when messages from ``src`` can currently reach ``dst``."""
        return (src, dst) not in self._cuts

    def cut(self, a: str, b: str, symmetric: bool = True) -> None:
        """Cut the link ``a -> b`` (and ``b -> a`` unless asymmetric)."""
        self._cuts.add((a, b))
        if symmetric:
            self._cuts.add((b, a))
        if self.trace is not None:
            self.trace.emit("link_cut", a=a, b=b, symmetric=symmetric)

    def heal(self, a: str, b: str, symmetric: bool = True) -> None:
        """Heal the link ``a -> b`` (and ``b -> a`` unless asymmetric)."""
        self._cuts.discard((a, b))
        if symmetric:
            self._cuts.discard((b, a))
        if self.trace is not None:
            self.trace.emit("link_healed", a=a, b=b, symmetric=symmetric)

    def split(self, groups: Sequence[Sequence[str]]) -> None:
        """Partition the endpoints into isolated groups.

        Every link between endpoints of *different* groups is cut in
        both directions; links within a group are left untouched.
        """
        for i, group_a in enumerate(groups):
            for group_b in groups[i + 1:]:
                for a in group_a:
                    for b in group_b:
                        self._cuts.add((a, b))
                        self._cuts.add((b, a))
        if self.trace is not None:
            self.trace.emit("net_partition",
                            groups=[sorted(g) for g in groups])

    def heal_all(self) -> None:
        """Remove every cut; the fabric is fully connected again."""
        self._cuts.clear()
        if self.trace is not None:
            self.trace.emit("net_heal_all")

    def cut_links(self) -> List[Tuple[str, str]]:
        """The currently cut directed links (sorted, for reporting)."""
        return sorted(self._cuts)

    # -- message delivery ------------------------------------------------------

    def sample_latency(self) -> float:
        """One-way latency draw: mean ± uniform jitter, never negative."""
        cfg = self.config
        latency = cfg.latency_s
        if cfg.jitter_s > 0:
            latency += self.rng.uniform(-cfg.jitter_s, cfg.jitter_s)
        return max(0.0, latency)

    def _depart(self, src: str, dst: str) -> Tuple[LinkStats, float, bool]:
        """Send-time half of a message: ``(link, delay, dropped)``."""
        link = self.link_stats.get((src, dst))
        if link is None:
            link = self.link_stats[(src, dst)] = LinkStats()
            if self.metrics is not None:
                self.metrics.link_latencies[f"{src}->{dst}"] = link.latency
        link.sent += 1
        if self.metrics is not None:
            self.metrics.network.messages_sent += 1
        latency = self.sample_latency()
        dropped = (self.config.drop_probability > 0
                   and self.rng.random() < self.config.drop_probability)
        # Reserve the arrival slot at *send* time so a fast later message
        # can never overtake a slow earlier one on the same link.
        sent_at = self.sim.now
        link.last_arrival = max(sent_at + latency, link.last_arrival)
        return link, link.last_arrival - sent_at, dropped

    def _arrive(self, src: str, dst: str, link: LinkStats, delay: float,
                dropped: bool) -> bool:
        """Arrival-time verdict: did the message survive cuts and loss?"""
        if (src, dst) in self._cuts:
            link.cut_dropped += 1
            if self.metrics is not None:
                self.metrics.network.messages_cut += 1
            return False
        if dropped:
            link.dropped += 1
            if self.metrics is not None:
                self.metrics.network.messages_dropped += 1
            return False
        link.latency.observe(delay)
        return True

    def deliver(self, src: str, dst: str) -> Generator:
        """Send one message ``src -> dst``; returns True if it arrived.

        The generator consumes the sampled one-way latency in simulated
        time (clamped so deliveries on one link stay FIFO), then reports
        whether the message survived cuts and random loss. A lost
        message still consumes the latency — the sender only learns of
        the loss through its own timeout.
        """
        link, delay, dropped = self._depart(src, dst)
        if delay > 0:
            yield self.sim.timeout(delay)
        return self._arrive(src, dst, link, delay, dropped)

    def post(self, src: str, dst: str,
             on_arrival: Callable[[bool], None]) -> None:
        """:meth:`deliver` for a sender that does not wait: one timer,
        whose callback hands ``on_arrival`` the delivered flag at the
        arrival instant — lost messages included."""
        link, delay, dropped = self._depart(src, dst)
        self.sim.timeout(delay).add_callback(
            lambda _timer: on_arrival(
                self._arrive(src, dst, link, delay, dropped)))

    def backoff_delay(self, attempt: int) -> float:
        """Exponential backoff with jitter for RPC retry ``attempt``."""
        # The exponent is clamped: a sender that retries for as long as
        # its peer stays silent (WAN shipping to a dead standby) reaches
        # attempt counts whose power of two no float can hold.
        base = min(RPC_BACKOFF_MAX_S,
                   RPC_BACKOFF_BASE_S * 2 ** min(max(0, attempt - 1), 64))
        # Full jitter: uniform in (0, base]; avoids retry synchronization.
        return base * (0.5 + 0.5 * self.rng.random())

    # -- copy streams (recovery / migration) -----------------------------------

    def copy_gate(self, src: str, dst: str) -> None:
        """Raise unless ``src`` can currently reach ``dst``.

        Copy streams (dump/load) are long-lived bulk transfers rather
        than individual messages; they are gated on connectivity at each
        step instead of being broken into per-page messages. A disabled
        fabric has no cuts to check.
        """
        if self.enabled and not self.connected(src, dst):
            raise NetworkPartitionedError(
                f"link {src} -> {dst} is cut")

    def transfer(self, src: str, dst: str, seconds: float) -> Generator:
        """A bulk stream ``src -> dst`` taking ``seconds``.

        Partition-checked at both ends of the window: a stream that was
        cut mid-flight fails when it completes (the receiving side never
        sees the tail of the stream). Disabled, the stream pays the
        owner's fixed direct-link latency and cannot be cut.
        """
        self.copy_gate(src, dst)
        if seconds > 0:
            yield self.sim.timeout(seconds + (
                self.sample_latency() if self.enabled
                else self.direct_latency_s))
        self.copy_gate(src, dst)
