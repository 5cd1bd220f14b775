"""The latency engine: one-way delays per packet, per traffic class.

One-way delay between two hosts decomposes as::

    base (deterministic)            sampled (stochastic)
    ----------------------------    --------------------
    routed backbone path latency    queueing jitter
    + src & dst access delays
    + per-class policy extras

The *base* component is the deterministic floor: the minimum any packet of
that class can achieve. The jitter component models queueing along the
path — mostly small, occasionally heavy-tailed — and is what Ting's
min-of-N filter strips away. :meth:`LatencyEngine.true_rtt_ms` exposes the
floor directly; it plays the role the paper's `ping` ground truth played
on PlanetLab (but without ping's protocol-policy confounds, since the
simulator can report the *Tor-class* floor exactly).
"""

from __future__ import annotations

import numpy as np

from repro.netsim.policies import TrafficClass
from repro.netsim.routing import Router
from repro.netsim.topology import Host, Topology
from repro.util.rng import BLOCK_WORDS, DrawStream, RandomStreams
from repro.util.units import Milliseconds

#: Mean of the exponential scheduling noise on a loopback "link".
LOOPBACK_JITTER_MS = 0.01


class JitterModel:
    """Non-negative queueing jitter added to each packet's delay: an
    exponential body plus, with some probability, an exponential burst.

    Subclasses choose the three parameters, not the formula: a probe
    flight (:mod:`repro.tor.client`) computes :meth:`sample` inline.
    """

    def __init__(
        self,
        scale_ms: float = 0.15,
        burst_probability: float = 0.02,
        burst_scale_ms: float = 12.0,
    ) -> None:
        if scale_ms < 0 or burst_scale_ms < 0:
            raise ValueError("jitter scales must be non-negative")
        if not 0.0 <= burst_probability <= 1.0:
            raise ValueError("burst_probability must be in [0, 1]")
        self.scale_ms = scale_ms
        self.burst_probability = burst_probability
        self.burst_scale_ms = burst_scale_ms

    def sample(self, draws: DrawStream) -> Milliseconds:
        """One jitter value in milliseconds (>= 0): the next draw of
        ``draws``, read as body ``e0``, burst coin ``u0``, burst ``e1``."""
        # DrawStream.take, inline.
        i = draws.pos
        if i == BLOCK_WORDS:
            draws.fill(draws.base + i)
            i = 0
        draws.pos = i + 2
        e = draws.e
        jitter = self.scale_ms * e[i]
        if draws.u[i] < self.burst_probability:
            jitter += self.burst_scale_ms * e[i + 1]
        return jitter

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` jitter values at once, from a numpy generator (the
        analytic path; per-packet draws go through :meth:`sample`)."""
        jitter = rng.exponential(self.scale_ms, size=n)
        bursts = rng.random(n) < self.burst_probability
        jitter[bursts] += rng.exponential(self.burst_scale_ms, size=int(bursts.sum()))
        return jitter


class ExponentialJitter(JitterModel):
    """The default parameters: an exponential body with an occasional
    heavy-tailed burst.

    Matches the queueing behaviour the paper observed (Section 4.4 /
    Figure 6): most samples sit close to the floor, but a minority land
    far above it, so reaching the *true* minimum takes many samples while
    getting within 1 ms takes ~25x fewer.
    """


class NoJitter(JitterModel):
    """Zero jitter; useful in unit tests that need exact delays."""

    def __init__(self) -> None:
        super().__init__(0.0, 0.0, 0.0)


class Link:
    """One direction between two hosts, for one traffic class: the floor,
    the jitter model (``None`` on loopback, where jitter is scheduling
    noise only) and the direction's draw stream. A connection endpoint
    keeps the one it writes to."""

    __slots__ = ("base_ms", "jitter", "draws")

    def __init__(
        self, base_ms: Milliseconds, jitter: JitterModel | None, draws: DrawStream
    ) -> None:
        self.base_ms = base_ms
        self.jitter = jitter
        self.draws = draws

    def sample_ms(self) -> Milliseconds:
        """One packet's one-way delay: floor plus sampled jitter."""
        if self.jitter is None:
            # DrawStream.take, inline (before ``draws.e`` is read: it may refill).
            draws = self.draws
            i = draws.pos
            if i == BLOCK_WORDS:
                draws.fill(draws.base + i)
                i = 0
            draws.pos = i + 2
            return self.base_ms + LOOPBACK_JITTER_MS * draws.e[i]
        return self.base_ms + self.jitter.sample(self.draws)


class LatencyEngine:
    """Answers delay queries for the transport layer.

    ``loopback_rtt_ms`` is the round-trip between two processes on the
    same host (or two hosts in the same /24 on one machine) — small but
    non-zero, as the paper's Equation (1) retains via its R(h, h) terms.
    """

    def __init__(
        self,
        topology: Topology,
        router: Router,
        streams: RandomStreams,
        jitter: JitterModel | None = None,
        loopback_rtt_ms: Milliseconds = 0.08,
    ) -> None:
        self.topology = topology
        self.router = router
        self.jitter = jitter if jitter is not None else ExponentialJitter()
        #: The world's per-packet draw source (a stream per link direction
        #: here, per relay in :mod:`repro.tor.relay`); only the vectorized
        #: analytic path below draws from a named numpy generator.
        self.draws = streams.draws
        self._rng = streams.get("netsim.latency.jitter")
        self.loopback_rtt_ms = loopback_rtt_ms
        self._base_cache: dict[tuple[int, int, TrafficClass], Milliseconds] = {}

    # --- deterministic floor -------------------------------------------

    def base_one_way_ms(
        self, src: Host, dst: Host, traffic_class: TrafficClass
    ) -> Milliseconds:
        """The deterministic minimum one-way delay for this class."""
        if self._colocated(src, dst):
            return self.loopback_rtt_ms / 2.0
        return self._routed_base_ms(src, dst, traffic_class)

    def _routed_base_ms(
        self, src: Host, dst: Host, traffic_class: TrafficClass
    ) -> Milliseconds:
        """Floor between two hosts that are not co-located (cached)."""
        key = (
            min(src.host_id, dst.host_id),
            max(src.host_id, dst.host_id),
            traffic_class,
        )
        base = self._base_cache.get(key)
        if base is None:
            low = self.topology.hosts[key[0]]
            high = self.topology.hosts[key[1]]
            backbone = self.router.path_latency_ms(low.pop_id, high.pop_id)
            base = (
                backbone
                + low.access_delay_ms
                + high.access_delay_ms
                + low.policy.extra_ms(traffic_class)
                + high.policy.extra_ms(traffic_class)
            )
            self._base_cache[key] = base
        return base

    def true_rtt_ms(
        self,
        src: Host,
        dst: Host,
        traffic_class: TrafficClass = TrafficClass.TOR,
    ) -> Milliseconds:
        """Ground-truth minimum RTT between two hosts for a class.

        This is the oracle the validation experiments compare Ting
        against (the paper's role for all-pairs ping on PlanetLab).
        """
        return 2.0 * self.base_one_way_ms(src, dst, traffic_class)

    # --- per-packet samples ---------------------------------------------

    def link(self, src: Host, dst: Host, traffic_class: TrafficClass) -> Link:
        """The ``src`` → ``dst`` direction for ``traffic_class``. Its draw
        stream is named by the two addresses alone, so every writer to
        the direction — whichever connection or class — shares it."""
        draws = self.draws.stream(f"link:{src.address}>{dst.address}")
        if self._colocated(src, dst):
            return Link(self.loopback_rtt_ms / 2.0, None, draws)
        return Link(self._routed_base_ms(src, dst, traffic_class), self.jitter, draws)

    def sample_one_way_ms(
        self, src: Host, dst: Host, traffic_class: TrafficClass
    ) -> Milliseconds:
        """One packet's one-way delay: floor plus sampled jitter."""
        return self.link(src, dst, traffic_class).sample_ms()

    def sample_rtts_ms(
        self,
        src: Host,
        dst: Host,
        traffic_class: TrafficClass,
        n: int,
    ) -> np.ndarray:
        """Vectorized: ``n`` independent RTT samples for a host pair.

        Used by the fast analytic path for large campaigns; equivalent in
        distribution to 2x one-way samples through the event engine, minus
        relay forwarding delays (which the Tor layer adds itself).
        """
        base = 2.0 * self.base_one_way_ms(src, dst, traffic_class)
        jitter = self.jitter.sample_many(self._rng, n) + self.jitter.sample_many(
            self._rng, n
        )
        return base + jitter

    @staticmethod
    def _colocated(src: Host, dst: Host) -> bool:
        """One host, or two in the same /24 (one machine/subnet)."""
        return src.host_id == dst.host_id or src.prefix24 == dst.prefix24
