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

import abc

import numpy as np

from repro.netsim.policies import TrafficClass
from repro.netsim.routing import Router
from repro.netsim.topology import Host, Topology
from repro.util.rng import RandomStreams
from repro.util.units import Milliseconds


class JitterModel(abc.ABC):
    """Samples non-negative queueing jitter added to each packet's delay."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> Milliseconds:
        """Draw one jitter value in milliseconds (>= 0)."""

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` jitter values; subclasses may vectorize."""
        return np.array([self.sample(rng) for _ in range(n)])


class ExponentialJitter(JitterModel):
    """Exponential body with an occasional heavy-tailed burst.

    Matches the queueing behaviour the paper observed (Section 4.4 /
    Figure 6): most samples sit close to the floor, but a minority land
    far above it, so reaching the *true* minimum takes many samples while
    getting within 1 ms takes ~25x fewer.
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

    def sample(self, rng: np.random.Generator) -> Milliseconds:
        jitter = float(rng.exponential(self.scale_ms))
        if rng.random() < self.burst_probability:
            jitter += float(rng.exponential(self.burst_scale_ms))
        return jitter

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        jitter = rng.exponential(self.scale_ms, size=n)
        bursts = rng.random(n) < self.burst_probability
        jitter[bursts] += rng.exponential(self.burst_scale_ms, size=int(bursts.sum()))
        return jitter


class NoJitter(JitterModel):
    """Zero jitter; useful in unit tests that need exact delays."""

    def sample(self, rng: np.random.Generator) -> Milliseconds:
        return 0.0

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.zeros(n)


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
        self._rng = streams.get("netsim.latency.jitter")
        self.loopback_rtt_ms = loopback_rtt_ms
        self._base_cache: dict[tuple[int, int, TrafficClass], Milliseconds] = {}

    @property
    def rng(self) -> np.random.Generator:
        """The generator every per-packet draw comes from (a probe flight
        snapshots it so that it can give its draws back)."""
        return self._rng

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

    def sample_one_way_ms(
        self, src: Host, dst: Host, traffic_class: TrafficClass
    ) -> Milliseconds:
        """One packet's one-way delay: floor plus sampled jitter."""
        if self._colocated(src, dst):
            # Loopback jitter is scheduling noise only: tiny.
            return self.loopback_rtt_ms / 2.0 + float(self._rng.exponential(0.01))
        base = self._routed_base_ms(src, dst, traffic_class)
        return base + self.jitter.sample(self._rng)

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
