"""Unit tests for the latency engine."""

import numpy as np
import pytest

from repro.netsim.latency import ExponentialJitter, LatencyEngine, NoJitter
from repro.netsim.policies import TrafficClass
from repro.netsim.routing import Router
from repro.netsim.topology import TopologyBuilder
from repro.util.rng import RandomStreams


@pytest.fixture(scope="module")
def world():
    streams = RandomStreams(seed=4)
    builder = TopologyBuilder(streams.get("t"))
    topo = builder.build()
    router = Router(topo.graph)
    engine = LatencyEngine(topo, router, streams)
    hosts = [
        builder.attach_random_host(topo, f"lat{i}", i % topo.num_pops, "hosting")
        for i in range(8)
    ]
    return builder, topo, engine, hosts


class TestBaseDelay:
    def test_symmetric(self, world):
        _, _, engine, hosts = world
        a, b = hosts[0], hosts[1]
        fwd = engine.base_one_way_ms(a, b, TrafficClass.TOR)
        back = engine.base_one_way_ms(b, a, TrafficClass.TOR)
        assert fwd == pytest.approx(back)

    def test_true_rtt_is_twice_one_way(self, world):
        _, _, engine, hosts = world
        a, b = hosts[0], hosts[2]
        assert engine.true_rtt_ms(a, b) == pytest.approx(
            2 * engine.base_one_way_ms(a, b, TrafficClass.TOR)
        )

    def test_loopback_to_self(self, world):
        _, _, engine, hosts = world
        a = hosts[0]
        assert engine.true_rtt_ms(a, a) == pytest.approx(engine.loopback_rtt_ms)

    def test_same_slash24_is_loopback(self, world):
        builder, topo, engine, _ = world
        network = builder.allocator.new_network()
        a = builder.attach_random_host(topo, "colo-a", 0, "university", network=network)
        b = builder.attach_random_host(topo, "colo-b", 0, "university", network=network)
        assert engine.true_rtt_ms(a, b) == pytest.approx(engine.loopback_rtt_ms)

    def test_includes_access_delays(self, world):
        _, _, engine, hosts = world
        a, b = hosts[0], hosts[3]
        backbone = engine.router.path_latency_ms(a.pop_id, b.pop_id)
        base = engine.base_one_way_ms(a, b, TrafficClass.TCP)
        assert base >= backbone + a.access_delay_ms + b.access_delay_ms - 1e-9

    def test_policy_extras_differ_by_class(self, world):
        builder, topo, engine, hosts = world
        from repro.netsim.policies import ProtocolPolicy

        biased = builder.attach_random_host(topo, "biased", 1, "hosting")
        biased.policy = ProtocolPolicy(icmp_extra_ms=20.0)
        neutral = hosts[0]
        icmp = engine.true_rtt_ms(neutral, biased, TrafficClass.ICMP)
        tcp = engine.true_rtt_ms(neutral, biased, TrafficClass.TCP)
        assert icmp == pytest.approx(tcp + 40.0)  # 20 ms each way

    def test_cache_consistency(self, world):
        _, _, engine, hosts = world
        a, b = hosts[1], hosts[4]
        assert engine.true_rtt_ms(a, b) == engine.true_rtt_ms(a, b)


class TestSampledDelay:
    def test_sample_at_least_base(self, world):
        _, _, engine, hosts = world
        a, b = hosts[0], hosts[5]
        base = engine.base_one_way_ms(a, b, TrafficClass.TOR)
        for _ in range(200):
            assert engine.sample_one_way_ms(a, b, TrafficClass.TOR) >= base

    def test_min_of_many_samples_approaches_base(self, world):
        _, _, engine, hosts = world
        a, b = hosts[0], hosts[5]
        base = engine.base_one_way_ms(a, b, TrafficClass.TOR)
        best = min(
            engine.sample_one_way_ms(a, b, TrafficClass.TOR) for _ in range(500)
        )
        assert best == pytest.approx(base, abs=0.5)

    def test_vectorized_rtt_sampling_shape_and_floor(self, world):
        _, _, engine, hosts = world
        a, b = hosts[2], hosts[6]
        samples = engine.sample_rtts_ms(a, b, TrafficClass.TOR, 1000)
        assert samples.shape == (1000,)
        assert samples.min() >= engine.true_rtt_ms(a, b) - 1e-9


class TestJitterModels:
    def test_exponential_jitter_non_negative(self):
        jitter = ExponentialJitter()
        draws = RandomStreams(0).draws.stream("link")
        assert all(jitter.sample(draws) >= 0 for _ in range(500))

    def test_exponential_jitter_vectorized_matches_scale(self):
        jitter = ExponentialJitter(scale_ms=2.0, burst_probability=0.0)
        rng = np.random.default_rng(0)
        samples = jitter.sample_many(rng, 20_000)
        assert samples.mean() == pytest.approx(2.0, rel=0.05)

    def test_bursts_add_heavy_tail(self):
        rng = np.random.default_rng(0)
        quiet = ExponentialJitter(scale_ms=0.5, burst_probability=0.0)
        bursty = ExponentialJitter(
            scale_ms=0.5, burst_probability=0.3, burst_scale_ms=50.0
        )
        q = quiet.sample_many(np.random.default_rng(1), 5000)
        b = bursty.sample_many(np.random.default_rng(1), 5000)
        assert np.percentile(b, 99) > np.percentile(q, 99) * 5

    def test_no_jitter_is_zero(self):
        jitter = NoJitter()
        assert jitter.sample(RandomStreams(0).draws.stream("link")) == 0.0
        assert jitter.sample_many(np.random.default_rng(0), 10).sum() == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ExponentialJitter(scale_ms=-1.0)
        with pytest.raises(ValueError):
            ExponentialJitter(burst_probability=1.5)


class TestJitterDistributionUnchanged:
    """Per-packet jitter moved from scalar numpy calls on one shared
    generator to block draws; the distribution did not."""

    @staticmethod
    def _scalar_sample(jitter: ExponentialJitter, rng: np.random.Generator) -> float:
        """``ExponentialJitter.sample(rng)`` as it was before the block source."""
        value = float(rng.exponential(jitter.scale_ms))
        if rng.random() < jitter.burst_probability:
            value += float(rng.exponential(jitter.burst_scale_ms))
        return value

    @pytest.mark.parametrize(
        "jitter", [ExponentialJitter(), ExponentialJitter(0.5, 0.3, 50.0)]
    )
    def test_two_sample_ks_against_the_scalar_definition(self, jitter):
        ks_2samp = pytest.importorskip("scipy.stats").ks_2samp

        n = 20_000
        draws = RandomStreams(2015).draws.stream("link:10.0.0.1>10.0.0.2")
        block = [jitter.sample(draws) for _ in range(n)]
        rng = np.random.default_rng(2015)
        scalar = [self._scalar_sample(jitter, rng) for _ in range(n)]
        assert ks_2samp(block, scalar).pvalue > 0.01

    def test_loopback_noise_is_the_same_exponential(self, world):
        ks_2samp = pytest.importorskip("scipy.stats").ks_2samp

        topo, _, engine, hosts = world
        host = hosts[0]
        base = engine.loopback_rtt_ms / 2.0
        block = [
            engine.sample_one_way_ms(host, host, TrafficClass.TOR) - base
            for _ in range(20_000)
        ]
        scalar = np.random.default_rng(7).exponential(0.01, size=20_000)
        assert ks_2samp(block, scalar).pvalue > 0.01
