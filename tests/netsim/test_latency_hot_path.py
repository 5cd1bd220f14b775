"""The per-packet link path does no per-packet string work.

``Host.prefix24``/``prefix16`` are derived (and the address validated)
once, when the host is built; :meth:`LatencyEngine.sample_one_way_ms`
then compares plain attributes. These tests pin the work count (zero
address parses while a campaign runs), the derived values, the
fail-fast validation, and that the sampled delays are bit-identical to
the function as it was when it re-parsed both addresses per packet,
reading each link direction's draws off a fresh ``Philox``.
"""

import pytest
from conftest import reference_draw
from hypothesis import given, strategies as st

from repro.core.parallel import ParallelCampaign
from repro.core.sampling import SamplePolicy
from repro.netsim import addresses, topology
from repro.netsim.geo import GeoPoint
from repro.netsim.latency import LatencyEngine
from repro.netsim.policies import TrafficClass
from repro.netsim.routing import Router
from repro.netsim.topology import Host, TopologyBuilder
from repro.testbeds.livetor import LiveTorTestbed
from repro.util.errors import ConfigurationError
from repro.util.rng import RandomStreams


def _host(address: str) -> Host:
    return Host(
        host_id=0,
        name="probe-host",
        address=address,
        point=GeoPoint(0.0, 0.0),
        pop_id=0,
        access_delay_ms=1.0,
        bandwidth_mbps=100.0,
    )


class TestWorkCount:
    def test_campaign_parses_no_addresses(self, monkeypatch):
        calls = []
        real = addresses.parse_ipv4

        def counting(address):
            calls.append(address)
            return real(address)

        # Both the defining module and the by-name import in topology.
        monkeypatch.setattr(addresses, "parse_ipv4", counting)
        monkeypatch.setattr(topology, "parse_ipv4", counting)

        testbed = LiveTorTestbed.build(seed=5, n_relays=8)
        assert calls, "the build validates every host address"
        relays = testbed.random_relays(4, testbed.streams.get("hot-path.sel"))
        calls.clear()

        report = ParallelCampaign(
            testbed.measurement,
            relays,
            policy=SamplePolicy(samples=5, interval_ms=2.0),
            concurrency=4,
        ).run()
        assert report.matrix.is_complete
        assert calls == []


_octet = st.integers(min_value=0, max_value=255)
_valid = st.tuples(_octet, _octet, _octet, _octet).map(
    lambda octets: ".".join(map(str, octets))
)
_invalid = st.one_of(
    st.lists(_octet, min_size=0, max_size=6)
    .filter(lambda octets: len(octets) != 4)
    .map(lambda octets: ".".join(map(str, octets))),
    st.tuples(_octet, _octet, _octet, st.integers(min_value=256, max_value=9999)).map(
        lambda octets: ".".join(map(str, octets))
    ),
    st.tuples(_octet, _octet, st.sampled_from(["", "x", "-1", "1e1", " 7"]), _octet).map(
        lambda parts: ".".join(map(str, parts))
    ),
)


class TestPrefixesDerivedAtConstruction:
    @given(_valid)
    def test_prefixes_match_address_helpers(self, address):
        host = _host(address)
        assert host.prefix24 == addresses.prefix24(address)
        assert host.prefix16 == addresses.prefix16(address)

    @given(_invalid)
    def test_malformed_address_rejected(self, address):
        with pytest.raises(ConfigurationError, match="probe-host"):
            _host(address)

    def test_attach_host_names_the_offender(self):
        topo = TopologyBuilder(RandomStreams(3).get("t")).build()
        with pytest.raises(ConfigurationError, match="'bad-relay'.*'10.0.0'"):
            topo.attach_host("bad-relay", "10.0.0", 0, 1.0, 100.0)
        assert topo.num_hosts == 0


def _reference_sample_one_way_ms(engine, seed, taken, src, dst, traffic_class):
    """``sample_one_way_ms`` as it was when every packet re-parsed both
    addresses: the floor first, then the co-location test a second time
    to pick the jitter draw — the direction's next draw (``taken`` counts
    them), computed from scratch."""

    def colocated():
        return src.host_id == dst.host_id or addresses.prefix24(
            src.address
        ) == addresses.prefix24(dst.address)

    if colocated():
        base = engine.loopback_rtt_ms / 2.0
    else:
        low, high = sorted((src, dst), key=lambda host: host.host_id)
        base = (
            engine.router.path_latency_ms(low.pop_id, high.pop_id)
            + low.access_delay_ms
            + high.access_delay_ms
            + low.policy.extra_ms(traffic_class)
            + high.policy.extra_ms(traffic_class)
        )
    name = f"link:{src.address}>{dst.address}"
    k = taken[name] = taken.get(name, -1) + 1
    u0, _, e0, e1 = reference_draw(seed, name, None, k)
    if colocated():
        return base + 0.01 * e0
    jitter = engine.jitter.scale_ms * e0
    if u0 < engine.jitter.burst_probability:
        jitter += engine.jitter.burst_scale_ms * e1
    return base + jitter


class TestSamplesUnchanged:
    def test_bit_identical_to_reparsing_reference(self):
        builder = TopologyBuilder(RandomStreams(4).get("t"))
        topo = builder.build()
        network = builder.allocator.new_network()
        colo_a = builder.attach_random_host(topo, "colo-a", 0, "university", network=network)
        colo_b = builder.attach_random_host(topo, "colo-b", 0, "university", network=network)
        far = builder.attach_random_host(topo, "far", 7, "residential")
        near = builder.attach_random_host(topo, "near", 0, "hosting")

        engine = LatencyEngine(topo, Router(topo.graph), RandomStreams(9))
        taken: dict[str, int] = {}

        # Co-located, same-host and remote pairs interleaved, both
        # directions and every class; 40 rounds take every direction
        # across two block boundaries.
        pairs = [
            (colo_a, colo_b),
            (far, colo_a),
            (near, near),
            (colo_b, far),
            (near, far),
            (colo_b, colo_a),
            (far, near),
        ]
        classes = list(TrafficClass)
        for round_no in range(40):
            traffic_class = classes[round_no % len(classes)]
            for src, dst in pairs:
                assert engine.sample_one_way_ms(
                    src, dst, traffic_class
                ) == _reference_sample_one_way_ms(
                    engine, 9, taken, src, dst, traffic_class
                )
