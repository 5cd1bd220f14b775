"""Tests for the measurement-host deployment (s, d, w, z)."""

import pytest

from repro.netsim.policies import TrafficClass
from repro.obs import NULL_EVENTS, NULL_METRICS, NULL_SPANS, MetricsRegistry


class TestDeployment:
    def test_four_processes_share_a_slash24(self, mini_world):
        m = mini_world.measurement
        prefixes = {
            m.echo_client_host.prefix24,
            m.echo_server_host.prefix24,
            m.relay_w.host.prefix24,
            m.relay_z.host.prefix24,
        }
        assert len(prefixes) == 1

    def test_intra_host_latency_is_loopback(self, mini_world):
        m = mini_world.measurement
        rtt = mini_world.latency.true_rtt_ms(
            m.echo_client_host, m.relay_w.host, TrafficClass.TOR
        )
        assert rtt == pytest.approx(mini_world.latency.loopback_rtt_ms)

    def test_network_is_policy_neutral(self, mini_world):
        m = mini_world.measurement
        for host in (
            m.echo_client_host,
            m.echo_server_host,
            m.relay_w.host,
            m.relay_z.host,
        ):
            assert not host.policy.is_differential
            assert host.policy.extra_ms(TrafficClass.ICMP) == 0.0

    def test_z_exits_only_to_echo_server(self, mini_world):
        m = mini_world.measurement
        assert m.relay_z.exit_policy.allows(m.echo_address, m.echo_port)
        assert not m.relay_z.exit_policy.allows("8.8.8.8", 80)

    def test_w_is_not_an_exit(self, mini_world):
        assert not mini_world.measurement.relay_w.exit_policy.is_exit

    def test_private_relays_in_proxy_view_not_directory(self, mini_world):
        m = mini_world.measurement
        # The proxy knows w and z (hard-coded descriptors)...
        assert m.relay_w.fingerprint in m.proxy.consensus
        assert m.relay_z.fingerprint in m.proxy.consensus
        # ...but the public directory does not (PublishDescriptors 0).
        public = mini_world.authority.make_consensus()
        assert m.relay_w.fingerprint not in public
        assert m.relay_z.fingerprint not in public

    def test_echo_address_is_server_host(self, mini_world):
        m = mini_world.measurement
        assert m.echo_address == m.echo_server_host.address
        assert m.echo_port == m.echo_server.port

    def test_observability_defaults_to_noop(self, mini_world):
        m = mini_world.measurement
        assert m.metrics is NULL_METRICS
        assert m.spans is NULL_SPANS and m.events is NULL_EVENTS
        assert m.provenance is None
        assert m.sim.metrics is NULL_METRICS
        assert m.echo_client.metrics is NULL_METRICS

    def test_enable_observability_wires_every_component(self, mini_world):
        m = mini_world.measurement
        registry = m.enable_observability()
        assert isinstance(registry, MetricsRegistry)
        assert registry.enabled
        for sink in (
            m.metrics,
            m.sim.metrics,
            m.proxy.metrics,
            m.echo_client.metrics,
            m.relay_w.metrics,
            m.relay_z.metrics,
        ):
            assert sink is registry
        assert m.spans.enabled and m.provenance is not None
        assert m.events.enabled
        assert m.events is m.sim.events is m.echo_client.events
        # Headline counters are pre-declared so snapshots report zeros.
        assert "tor.circuits_built" in registry.snapshot()["counters"]
        assert "sim.heap_compactions" in registry.snapshot()["counters"]

    def test_refresh_consensus_updates_public_view(self, mini_world):
        m = mini_world.measurement
        newcomer = mini_world.relays[0].descriptor()
        mini_world.authority.publish(newcomer)
        m.refresh_consensus(mini_world.authority.make_consensus())
        assert newcomer.fingerprint in m.proxy.consensus
        assert m.relay_w.fingerprint in m.proxy.consensus
