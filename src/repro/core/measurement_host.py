"""The Ting measurement deployment: s, d, w, z on one host.

Section 3.3: "we simply run all four processes on the same host h: the
echo client and server (s and d) and both of our Tor nodes (w and z)."
Here the four processes are four simulated hosts sharing one /24 (so the
latency engine treats traffic among them as loopback), attached to the
same PoP.

``z`` gets the paper's restrictive exit policy: it only exits to the echo
server's address, so Ting never exits to anyone else's machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dataset import ProvenanceLog
from repro.echo.client import EchoClient
from repro.echo.server import DEFAULT_ECHO_PORT, EchoServer
from repro.netsim.engine import Simulator
from repro.obs import (
    NULL_EVENTS,
    NULL_METRICS,
    NULL_SPANS,
    EventBus,
    MetricsRegistry,
    SpanTracer,
)
from repro.netsim.topology import Host, Topology, TopologyBuilder
from repro.netsim.transport import NetworkFabric
from repro.tor.client import OnionProxy
from repro.tor.control import Controller
from repro.netsim.policies import NEUTRAL_POLICY
from repro.tor.directory import Consensus, ExitPolicy
from repro.tor.relay import ForwardingDelayModel, Relay
from repro.util.rng import RandomStreams


@dataclass
class MeasurementHost:
    """Bundle of the four co-located measurement processes plus plumbing."""

    sim: Simulator
    fabric: NetworkFabric
    topology: Topology
    echo_client_host: Host  # s
    echo_server_host: Host  # d
    relay_w: Relay
    relay_z: Relay
    echo_server: EchoServer
    echo_client: EchoClient
    proxy: OnionProxy
    controller: Controller
    #: Observability sinks shared by every component of this deployment;
    #: no-ops until :meth:`enable_observability` wires live ones in.
    metrics: MetricsRegistry = NULL_METRICS
    spans: SpanTracer = NULL_SPANS
    #: Live telemetry bus; a no-op until :meth:`enable_events` (or
    #: :meth:`enable_observability`) wires a live one through the stack.
    events: EventBus = NULL_EVENTS
    #: Per-pair provenance; ``None`` until observability is enabled.
    provenance: ProvenanceLog | None = None

    @classmethod
    def deploy(
        cls,
        sim: Simulator,
        fabric: NetworkFabric,
        topology: Topology,
        builder: TopologyBuilder,
        consensus: Consensus,
        pop_id: int,
        streams: RandomStreams,
        name_prefix: str = "ting",
        or_port_w: int = 9001,
        or_port_z: int = 9002,
        echo_port: int = DEFAULT_ECHO_PORT,
    ) -> "MeasurementHost":
        """Stand up s, d, w, z in one fresh /24 attached to ``pop_id``.

        The local relays stay out of the published consensus (the paper's
        ``PublishDescriptors 0`` mode); the proxy's view is the given
        consensus *plus* the two private descriptors.
        """
        network = builder.allocator.new_network()
        host_s = builder.attach_random_host(
            topology, f"{name_prefix}-s", pop_id, "university", network=network
        )
        host_d = builder.attach_random_host(
            topology, f"{name_prefix}-d", pop_id, "university", network=network
        )
        host_w = builder.attach_random_host(
            topology, f"{name_prefix}-w", pop_id, "university", network=network
        )
        host_z = builder.attach_random_host(
            topology, f"{name_prefix}-z", pop_id, "university", network=network
        )
        # The experimenters control the measurement host's network: it
        # treats all traffic classes identically.
        for host in (host_s, host_d, host_w, host_z):
            host.policy = NEUTRAL_POLICY

        # w and z draw from their own streams (``Relay.draws``) like any
        # relay. The generator they shared stays registered, unused, until
        # the next world re-pin: the pinned world digests cover the set of
        # named streams a build creates (test_build_identity.py).
        streams.get(f"{name_prefix}.local-relays")
        relay_w = Relay(
            sim,
            fabric,
            topology,
            host_w,
            f"{name_prefix}W",
            or_port=or_port_w,
            exit_policy=ExitPolicy.reject_all(),
            forwarding_model=ForwardingDelayModel.quiet(),
        )
        relay_z = Relay(
            sim,
            fabric,
            topology,
            host_z,
            f"{name_prefix}Z",
            or_port=or_port_z,
            exit_policy=ExitPolicy.accept_only(host_d.address),
            forwarding_model=ForwardingDelayModel.quiet(),
        )

        echo_server = EchoServer(fabric, host_d, port=echo_port)
        proxy = OnionProxy(
            sim,
            fabric,
            topology,
            host_s,
            consensus.with_private_relays(relay_w.descriptor(), relay_z.descriptor()),
        )
        return cls(
            sim=sim,
            fabric=fabric,
            topology=topology,
            echo_client_host=host_s,
            echo_server_host=host_d,
            relay_w=relay_w,
            relay_z=relay_z,
            echo_server=echo_server,
            echo_client=EchoClient(sim),
            proxy=proxy,
            controller=Controller(proxy),
        )

    def enable_observability(self) -> MetricsRegistry:
        """Wire one fresh live registry through the whole stack.

        Attaches to the simulator, the onion proxy, the echo client, and
        the two helper relays (w, z); measurers and campaigns built on
        this host pick the sinks up via ``host.metrics`` / ``host.spans``.
        Also installs a :class:`SpanTracer` ticking on the simulated
        clock, a fresh :class:`ProvenanceLog`, and, unless one is already
        live, an :class:`EventBus` (via :meth:`enable_events`), so
        instrumented campaigns record interval, per-pair, and
        live-telemetry data without further setup. Returns the registry
        so callers can snapshot it.
        """
        registry = self.metrics = MetricsRegistry()
        self.spans = SpanTracer(clock=lambda: self.sim.campaign_ms)
        self.provenance = ProvenanceLog()
        if not self.events.enabled:
            self.enable_events()
        self.sim.metrics = registry
        self.proxy.metrics = registry
        self.echo_client.metrics = registry
        self.relay_w.metrics = registry
        self.relay_z.metrics = registry
        # Pre-declare the headline counters so a snapshot reports zeros
        # for paths that never ran instead of omitting the keys.
        for name in (
            "tor.circuits_built",
            "tor.circuits_failed",
            "tor.streams_attached",
            "tor.stream_failures",
            "echo.probes_sent",
            "echo.probes_received",
            "echo.probes_lost",
            "echo.early_stops",
            "echo.probes_saved",
            "echo.probes_flown",
            "echo.flight_rollbacks",
            "ting.leg_cache_lookups",
            "ting.leg_cache_hits",
            "ting.leg_cache_misses",
            "ting.probes_saved",
            "sim.heap_compactions",
            "campaign.task_isolations",
        ):
            registry.inc(name, 0)
        return registry

    def enable_events(self) -> EventBus:
        """Wire one live :class:`EventBus` through the whole stack.

        Independent of :meth:`enable_observability` — live telemetry
        (heartbeats, the flight recorder, streamed worker events) works
        without paying for metrics/span recording, which is how
        ``ShardedCampaign`` keeps its telemetry path cheap when
        ``observe=False``. Returns the bus so callers can attach sinks.
        """
        live = EventBus(clock=lambda: self.sim.campaign_ms)
        self.events = live
        self.sim.events = live
        self.echo_client.events = live
        self.relay_w.events = live
        self.relay_z.events = live
        return live

    def refresh_consensus(self, consensus: Consensus) -> None:
        """Install a new network consensus, keeping w and z hard-coded."""
        self.proxy.set_consensus(
            consensus.with_private_relays(
                self.relay_w.descriptor(), self.relay_z.descriptor()
            )
        )

    @property
    def echo_address(self) -> str:
        """Where circuits must exit to reach the echo server."""
        return self.echo_server_host.address

    @property
    def echo_port(self) -> int:
        """The echo server's listening port."""
        return self.echo_server.port
