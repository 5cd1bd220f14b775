"""Per-relay forwarding-delay estimation (Section 4.3).

The seven-step procedure from the paper, which deliberately mixes Tor
and non-Tor probes so that networks with differential protocol treatment
stand out (Figure 5's anomalous, sometimes negative estimates):

1. Run s, d, w, z as usual.
2. Circuit ``C1 = (w, z)``; its echo RTT is
   ``R(s,w) + F_w + R(w,z) + F_z + R(z,d)``.
3. Ping (ICMP) or TCP-probe w from s — with everything co-located this
   is the loopback RTT.
4. ``F_w = F_z = (R_C1 − R̃(s,w) − R̃(z,d)) / 2``.
5. Circuit ``C2 = (w, x, z)``; its echo RTT adds x's legs and delay.
6. Probe x from w's host to estimate ``R̃(w,x) = R̃(x,z)``.
7. ``F_x = R_C2 − F_w − F_z − 2·R̃(w,x) − 2·R̃(s,w)``.

Because step 6 uses ICMP (or plain TCP) while steps 2 and 5 ride Tor,
``F_x`` inherits any difference in how x's network treats those classes
— negative values flag exactly the networks whose pings cannot be
trusted, which is the paper's argument for keeping Ting Tor-only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.measurement_host import MeasurementHost
from repro.core.sampling import SamplePolicy, min_estimate
from repro.core.ting import TingMeasurer, run_to_completion
from repro.netsim.transport import IcmpPinger, TcpConnectProber
from repro.tor.directory import RelayDescriptor
from repro.util.errors import MeasurementError
from repro.util.units import Milliseconds


@dataclass
class ForwardingDelayReport:
    """One relay's estimated forwarding delay via one probe protocol."""

    fingerprint: str
    probe_kind: str  # "icmp" | "tcp"
    forwarding_delay_ms: Milliseconds
    circuit_rtt_ms: Milliseconds
    probe_rtt_ms: Milliseconds
    local_delay_ms: Milliseconds  # F_w (= F_z) at measurement time

    @property
    def is_anomalous(self) -> bool:
        """Negative forwarding delay: the network treats the probe
        protocol and Tor traffic differently (Section 4.3)."""
        return self.forwarding_delay_ms < 0.0


class ForwardingDelayEstimator:
    """Implements the Section 4.3 method against live relays."""

    def __init__(
        self,
        host: MeasurementHost,
        policy: SamplePolicy | None = None,
        probe_count: int = 100,
    ) -> None:
        self.host = host
        self.policy = policy or SamplePolicy.high_accuracy()
        self.probe_count = probe_count
        self._icmp_from_s = IcmpPinger(host.fabric, host.echo_client_host)
        self._icmp_from_w = IcmpPinger(host.fabric, host.relay_w.host)
        self._tcp_from_w = TcpConnectProber(host.fabric, host.relay_w.host)
        self._local_delay_ms: Milliseconds | None = None

    # ------------------------------------------------------------------

    def calibrate_local(self) -> Milliseconds:
        """Steps 2–4: estimate F_w (= F_z) from the (w, z) circuit."""
        circuit_rtt = self._measure_circuit(
            (self.host.relay_w.fingerprint, self.host.relay_z.fingerprint)
        )
        # R̃(s,w) and R̃(z,d) are both loopback round trips here.
        loopback = self._icmp_from_s.measure_min_rtt(
            self.host.relay_w.host, count=self.probe_count
        )
        local = (circuit_rtt - 2.0 * loopback) / 2.0
        self._local_delay_ms = local
        return local

    def estimate(
        self, x: RelayDescriptor | str, probe_kind: str = "icmp"
    ) -> ForwardingDelayReport:
        """Steps 5–7: estimate F_x using ICMP or TCP probes."""
        if probe_kind not in ("icmp", "tcp"):
            raise MeasurementError(f"unknown probe kind {probe_kind!r}")
        consensus = self.host.proxy.consensus
        descriptor = x if isinstance(x, RelayDescriptor) else consensus.get(x)
        if self._local_delay_ms is None:
            self.calibrate_local()
        local = self._local_delay_ms
        assert local is not None

        circuit_rtt = self._measure_circuit(
            (
                self.host.relay_w.fingerprint,
                descriptor.fingerprint,
                self.host.relay_z.fingerprint,
            )
        )
        target = self.host.topology.host_by_address(descriptor.address)
        if probe_kind == "icmp":
            probe_rtt = self._icmp_from_w.measure_min_rtt(
                target, count=self.probe_count
            )
        else:
            probe_rtt = self._tcp_from_w.measure_min_rtt(
                target, count=self.probe_count
            )
        loopback = self._icmp_from_s.measure_min_rtt(
            self.host.relay_w.host, count=self.probe_count
        )
        # The bracket below is 2·F_x plus twice any protocol differential
        # at x's network; halve it to report the per-direction delay
        # (the 0–3 ms scale of the paper's Figure 5).
        forwarding = (
            circuit_rtt - 2.0 * local - 2.0 * probe_rtt - 2.0 * loopback
        ) / 2.0
        return ForwardingDelayReport(
            fingerprint=descriptor.fingerprint,
            probe_kind=probe_kind,
            forwarding_delay_ms=forwarding,
            circuit_rtt_ms=circuit_rtt,
            probe_rtt_ms=probe_rtt,
            local_delay_ms=local,
        )

    # ------------------------------------------------------------------

    def _measure_circuit(self, path: tuple[str, ...]) -> Milliseconds:
        result = run_to_completion(
            self.host.sim, TingMeasurer(self.host).measure, path, self.policy
        )
        return min_estimate(result.rtts_ms)
