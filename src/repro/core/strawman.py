"""The Section 3.2 strawman: mix a Tor circuit with ICMP pings.

The King-style approach the paper rejects:

1. Build circuit ``C = (x, y)`` from s, attach a connection to d, and
   measure ``R_C(s,d) = R(s,x) + R(x,y) + R(y,d)``.
2. Ping x from s and y from d (ICMP).
3. Estimate ``R(x,y) = R_C − ping(s,x) − ping(y,d)``.

It fails for two reasons the paper identifies, both reproduced by the
simulator: networks treat ICMP and Tor-class traffic differently (so the
pinged path is *not* a sub-path cost of the Tor path), and the circuit
measurement retains x's and y's forwarding delays uncorrected.

Kept as an implemented, evaluated baseline for the
``test_sec32_strawman`` bench and the ablation study.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.measurement_host import MeasurementHost
from repro.core.sampling import SamplePolicy, min_estimate
from repro.core.ting import TingMeasurer, run_to_completion
from repro.netsim.transport import IcmpPinger
from repro.tor.directory import RelayDescriptor
from repro.util.errors import MeasurementError
from repro.util.units import Milliseconds


@dataclass
class StrawmanResult:
    """Outcome of one strawman pair measurement."""

    x_fingerprint: str
    y_fingerprint: str
    rtt_ms: Milliseconds
    circuit_rtt_ms: Milliseconds
    ping_x_ms: Milliseconds
    ping_y_ms: Milliseconds


class StrawmanMeasurer:
    """Estimates R(x, y) by subtracting pings from a 2-hop circuit RTT."""

    def __init__(
        self,
        host: MeasurementHost,
        policy: SamplePolicy | None = None,
        ping_count: int = 100,
    ) -> None:
        self.host = host
        self.policy = policy or SamplePolicy.high_accuracy()
        self.ping_count = ping_count
        self._pinger = IcmpPinger(host.fabric, host.echo_client_host)

    def measure_pair(
        self, x: RelayDescriptor | str, y: RelayDescriptor | str
    ) -> StrawmanResult:
        """Run the strawman procedure for the pair (x, y).

        Requires y's exit policy to allow the echo server (true on the
        validation testbed, where relays exit only to our hosts — and the
        reason the strawman can't even run against most live relays).
        """
        consensus = self.host.proxy.consensus
        x_desc = x if isinstance(x, RelayDescriptor) else consensus.get(x)
        y_desc = y if isinstance(y, RelayDescriptor) else consensus.get(y)
        if x_desc.fingerprint == y_desc.fingerprint:
            raise MeasurementError("cannot measure a relay against itself")
        if not y_desc.exit_policy.allows(self.host.echo_address, self.host.echo_port):
            raise MeasurementError(
                f"{y_desc.nickname} will not exit to the echo server; "
                "the strawman cannot measure this pair"
            )

        circuit_rtt = self._measure_circuit(x_desc, y_desc)
        ping_x = self._ping(x_desc)
        ping_y = self._ping(y_desc)
        estimate = circuit_rtt - ping_x - ping_y
        return StrawmanResult(
            x_fingerprint=x_desc.fingerprint,
            y_fingerprint=y_desc.fingerprint,
            rtt_ms=estimate,
            circuit_rtt_ms=circuit_rtt,
            ping_x_ms=ping_x,
            ping_y_ms=ping_y,
        )

    def _measure_circuit(
        self, x_desc: RelayDescriptor, y_desc: RelayDescriptor
    ) -> Milliseconds:
        path = [x_desc, y_desc]
        result = run_to_completion(
            self.host.sim, TingMeasurer(self.host).measure, path, self.policy
        )
        return min_estimate(result.rtts_ms)

    def _ping(self, descriptor: RelayDescriptor) -> Milliseconds:
        target = self.host.topology.host_by_address(descriptor.address)
        return self._pinger.measure_min_rtt(target, count=self.ping_count)
