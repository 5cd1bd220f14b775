"""A refused connection fails what waits on it within a round trip.

An EXTEND to a relay that refuses the OR connection used to wait out the
client's 60 s build timeout ("circuit build timed out"): the extending
relay only forgot the connection. It now tears the waiting circuit down,
DESTROY toward the client. Likewise a circuit chained on the client's own
entry connection while it connects is failed with it, not left to time out.
"""

from __future__ import annotations

import pytest

from repro.testbeds.livetor import LiveTorTestbed


def _build(testbed, path):
    outcome = []
    testbed.measurement.proxy.create_circuit(
        path,
        lambda circuit: outcome.append(("built", testbed.sim.now)),
        lambda circuit, reason: outcome.append((reason, testbed.sim.now)),
    )
    return outcome


@pytest.mark.parametrize("dead_hop", [1, 2])
def test_an_extension_to_a_refusing_relay_fails_at_once(dead_hop):
    testbed = LiveTorTestbed.build(seed=3, n_relays=12)
    host = testbed.measurement
    path = [host.relay_w, testbed.relays[0], testbed.relays[1]]
    path[dead_hop].shutdown()
    outcome = _build(testbed, [relay.fingerprint for relay in path])
    testbed.sim.run_until_idle()
    [(reason, at)] = outcome
    # The extending relay's reason; a hop between it and the client
    # passes the DESTROY on as its own teardown.
    expected = "extend failed: connection refused" if dead_hop == 1 else "torn down"
    assert reason == f"destroyed: {expected}"
    # The round trip to the extending hop and the refused SYN's, far
    # under the build timeout.
    assert at < 2_000.0


def test_circuits_chained_on_a_refused_entry_connection_all_fail():
    testbed = LiveTorTestbed.build(seed=3, n_relays=12)
    entry, middle, last = testbed.relays[:3]
    entry.shutdown()
    path = [entry.fingerprint, middle.fingerprint, last.fingerprint]
    first, chained = _build(testbed, path), _build(testbed, path)
    testbed.sim.run_until_idle()
    for outcome in (first, chained):
        [(reason, at)] = outcome
        assert reason == "entry connection failed: connection refused"
        assert at < 2_000.0
    assert first[0][1] == chained[0][1]
