"""Shared fixtures.

Heavy worlds (topologies, testbeds, all-pairs matrices) are built once
per session; tests that only *read* them share the instance, and tests
that mutate simulation state build their own via the factory fixtures.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time

import numpy as np
import pytest

from repro.core.measurement_host import MeasurementHost
from repro.netsim.engine import Simulator
from repro.netsim.latency import LatencyEngine
from repro.netsim.routing import Router
from repro.netsim.topology import Topology, TopologyBuilder
from repro.netsim.transport import NetworkFabric
from repro.testbeds.livetor import LiveTorTestbed
from repro.testbeds.planetlab import PlanetLabTestbed
from repro.tor.directory import DirectoryAuthority, ExitPolicy
from repro.tor.relay import ForwardingDelayModel, Relay
from repro.util import cpus
from repro.util.rng import RandomStreams


def reference_draw(
    seed: int, name: str, context: str | None, k: int
) -> tuple[float, float, float, float]:
    """Draw ``k`` of entity ``name`` — ``(u0, u1, e0, e1)`` — as the rule
    in ``repro.util.rng`` states it, from a fresh ``Philox``: keyed by
    SHA-256 of ``seed:name``, counter ``(0, block, context)`` with the
    context SHA-256 of the isolation key (zero before any ``begin``),
    32 uniforms then 32 standard exponentials per block of 16 draws."""

    def words(text: str) -> list[int]:
        digest = hashlib.sha256(text.encode()).digest()[:16]
        return [int.from_bytes(digest[i : i + 8], "little") for i in (0, 8)]

    def uint64(values) -> np.ndarray:
        # Explicitly: a list of Python ints above 2**63 goes through float64.
        return np.array(values, dtype=np.uint64)

    block, offset = divmod(k, 16)
    counter = [0, block, *(words(context) if context is not None else (0, 0))]
    fresh = np.random.Generator(
        np.random.Philox(key=uint64(words(f"{seed}:{name}")), counter=uint64(counter))
    )
    u, e = fresh.random(32), fresh.standard_exponential(32)
    return (
        float(u[2 * offset]), float(u[2 * offset + 1]),
        float(e[2 * offset]), float(e[2 * offset + 1]),
    )


def take_draw(stream) -> tuple[float, float, float, float]:
    """The next draw of a ``DrawStream``, as ``(u0, u1, e0, e1)``."""
    i = stream.take()
    return (stream.u[i], stream.u[i + 1], stream.e[i], stream.e[i + 1])


# ----------------------------------------------------------------------
# Worker faults, injected at the fork pool's one seam

#: How the pool names worker ``i`` at each of its three call sites.
WORKER_NAMES = {
    "leg round": "leg round worker {}",
    "pair round": "shard {} worker",
    "serve": "serve worker {}",
}


def worker_fault(monkeypatch, name: str, wrap) -> None:
    """Make pool worker ``name`` run ``wrap(work)`` in place of ``work``.

    Patched at the child's entry (``repro.util.cpus._pool_child``),
    which a forked child inherits: placement, the pickling of the
    result and the error / death reporting around ``work`` run exactly
    as they do for a real fault. Calls compose, one worker each.
    """
    real = cpus._pool_child

    def child(worker, index, n_workers, work, *rest):
        real(worker, index, n_workers, wrap(work) if worker == name else work, *rest)

    monkeypatch.setattr(cpus, "_pool_child", child)


def _claim_then(act):
    """A fault that claims one task first — a stolen chunk dies with it
    (a serve worker claims nothing) — then acts."""

    def wrap(work):
        def faulty(job, next_task, send):
            next_task()
            act()

        return faulty

    return wrap


def _raise() -> None:
    raise RuntimeError("injected fault")


def slow(delay_s: float):
    """A straggler, not a corpse: ``delay_s`` before starting and before
    every task it claims."""

    def wrap(work):
        def slowed(job, next_task, send):
            def late_task():
                time.sleep(delay_s)
                return next_task()

            time.sleep(delay_s)
            return work(job, late_task, send)

        return slowed

    return wrap


#: pickle looks a function up by name, and a lambda has none.
UNPICKLABLE = lambda: None  # noqa: E731


def _unpicklable(work):
    def faulty(job, next_task, send):
        return work(job, next_task, send), UNPICKLABLE

    return faulty


WORKER_FAULTS = {
    "kill": _claim_then(lambda: os.kill(os.getpid(), signal.SIGKILL)),
    "raise": _claim_then(_raise),
    "hang": _claim_then(lambda: time.sleep(600.0)),
    "slow": slow(0.15),
    "unpicklable": _unpicklable,
}


def wedge_in_pair(work):
    """Forward what the worker sends until a heartbeat names a pair in
    flight, then go silent for good — inside the pair, not between."""

    def wedged(job, next_task, send):
        def send_then_wedge(msg):
            send(msg)
            if msg[0] == "hb" and str(msg[2]["in_flight"]).startswith("pair "):
                while True:
                    time.sleep(3600)

        return work(job, next_task, send_then_wedge)

    return wedged


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(seed=1234)


class MiniWorld:
    """A tiny complete deployment: N public relays + measurement host."""

    def __init__(self, seed: int = 42, n_relays: int = 4) -> None:
        self.streams = RandomStreams(seed)
        self.builder = TopologyBuilder(self.streams.get("topology"))
        self.topology = self.builder.build()
        self.router = Router(self.topology.graph)
        self.sim = Simulator()
        self.latency = LatencyEngine(self.topology, self.router, self.streams)
        self.fabric = NetworkFabric(self.sim, self.latency)
        self.authority = DirectoryAuthority()
        self.relays: list[Relay] = []
        pops = sorted(self.topology.pops)
        for i in range(n_relays):
            host = self.builder.attach_random_host(
                self.topology, f"mini{i}", pops[(i * 7) % len(pops)], "hosting"
            )
            relay = Relay(
                self.sim,
                self.fabric,
                self.topology,
                host,
                nickname=f"mini{i}",
                bandwidth_kbps=1024 * (i + 1),
                exit_policy=ExitPolicy.accept_all() if i % 2 == 0 else ExitPolicy.reject_all(),
                forwarding_model=ForwardingDelayModel(load=0.1),
            )
            self.relays.append(relay)
            self.authority.publish(relay.descriptor())
        self.consensus = self.authority.make_consensus()
        self.measurement = MeasurementHost.deploy(
            self.sim,
            self.fabric,
            self.topology,
            self.builder,
            self.consensus,
            pop_id=pops[0],
            streams=self.streams,
        )

    def fingerprints(self) -> list[str]:
        return [r.fingerprint for r in self.relays]


@pytest.fixture
def mini_world() -> MiniWorld:
    """A fresh tiny deployment per test (mutation-safe)."""
    return MiniWorld()


@pytest.fixture(scope="session")
def shared_mini_world() -> MiniWorld:
    """A session-shared tiny deployment for read-mostly tests."""
    return MiniWorld(seed=77)


@pytest.fixture(scope="session")
def pl_testbed() -> PlanetLabTestbed:
    """A small PlanetLab-style testbed shared across validation tests."""
    return PlanetLabTestbed.build(seed=5, n_relays=6)


@pytest.fixture(scope="session")
def live_testbed() -> LiveTorTestbed:
    """A small live-Tor-shaped network shared across app tests."""
    return LiveTorTestbed.build(seed=5, n_relays=40)


@pytest.fixture(scope="session")
def oracle_matrix(live_testbed: LiveTorTestbed) -> np.ndarray:
    """A 30-node all-pairs oracle RTT matrix over the live testbed."""
    rng = np.random.default_rng(9)
    descriptors = live_testbed.random_relays(30, rng)
    n = len(descriptors)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            rtt = live_testbed.oracle_rtt(descriptors[i], descriptors[j])
            matrix[i, j] = matrix[j, i] = rtt
    return matrix
