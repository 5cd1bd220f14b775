"""Isolated unit-cost kernels: one layer's public API driven on a small world.

Each kernel returns per-layer metrics keyed by their full name. The
unit costs feed the *modelled* layer shares of the campaign workloads
(``events × ns/event ÷ wall`` and friends) — modelled, not measured,
until ``repro profile`` (ROADMAP item 2) can attribute wall time from
inside the program. Every kernel runs ``REPS`` times, each time
normalised by the box speed read around it, and keeps the fastest.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.netsim import IcmpPinger, Simulator
from repro.testbeds.livetor import LiveTorTestbed
from repro.tor import RelayCellBody, RelayCommand
from repro.tor.crypto import LayerCipher

from bench.harness import box_speed_ms, normalise
from bench.trace import NullRecorder, SpanRecorder

REPS = 3
WORLD_RELAYS = 20
#: Simulated deadline allowed per ping-pong probe of the probe kernel.
PROBE_TIMEOUT_MS = 30_000.0

#: Operation counts per kernel: (full, smoke).
SIZES = {
    "events": (50_000, 5_000),
    "pings": (2_000, 100),
    "cells": (5_000, 500),
    "roundtrips": (20_000, 1_000),
    "circuits": (100, 5),
    "probes": (1_000, 50),
}


def _fastest(
    once: Callable[[], tuple[float, dict[str, float]]], metric: str, per_second: float
) -> dict[str, float]:
    """Run ``once`` REPS times; ``once`` returns its wall and its counts.

    The fastest normalised wall becomes ``metric`` (``per_second`` turns
    seconds into the metric's unit per operation) beside that
    repetition's counts.
    """
    best: tuple[float, dict[str, float]] | None = None
    for _ in range(REPS):
        before = box_speed_ms()
        wall, counts = once()
        wall = normalise(wall, before, box_speed_ms())
        if best is None or wall < best[0]:
            best = (wall, counts)
    return {metric: best[0] * per_second, **best[1]}


def testbed_cells(testbed: LiveTorTestbed) -> int:
    """Cells processed by every relay of the world, helpers w and z included."""
    host = testbed.measurement
    return (
        sum(relay.cells_processed for relay in testbed.relays)
        + host.relay_w.cells_processed
        + host.relay_z.cells_processed
    )


def engine(n: int) -> dict[str, float]:
    """Schedule ``n`` timers, cancel every other one, drain the heap —
    the pattern echo-probe deadline timers put on the event loop."""

    def once() -> tuple[float, dict[str, float]]:
        sim = Simulator()

        def noop() -> None:
            pass

        start = time.perf_counter()
        handles = [sim.schedule(float(i % 97), noop) for i in range(n)]
        for handle in handles[::2]:
            handle.cancel()
        sim.run()
        return time.perf_counter() - start, {}

    return _fastest(once, "netsim.engine.kernel_ns_per_event", 1e9 / n)


def transport(seed: int, n: int) -> dict[str, float]:
    """ICMP pings measurement host → relay: link, queue and routing, no Tor."""

    def once() -> tuple[float, dict[str, float]]:
        testbed = LiveTorTestbed.build(seed=seed, n_relays=WORLD_RELAYS)
        pinger = IcmpPinger(testbed.fabric, testbed.measurement.echo_client_host)
        before = testbed.sim.events_processed
        start = time.perf_counter()
        pinger.measure_min_rtt(testbed.relays[0].host, count=n)
        wall = time.perf_counter() - start
        return wall, {
            "netsim.transport.events_per_ping": (
                (testbed.sim.events_processed - before) / n
            ),
        }

    return _fastest(once, "netsim.transport.kernel_us_per_ping", 1e6 / n)


def crypto(n: int) -> dict[str, float]:
    """Three onion layers over one 512-byte relay-cell body."""
    layers = [LayerCipher(bytes([i]) * 32) for i in range(3)]
    body = bytes(range(256)) * 2

    def once() -> tuple[float, dict[str, float]]:
        start = time.perf_counter()
        for _ in range(n):
            data = body
            for layer in layers:
                data = layer.process(data)
        return time.perf_counter() - start, {}

    return _fastest(once, "tor.crypto.kernel_ns_per_cell", 1e9 / n)


def cells(n: int) -> dict[str, float]:
    """``RelayCellBody.pack`` → ``unpack`` of a DATA cell."""
    body = RelayCellBody(RelayCommand.DATA, stream_id=1, data=b"x" * 64)

    def once() -> tuple[float, dict[str, float]]:
        start = time.perf_counter()
        for _ in range(n):
            RelayCellBody.unpack(body.pack())
        return time.perf_counter() - start, {}

    return _fastest(once, "tor.cells.kernel_ns_per_roundtrip", 1e9 / n)


def circuits(seed: int, n: int) -> dict[str, float]:
    """Build and close ``n`` four-hop Ting circuits ``(w, x, y, z)``."""

    def once() -> tuple[float, dict[str, float]]:
        testbed = LiveTorTestbed.build(seed=seed, n_relays=WORLD_RELAYS)
        host = testbed.measurement
        fps = [relay.descriptor().fingerprint for relay in testbed.relays]
        w, z = host.relay_w.fingerprint, host.relay_z.fingerprint
        events0, cells0 = testbed.sim.events_processed, testbed_cells(testbed)
        start = time.perf_counter()
        for i in range(n):
            x, y = fps[i % len(fps)], fps[(i + 1) % len(fps)]
            host.controller.close_circuit(host.controller.build_circuit([w, x, y, z]))
        testbed.sim.run_until_idle()
        wall = time.perf_counter() - start
        return wall, {
            "tor.client.events_per_circuit": (
                (testbed.sim.events_processed - events0) / n
            ),
            "tor.client.cells_per_circuit": (testbed_cells(testbed) - cells0) / n,
        }

    return _fastest(once, "tor.client.kernel_us_per_circuit", 1e6 / n)


def probes(seed: int, n: int) -> dict[str, float]:
    """``n`` ping-pong echo probes down one open stream."""

    def once() -> tuple[float, dict[str, float]]:
        testbed = LiveTorTestbed.build(seed=seed, n_relays=WORLD_RELAYS)
        host = testbed.measurement
        fps = [relay.descriptor().fingerprint for relay in testbed.relays]
        circuit = host.controller.build_circuit(
            [host.relay_w.fingerprint, fps[0], fps[1], host.relay_z.fingerprint]
        )
        stream = host.controller.open_stream(
            circuit, host.echo_address, host.echo_port
        )
        events0, cells0 = testbed.sim.events_processed, testbed_cells(testbed)
        start = time.perf_counter()
        # The default deadline (600 simulated seconds) covers a whole run,
        # not a probe: n ping-pong probes down a slow circuit outlast it
        # on one seed in eight. Scale it with n so every probe returns.
        result = host.echo_client.probe(
            stream, n, interval_ms=None, timeout_ms=n * PROBE_TIMEOUT_MS
        )
        wall = time.perf_counter() - start
        if len(result.rtts_ms) != n:
            raise RuntimeError(f"probe kernel lost replies: {len(result.rtts_ms)}/{n}")
        return wall, {
            "echo.client.events_per_probe": (
                (testbed.sim.events_processed - events0) / n
            ),
            "echo.client.cells_per_probe": (testbed_cells(testbed) - cells0) / n,
        }

    return _fastest(once, "echo.client.kernel_us_per_probe", 1e6 / n)


def run_all(
    seed: int, smoke: bool, tracer: SpanRecorder | NullRecorder
) -> dict[str, float]:
    """Every kernel, each under its own span; returns the merged metrics."""
    size = {name: pair[1 if smoke else 0] for name, pair in SIZES.items()}
    plan: list[tuple[str, Callable[[], dict[str, float]]]] = [
        ("netsim.engine.kernel", lambda: engine(size["events"])),
        ("netsim.transport.kernel", lambda: transport(seed, size["pings"])),
        ("tor.crypto.kernel", lambda: crypto(size["cells"])),
        ("tor.cells.kernel", lambda: cells(size["roundtrips"])),
        ("tor.client.kernel", lambda: circuits(seed, size["circuits"])),
        ("echo.client.kernel", lambda: probes(seed, size["probes"])),
    ]
    out: dict[str, float] = {}
    for span_name, kernel in plan:
        with tracer.span(span_name):
            out.update(kernel())
    return out
