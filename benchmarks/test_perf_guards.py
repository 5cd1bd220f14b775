"""Hot-path performance guards (``pytest benchmarks -m benchguard``).

Each guard times a rewritten hot path against an inline transcription
of the implementation it replaced, at a scale where the asymptotic or
constant-factor difference dwarfs timer noise. They exist so the slow
pattern cannot quietly come back: a revert shows up as a hard assertion
failure, not a gradual wall-time drift someone has to notice.
"""

import hashlib
import sys
import time

import numpy as np
import pytest

from _config import scaled
from repro.netsim import EventHandle
from repro.tor.cells import RELAY_BODY_LEN
from repro.tor.crypto import LayerCipher

#: The acceptance bar for the cell path: AES-CTR in one C call at least
#: this much faster than the hash-keystream cipher it replaced, on
#: full-size relay-cell bodies.
CRYPTO_SPEEDUP_FLOOR = 3.0

#: Python frames one ``LayerCipher(key)`` may enter, its own included.
#: Through the public ``Cipher(AES(key), mode).encryptor()`` it was 25
#: (the deprecation ``__getattr__`` of the ``algorithms`` module, ``abc``
#: checks, the mode re-validated); through the binding that call ends
#: in, 11 (``cryptography`` 48.0).
CONTEXT_FRAMES_CEILING = 12


class _ShakeLayerCipher:
    """The replaced cipher: one SHAKE-128 squeeze per relay-body-sized
    block from a ``copy()`` of the key-absorbed state, buffered, XORed
    through numpy uint8 views (its keystream is no longer the production
    schedule; only its speed is compared)."""

    def __init__(self, key: bytes) -> None:
        self._base = hashlib.shake_128(key)
        self._counter = 0
        self._leftover = b""

    def process(self, data: bytes) -> bytes:
        n = len(data)
        stream = self._leftover
        while len(stream) < n:
            block = self._base.copy()
            block.update(self._counter.to_bytes(8, "big"))
            self._counter += 1
            stream += block.digest(RELAY_BODY_LEN)
        self._leftover = stream[n:]
        return (
            np.frombuffer(data, np.uint8) ^ np.frombuffer(stream, np.uint8, n)
        ).tobytes()


def _best_of(rounds: int, run) -> float:
    """Best-of-N wall time: the minimum is the least noisy estimator."""
    return min(run() for _ in range(rounds))


@pytest.mark.benchguard
def test_cell_crypto_fast_path_guard(report):
    """AES-CTR keystream and XOR in one C call must beat one SHAKE-128
    squeeze plus a numpy XOR per body >= 3x."""
    cells = scaled(30_000, minimum=10_000)
    body = bytes(range(256)) * 2  # 512-byte relay-cell-sized payload
    key = b"\x07" * 32

    def time_cipher(make_cipher) -> float:
        cipher = make_cipher(key)
        start = time.perf_counter()
        for _ in range(cells):
            cipher.process(body)
        return time.perf_counter() - start

    # Interleaved best-of-5 rounds: drift in machine load hits both
    # implementations equally instead of biasing whichever ran last.
    rounds = [
        (time_cipher(LayerCipher), time_cipher(_ShakeLayerCipher)) for _ in range(5)
    ]
    fast_s = min(fast for fast, _ in rounds)
    slow_s = min(slow for _, slow in rounds)
    speedup = slow_s / fast_s
    report(
        f"cell crypto, {cells} x 512-byte bodies: SHAKE-128 squeeze + numpy XOR "
        f"{slow_s / cells * 1e6:.2f} us vs AES-CTR {fast_s / cells * 1e6:.2f} us "
        f"per body ({speedup:.1f}x)"
    )
    # The production keystream is pinned byte-for-byte by
    # tests/tor/test_crypto_equivalence.py; this guard is purely speed.
    assert speedup >= CRYPTO_SPEEDUP_FLOOR


def _kernel_circuit():
    """The probe kernel's world (``bench/kernels.py``): a four-hop
    circuit ``(w, x, y, z)`` on a 20-relay live-Tor testbed."""
    from repro.testbeds.livetor import LiveTorTestbed

    testbed = LiveTorTestbed.build(seed=47, n_relays=20)
    host = testbed.measurement
    fps = [relay.descriptor().fingerprint for relay in testbed.relays]
    circuit = host.controller.build_circuit(
        [host.relay_w.fingerprint, fps[0], fps[1], host.relay_z.fingerprint]
    )
    return testbed, circuit


def _cells(testbed) -> int:
    host = testbed.measurement
    return sum(
        relay.cells_processed
        for relay in (*testbed.relays, host.relay_w, host.relay_z)
    )


@pytest.mark.benchguard
def test_cipher_contexts_per_circuit_guard(report, monkeypatch):
    """A four-hop build constructs exactly 16 cipher contexts (two
    directions, client and relay side, per hop) and a probe none: a
    context costs ~5 bodies' worth of encryption to create, so per-cell
    construction must never creep in. One context enters at most
    :data:`CONTEXT_FRAMES_CEILING` Python frames: the binding the public
    ``Cipher(...).encryptor()`` ends in, not the façade around it. A
    flown ping-pong probe (a probe flight) goes further: no cipher call
    at all and still 7 cells reported. The 50-probe round is walked at
    its first send and lands in one event: 2 events in all (51 when each
    probe landed in an event of its own). Counted, not timed."""
    from repro.tor import crypto

    key = b"\x07" * 32
    LayerCipher(key)  # the ``abc`` caches warm on the first context
    frames = []
    sys.setprofile(lambda frame, event, arg: frames.append(1) if event == "call" else None)
    try:
        LayerCipher(key)
    finally:
        sys.setprofile(None)

    created, processed = [], []

    class CountingLayerCipher(LayerCipher):
        __slots__ = ()

        def __init__(self, key: bytes) -> None:
            created.append(len(key))
            super().__init__(key)
            update = self.process

            def process(data: bytes) -> bytes:
                processed.append(len(data))
                return update(data)

            self.process = process

    monkeypatch.setattr(crypto, "LayerCipher", CountingLayerCipher)
    testbed, circuit = _kernel_circuit()
    host = testbed.measurement
    built = len(created)
    stream = host.controller.open_stream(circuit, host.echo_address, host.echo_port)
    updates, events, cells = len(processed), testbed.sim.events_processed, _cells(testbed)
    probes = 50
    result = host.echo_client.probe(
        stream, probes, interval_ms=None, timeout_ms=probes * 30_000.0
    )
    assert len(result.rtts_ms) == probes
    updates = len(processed) - updates
    events = testbed.sim.events_processed - events
    cells = _cells(testbed) - cells
    report(
        f"cipher contexts: {built} per four-hop build, {len(frames)} Python "
        f"frames each, {len(created) - built} over stream open + {probes} probes; "
        f"per flown probe {updates / probes:g} cipher calls, "
        f"{events / probes:g} events, {cells / probes:g} cells"
    )
    assert built == 16
    assert len(frames) <= CONTEXT_FRAMES_CEILING
    assert len(created) == built
    assert (updates, events, cells) == (0, 2, 7 * probes)


#: A flown probe must cost at most this fraction of a cell-path probe.
#: With the path charted once per stream (``Probe.charted``)
#: instead of twice per probe, and the next ping-pong send made inside
#: the landing, a 2-vCPU x86 box reads flown 34.3 → 16.6 µs against
#: 102 → 96 µs on the cell path: 0.34x → 0.17x. With the round walked
#: once at its launch (``Probe.walk_round``): flown 11.1–11.6 →
#: 7.6–8.0 µs against 67–70 µs, 0.17x → 0.11x. With the walked round
#: landing in one event, its replies handed over as one list: 11.6–17.9
#: → 5.3–8.1 µs against 95–145 µs on the cell path, 0.12x → 0.05–0.06x.
FLIGHT_COST_CEILING = 0.2


@pytest.mark.benchguard
def test_probe_flight_guard(report, monkeypatch):
    """A ping-pong probe that flies (walks its circuit inside the
    sending event, lands in one) against the same probe sent as cells
    (18 events, 7 cells through AES and digests) on the probe kernel's
    world. The reference is the production cell path itself, reached by
    making the flight's one entry point refuse."""
    from repro.tor.flight import Probe

    probes = scaled(1_000, minimum=300)

    def time_probes(refuse: bool) -> float:
        testbed, circuit = _kernel_circuit()
        host = testbed.measurement
        stream = host.controller.open_stream(
            circuit, host.echo_address, host.echo_port
        )
        with monkeypatch.context() as patch:
            if refuse:
                patch.setattr(Probe, "launch", lambda self: False)
            start = time.perf_counter()
            result = host.echo_client.probe(
                stream, probes, interval_ms=None, timeout_ms=probes * 30_000.0
            )
            wall = time.perf_counter() - start
        assert len(result.rtts_ms) == probes
        return wall

    rounds = [(time_probes(False), time_probes(True)) for _ in range(5)]
    flown_s = min(flown for flown, _ in rounds)
    cells_s = min(cells for _, cells in rounds)
    report(
        f"ping-pong probe, {probes} per round: flown "
        f"{flown_s / probes * 1e6:.1f} us vs cell path "
        f"{cells_s / probes * 1e6:.1f} us ({flown_s / cells_s:.2f}x)"
    )
    assert flown_s <= FLIGHT_COST_CEILING * cells_s


@pytest.mark.benchguard
def test_round_walk_guard(report, monkeypatch):
    """A 200-probe ping-pong round on the probe kernel's world is walked
    once, at its first launch: one walk holding all 200 probes, two
    simulator events (the round's first send and its one landing; 201
    when each probe landed in an event of its own), and exactly the
    block reads the same round makes as cells — nothing read ahead that
    the cells would not read. Counted, not timed."""
    from repro.tor.flight import Probe
    from repro.util.rng import BLOCK_WORDS, DrawStream

    probes = 200

    def one_round(refuse: bool) -> tuple[list, int, int, list]:
        testbed, circuit = _kernel_circuit()
        host = testbed.measurement
        stream = host.controller.open_stream(
            circuit, host.echo_address, host.echo_port
        )
        walks, reads = [], []
        walk, read, read_run = Probe.walk_round, DrawStream.read, DrawStream.read_run

        def walked(probe, left):
            held = walk(probe, left)
            walks.append(held)
            return held

        def counted(draws, base):
            reads.append(base)
            return read(draws, base)

        def counted_run(draws, base, u, e):
            reads.extend(range(base, base + len(u), BLOCK_WORDS))
            return read_run(draws, base, u, e)

        with monkeypatch.context() as patch:
            if refuse:
                patch.setattr(Probe, "launch", lambda self: False)
            patch.setattr(Probe, "walk_round", walked)
            patch.setattr(DrawStream, "read", counted)
            patch.setattr(DrawStream, "read_run", counted_run)
            events = testbed.sim.events_processed
            result = host.echo_client.probe(
                stream, probes, interval_ms=None, timeout_ms=probes * 30_000.0
            )
        return result.rtts_ms, testbed.sim.events_processed - events, len(reads), walks

    rtts, events, reads, walks = one_round(refuse=False)
    cell_rtts, _, cell_reads, _ = one_round(refuse=True)
    report(
        f"round walk, {probes} probes: {len(walks)} walk(s) holding {walks}, "
        f"{events} events, {reads} block reads "
        f"({cell_reads} as cells)"
    )
    assert rtts == cell_rtts
    assert walks == [probes]
    assert events == 2
    assert reads == cell_reads


@pytest.mark.benchguard
def test_event_comparison_guard(report):
    """List-keyed events (compared in C) must beat the slotted class
    with a Python ``__lt__`` they replaced.

    The heap performs O(log n) comparisons per push/pop at tens of
    millions of operations per campaign; the guard times the comparison
    itself, which is what making ``EventHandle`` a list bought.
    """

    class SlottedEvent:
        # The replaced pattern: hand-written compare on (time, seq).
        __slots__ = ("time", "seq", "callback", "args", "cancelled", "done")

        def __init__(self, t, s, callback, args=()):
            self.time = t
            self.seq = s
            self.callback = callback
            self.args = args
            self.cancelled = False
            self.done = False

        def __lt__(self, other):
            if self.time != other.time:
                return self.time < other.time
            return self.seq < other.seq

    def noop() -> None:
        pass

    n = scaled(400_000, minimum=100_000)
    fast_events = [
        EventHandle((float(i % 97), i, noop, (), False, False, None)) for i in range(n)
    ]
    slow_events = [SlottedEvent(float(i % 97), i, noop) for i in range(n)]

    def time_sort(events) -> float:
        start = time.perf_counter()
        sorted(events)
        return time.perf_counter() - start

    fast_s = _best_of(3, lambda: time_sort(fast_events))
    slow_s = _best_of(3, lambda: time_sort(slow_events))
    report(
        f"event compare, sort of {n}: slotted __lt__ {slow_s * 1000:.0f} ms "
        f"vs list keys {fast_s * 1000:.0f} ms ({slow_s / fast_s:.2f}x)"
    )
    # The win is a constant factor, not asymptotic; any honest margin
    # is modest, so guard only against the rewrite being fully undone.
    assert fast_s < slow_s


@pytest.mark.benchguard
def test_categorical_draw_guard(report):
    """A bisect over a CDF computed once must beat per-call
    ``Generator.choice(n, p=p)`` (the replaced pattern: it re-validates
    and re-cumsums the build's region weights for every relay) >= 5x."""
    from repro.netsim.geo import TOR_REGION_WEIGHTS
    from repro.util.rng import categorical_cdf, draw_categorical

    draws = scaled(50_000, minimum=20_000)
    p = np.array(list(TOR_REGION_WEIGHTS.values()))
    p /= p.sum()
    cdf = categorical_cdf(p)

    def time_choice() -> float:
        rng = np.random.default_rng(47)
        start = time.perf_counter()
        for _ in range(draws):
            int(rng.choice(len(p), p=p))
        return time.perf_counter() - start

    def time_bisect() -> float:
        rng = np.random.default_rng(47)
        start = time.perf_counter()
        for _ in range(draws):
            draw_categorical(rng, cdf)
        return time.perf_counter() - start

    # Interleaved rounds, best of 5 each (see the crypto guard).
    rounds = [(time_bisect(), time_choice()) for _ in range(5)]
    fast_s = min(fast for fast, _ in rounds)
    slow_s = min(slow for _, slow in rounds)
    report(
        f"categorical draw, {draws} draws over {len(p)} weights: "
        f"Generator.choice {slow_s / draws * 1e6:.2f} us vs CDF bisect "
        f"{fast_s / draws * 1e6:.2f} us ({slow_s / fast_s:.1f}x)"
    )
    # Value-and-state equality with ``choice`` is pinned by
    # tests/netsim/test_rng_identities.py; this guard is purely speed.
    assert slow_s / fast_s >= 5.0


@pytest.mark.benchguard
def test_world_build_scaling_guard(report):
    """``LiveTorTestbed.build`` stays linear in the relay count: us per
    relay at 2,000 relays within 1.3x of us per relay at 500 (the build
    is paid once per sharded run, on the way to 6,500 relays)."""
    from repro.testbeds.livetor import LiveTorTestbed

    def per_relay_us(n_relays: int) -> float:
        def build() -> float:
            start = time.perf_counter()
            LiveTorTestbed.build(seed=47, n_relays=n_relays)
            return time.perf_counter() - start

        return _best_of(3, build) / n_relays * 1e6

    LiveTorTestbed.build(seed=47, n_relays=50)  # imports, first-use set-up
    small, large = per_relay_us(500), per_relay_us(2_000)
    report(
        f"world build: {small:.1f} us/relay at 500 relays, "
        f"{large:.1f} us/relay at 2,000 ({large / small:.2f}x)"
    )
    assert large <= 1.3 * small
