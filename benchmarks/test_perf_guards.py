"""Hot-path performance guards (``pytest benchmarks -m benchguard``).

Each guard times a rewritten hot path against an inline transcription
of the implementation it replaced, at a scale where the asymptotic or
constant-factor difference dwarfs timer noise. They exist so the slow
pattern cannot quietly come back: a revert shows up as a hard assertion
failure, not a gradual wall-time drift someone has to notice.
"""

import hashlib
import time

import pytest

from _config import scaled
from repro.tor.crypto import LayerCipher

_BLOCK = 64
#: The acceptance bar for the fast cell path: at least this much faster
#: than the per-byte loop on full-size relay-cell bodies.
CRYPTO_SPEEDUP_FLOOR = 5.0


class _PerByteLayerCipher:
    """The original per-byte loop: per-byte XOR over eight one-shot
    BLAKE2b blocks per body (its keystream is no longer the production
    schedule; only its speed is compared)."""

    def __init__(self, key: bytes) -> None:
        self._key = key
        self._counter = 0
        self._leftover = b""

    def process(self, data: bytes) -> bytes:
        out = bytearray(len(data))
        stream = self._keystream(len(data))
        for i, (d, k) in enumerate(zip(data, stream)):
            out[i] = d ^ k
        return bytes(out)

    def _keystream(self, n: int) -> bytes:
        chunks = [self._leftover]
        have = len(self._leftover)
        while have < n:
            block = hashlib.blake2b(
                self._counter.to_bytes(8, "big"),
                key=self._key[:64],
                digest_size=_BLOCK,
            ).digest()
            self._counter += 1
            chunks.append(block)
            have += _BLOCK
        stream = b"".join(chunks)
        self._leftover = stream[n:]
        return stream[:n]


def _best_of(rounds: int, run) -> float:
    """Best-of-N wall time: the minimum is the least noisy estimator."""
    return min(run() for _ in range(rounds))


@pytest.mark.benchguard
def test_cell_crypto_fast_path_guard(report):
    """One SHAKE-128 squeeze + one vectorised XOR per body must beat
    the per-byte loop >= 5x."""
    cells = scaled(3_000, minimum=1_000)
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
    fast_s = _best_of(5, lambda: time_cipher(LayerCipher))
    slow_s = _best_of(5, lambda: time_cipher(_PerByteLayerCipher))
    speedup = slow_s / fast_s
    report(
        f"cell crypto, {cells} x 512-byte bodies: per-byte "
        f"{slow_s * 1000:.0f} ms vs one-squeeze SHAKE-128 + vectorised XOR "
        f"{fast_s * 1000:.0f} ms "
        f"({speedup:.1f}x)"
    )
    # The production keystream is pinned byte-for-byte by
    # tests/tor/test_crypto_equivalence.py; this guard is purely speed.
    assert speedup >= CRYPTO_SPEEDUP_FLOOR


@pytest.mark.benchguard
def test_event_comparison_guard(report):
    """Slotted hand-compared events must beat tuple-building compares.

    The heap performs O(log n) ``__lt__`` calls per push/pop at tens of
    millions of operations per campaign; the guard times the comparison
    itself, which is what the ``_Event`` rewrite bought.
    """
    from repro.netsim.engine import _Event

    class TupleEvent:
        # The replaced pattern: dataclass-style tuple comparison.
        def __init__(self, t, s):
            self.time = t
            self.seq = s

        def __lt__(self, other):
            return (self.time, self.seq) < (other.time, other.seq)

    n = scaled(400_000, minimum=100_000)
    fast_events = [_Event(float(i % 97), i, lambda: None) for i in range(n)]
    slow_events = [TupleEvent(float(i % 97), i) for i in range(n)]

    def time_sort(events) -> float:
        start = time.perf_counter()
        sorted(events)
        return time.perf_counter() - start

    fast_s = _best_of(3, lambda: time_sort(fast_events))
    slow_s = _best_of(3, lambda: time_sort(slow_events))
    report(
        f"event compare, sort of {n}: tuple-building {slow_s * 1000:.0f} ms "
        f"vs slotted {fast_s * 1000:.0f} ms ({slow_s / fast_s:.2f}x)"
    )
    # The win is a constant factor, not asymptotic; any honest margin
    # is modest, so guard only against the rewrite being fully undone.
    assert fast_s < slow_s


@pytest.mark.benchguard
def test_categorical_draw_guard(report):
    """A bisect over a CDF computed once must beat per-call
    ``Generator.choice(n, p=p)`` (the replaced pattern: it re-validates
    and re-cumsums the build's region weights for every relay) >= 5x."""
    import numpy as np

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
