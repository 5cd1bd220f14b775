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
