"""The fast-path cell crypto must be byte-identical to the reference.

:class:`~repro.tor.crypto.LayerCipher` squeezes its keystream one
relay-body-sized SHAKE-128 block at a time from a ``copy()`` of a
key-absorbed state and XORs whole bodies in one vectorised step. The
ciphers at every hop of every circuit must stay in exact lockstep with
their peers however the bytes are chunked, so the fast path is only
safe if the keystream (and the digest tags stamped on cells) are
byte-for-byte what the schedule says. These tests pin that equivalence
against inline reference implementations written straight from the
schedule: no buffering, a fresh hash for every byte looked up, a
per-byte XOR.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.tor.cells import RELAY_BODY_LEN
from repro.tor.crypto import (
    KeyMaterial,
    LayerCipher,
    OnionLayer,
    RelayCryptoState,
    RunningDigest,
)


class ReferenceLayerCipher:
    """Byte ``p`` of the stream is byte ``p % RELAY_BODY_LEN`` of
    ``SHAKE128(key || p // RELAY_BODY_LEN)``: no state but the position,
    a fresh hash for every byte."""

    def __init__(self, key: bytes) -> None:
        self._key = key
        self._position = 0

    def process(self, data: bytes) -> bytes:
        out = bytearray(len(data))
        for i, d in enumerate(data):
            out[i] = d ^ self._keystream_byte(self._position)
            self._position += 1
        return bytes(out)

    def _keystream_byte(self, position: int) -> int:
        j, offset = divmod(position, RELAY_BODY_LEN)
        block = hashlib.shake_128(self._key + j.to_bytes(8, "big")).digest(
            RELAY_BODY_LEN
        )
        return block[offset]


class ReferenceRunningDigest:
    """The original two-call (peek then update) digest usage pattern."""

    def __init__(self, seed: bytes) -> None:
        self._state = hashlib.sha256(seed).digest()

    def update(self, body_without_digest: bytes) -> bytes:
        self._state = hashlib.sha256(self._state + body_without_digest).digest()
        return self._state[:4]

    def peek(self, body_without_digest: bytes) -> bytes:
        return hashlib.sha256(self._state + body_without_digest).digest()[:4]


class TestKeystreamEquivalence:
    @given(
        key=st.binary(min_size=16, max_size=80),
        chunks=st.lists(st.integers(min_value=0, max_value=300), max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_chunked_process_matches_reference(self, key, chunks):
        # Random chunk lengths exercise every leftover offset: whole
        # blocks, partial blocks, empty calls, multi-block spans.
        fast = LayerCipher(key)
        reference = ReferenceLayerCipher(key)
        for length in chunks:
            data = bytes((length + i) % 256 for i in range(length))
            assert fast.process(data) == reference.process(data)

    @given(key=st.binary(min_size=16, max_size=64), data=st.binary(max_size=4096))
    @settings(max_examples=200, deadline=None)
    def test_single_shot_matches_reference(self, key, data):
        assert LayerCipher(key).process(data) == ReferenceLayerCipher(key).process(
            data
        )

    def test_relay_body_sized_cells(self):
        # The hot case: a long stream of full relay-cell bodies.
        key = b"\x07" * 32
        fast, reference = LayerCipher(key), ReferenceLayerCipher(key)
        body = bytes(range(256)) * (RELAY_BODY_LEN // 256 + 1)
        body = body[:RELAY_BODY_LEN]
        for _ in range(64):
            assert fast.process(body) == reference.process(body)


class TestDigestEquivalence:
    @given(bodies=st.lists(st.binary(max_size=600), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_update_sequence_matches_reference(self, bodies):
        ours = RunningDigest(b"digest-seed")
        reference = ReferenceRunningDigest(b"digest-seed")
        for body in bodies:
            assert ours.update(body) == reference.update(body)

    @given(bodies=st.lists(st.binary(max_size=600), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_commit_matches_peek_then_update(self, bodies):
        # commit(tag) replaced the recognize path's peek()-compare-
        # update() pair; accepted tags must advance the state exactly as
        # the two-call pattern did, rejected tags must not touch it.
        ours = RunningDigest(b"digest-seed")
        reference = ReferenceRunningDigest(b"digest-seed")
        for index, body in enumerate(bodies):
            expected = reference.peek(body)
            if index % 3 == 2:
                # A tag for someone else: reference leaves state alone.
                wrong = bytes(b ^ 0xFF for b in expected)
                assert ours.commit(body, wrong) is False
            else:
                assert ours.commit(body, expected) is True
                reference.update(body)
        # States still in lockstep after mixed accept/reject traffic.
        assert ours.update(b"final") == reference.update(b"final")


class TestFourHopLockstep:
    def test_onion_roundtrip_against_reference_stack(self):
        # A 4-hop circuit simulated twice: once with the production
        # classes, once with reference ciphers, byte-compared at every
        # hop boundary in both directions.
        # Client-side and relay-side ciphers are distinct instances kept
        # in lockstep by the protocol, so the reference stack mirrors
        # that: one reference cipher per (hop, direction, side).
        secrets = [b"hop-0", b"hop-1", b"hop-2", b"hop-3"]
        materials = [KeyMaterial.derive(s) for s in secrets]
        client_layers = [OnionLayer(m) for m in materials]
        relay_states = [RelayCryptoState(m) for m in materials]
        ref_client_fwd = [ReferenceLayerCipher(m.forward_key) for m in materials]
        ref_client_bwd = [ReferenceLayerCipher(m.backward_key) for m in materials]
        ref_relay_fwd = [ReferenceLayerCipher(m.forward_key) for m in materials]
        ref_relay_bwd = [ReferenceLayerCipher(m.backward_key) for m in materials]

        for round_no in range(8):
            body = bytes((round_no * 31 + i) % 256 for i in range(RELAY_BODY_LEN))
            # Forward: client wraps innermost-first, relays peel in order.
            wire = body
            ref_wire = body
            for layer, ref in zip(
                reversed(client_layers), reversed(ref_client_fwd)
            ):
                wire = layer.forward_cipher.process(wire)
                ref_wire = ref.process(ref_wire)
                assert wire == ref_wire
            for state, ref in zip(relay_states, ref_relay_fwd):
                wire = state.peel_forward(wire)
                ref_wire = ref.process(ref_wire)
                assert wire == ref_wire
            assert wire == body

            # Backward: exit wraps, each inner relay adds a layer,
            # client peels all four.
            reply = bytes((round_no * 17 + i) % 256 for i in range(RELAY_BODY_LEN))
            wire = reply
            ref_wire = reply
            for state, ref in zip(reversed(relay_states), reversed(ref_relay_bwd)):
                wire = state.wrap_backward(wire)
                ref_wire = ref.process(ref_wire)
                assert wire == ref_wire
            for layer, ref in zip(client_layers, ref_client_bwd):
                wire = layer.backward_cipher.process(wire)
                ref_wire = ref.process(ref_wire)
                assert wire == ref_wire
            assert wire == reply
