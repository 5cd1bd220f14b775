"""The cell crypto must be byte-identical to the reference.

:class:`~repro.tor.crypto.LayerCipher` is the ``cryptography``
package's AES-CTR encryptor, zero IV (tor-spec §0.3), with ``process``
bound straight to the context's ``update``. The ciphers at every hop of
every circuit must stay in exact lockstep with their peers however the
bytes are chunked, so the keystream (and the digest tags stamped on
cells) must be byte-for-byte what the schedule says. These tests pin
that against inline reference implementations written straight from the
schedule: counter mode spelled out through a *different* mode of the
library (one ECB block encryption per byte looked up, no state but the
position, a per-byte XOR), itself anchored to the standard by the NIST
SP 800-38A counter-mode vectors.
"""

import hashlib

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers import base as cipher_base
from hypothesis import given, settings, strategies as st

from repro.tor import crypto
from repro.tor.cells import RELAY_BODY_LEN
from repro.tor.crypto import (
    CryptoError,
    KeyMaterial,
    LayerCipher,
    OnionLayer,
    RelayCryptoState,
    RunningDigest,
)

#: AES-128 / AES-192 / AES-256 keys, the sizes ``LayerCipher`` accepts.
aes_keys = st.sampled_from((16, 24, 32)).flatmap(
    lambda size: st.binary(min_size=size, max_size=size)
)


class ReferenceLayerCipher:
    """Byte ``p`` of the stream is byte ``p % 16`` of
    ``AES-ECB_K(initial_counter + p // 16)``, the counter a 16-byte
    big-endian block (zero-based for Tor): no state but the position, a
    fresh block encryption for every byte."""

    def __init__(self, key: bytes, initial_counter: int = 0) -> None:
        # An ECB context carries nothing from one block to the next.
        self._encrypt_block = Cipher(algorithms.AES(key), modes.ECB()).encryptor().update
        self._initial_counter = initial_counter
        self._position = 0

    def process(self, data: bytes) -> bytes:
        out = bytearray(len(data))
        for i, d in enumerate(data):
            out[i] = d ^ self._keystream_byte(self._position)
            self._position += 1
        return bytes(out)

    def _keystream_byte(self, position: int) -> int:
        j, offset = divmod(position, 16)
        counter = (self._initial_counter + j) % (1 << 128)
        return self._encrypt_block(counter.to_bytes(16, "big"))[offset]


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
        key=aes_keys,
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

    @given(key=aes_keys, data=st.binary(max_size=4096))
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


class TestNistCounterModeVectors:
    """NIST SP 800-38A, appendix F.5: the reference above is the
    standard's counter mode (run with the standard's initial counter
    block), so pinning ``LayerCipher`` to it pins it to AES-CTR."""

    INITIAL_COUNTER = int("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff", 16)
    PLAINTEXT = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710"
    )

    def _encrypt(self, key_hex: str) -> str:
        reference = ReferenceLayerCipher(bytes.fromhex(key_hex), self.INITIAL_COUNTER)
        return reference.process(self.PLAINTEXT).hex()

    def test_nist_f51_ctr_aes128_encrypt(self):
        assert self._encrypt("2b7e151628aed2a6abf7158809cf4f3c") == (
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee"
        )

    def test_nist_f55_ctr_aes256_encrypt(self):
        assert self._encrypt(
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"
        ) == (
            "601ec313775789a5b7a7f504bbf3d228"
            "f443e3ca4d62b59aca84e990cacaf5c5"
            "2b0930daa23de94ce87017ba2d84988d"
            "dfc9c58db67aada613c2dd08457941a6"
        )


class TestKeySizes:
    @pytest.mark.parametrize("size", [15, 20, 33])
    def test_non_aes_key_size_raises_crypto_error(self, size):
        # A CryptoError, never the library's bare ValueError.
        with pytest.raises(CryptoError):
            LayerCipher(bytes(size))


class TestContextBinding:
    """``LayerCipher`` creates its context with the function the public
    ``Cipher(...).encryptor()`` ends in, skipping only the checks around
    it: the same context, the same keystream, the same refusals."""

    def test_factory_is_the_public_paths(self):
        # A ``cryptography`` release that moves the binding fails here
        # (and at ``import repro.tor``), not as a wall of failures.
        assert (
            crypto.rust_openssl.ciphers.create_encryption_ctx
            is cipher_base.rust_openssl.ciphers.create_encryption_ctx
        )
        public = Cipher(algorithms.AES(bytes(32)), modes.CTR(bytes(16))).encryptor()
        assert type(LayerCipher(bytes(32)).process.__self__) is type(public)

    @given(key=aes_keys, chunks=st.lists(st.binary(max_size=600), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_process_matches_public_encryptor(self, key, chunks):
        ours = LayerCipher(key).process
        public = Cipher(algorithms.AES(key), modes.CTR(bytes(16))).encryptor().update
        for chunk in chunks:
            assert ours(chunk) == public(chunk)

    @pytest.mark.parametrize("size", [0, 8, 20, 33, 64])
    def test_non_aes_ctr_key_size_raises_crypto_error(self, size):
        # 64 bytes is an AES-256-XTS key: ``AES`` alone accepts it, the
        # public path refuses it in ``CTR``'s check, and so must this.
        with pytest.raises(CryptoError):
            LayerCipher(bytes(size))


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
