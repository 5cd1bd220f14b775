"""Onion-layer cryptography (simulation-grade, structurally faithful).

Tor encrypts each RELAY cell once per hop with a stream cipher keyed per
direction, and verifies end-to-end integrity with a running digest seeded
per direction. This module reproduces those mechanics:

* :class:`LayerCipher` — what Tor runs: AES in counter mode with a zero
  IV (tor-spec §0.3), one context per direction per hop, from the
  ``cryptography`` package. Encrypting and decrypting must happen in
  lockstep, exactly as between a Tor client and its relays.
* :class:`RunningDigest` — a rolling SHA-256 (Tor's is SHA-1) over every
  relay body sent in one direction; the first four bytes stamp each
  cell, letting the far end "recognize" cells addressed to it.
* :class:`ClientHandshake`/:class:`ServerHandshake` — an ntor-shaped
  exchange built from hashes: the client sends a nonce, the relay mixes
  it with its own ephemeral nonce and long-term identity secret, and
  both sides derive identical forward/backward key material via
  :class:`KeyMaterial`.

The handshake resists no real adversary; the module exists so the
simulated relays execute the same per-cell work (keystream generation,
digest updates, recognized checks) that real relays do, which is where
forwarding delay comes from. Cell bytes never reach simulated time, so
the choice of keystream moves no measured latency.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable

from cryptography.hazmat.bindings._rust import openssl as rust_openssl
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.tor.cells import RELAY_BODY_LEN
from repro.util.errors import ReproError

#: tor-spec §0.3: the counter starts at zero. Mode objects hold no
#: per-stream state, so every context shares this one; the public
#: ``Cipher`` validates it for AES here, once.
_ZERO_IV_CTR = modes.CTR(bytes(16))
Cipher(algorithms.AES(bytes(32)), _ZERO_IV_CTR)
_AES = algorithms.AES


class CryptoError(ReproError):
    """Key derivation or handshake validation failed."""


class LayerCipher:
    """AES-CTR stream cipher (one direction of one onion layer).

    This is the single hottest inner loop of the simulator: every relay
    body is processed once per hop, in both directions, per cell.
    ``process`` encrypts or decrypts (XOR is symmetric) and advances the
    stream; it *is* the encryptor context's bound ``update``, so
    keystream and XOR are one C call. Counter mode is indexed by byte
    position, so the ciphertext never depends on how callers chunk the
    stream — the two ends of a circuit stay in lockstep even when one
    side processes a body in pieces.

    A context costs ≈ 2.5 µs to create and ≈ 0.5 µs per body to run:
    build one per direction per hop, never per cell. It is made by the
    binding the public ``Cipher(...).encryptor()`` ends in, without the
    checks around it that re-validate the module-constant mode.
    """

    __slots__ = ("process",)

    #: Encrypt or decrypt ``data`` (XOR is symmetric), advancing the stream.
    process: Callable[[bytes], bytes]

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(
                f"layer key must be 16, 24 or 32 bytes (AES), got {len(key)}"
            )
        self.process = rust_openssl.ciphers.create_encryption_ctx(
            _AES(key), _ZERO_IV_CTR
        ).update


class RunningDigest:
    """Rolling digest over relay cell plaintexts in one direction."""

    def __init__(self, seed: bytes) -> None:
        self._state = hashlib.sha256(seed).digest()

    def update(self, body_without_digest: bytes) -> bytes:
        """Absorb one relay body (digest field zeroed); return the 4-byte tag."""
        self._state = hashlib.sha256(self._state + body_without_digest).digest()
        return self._state[:4]

    def peek(self, body_without_digest: bytes) -> bytes:
        """The tag :meth:`update` would return, without advancing state."""
        return hashlib.sha256(self._state + body_without_digest).digest()[:4]

    def commit(self, body_without_digest: bytes, tag: bytes) -> bool:
        """Advance iff ``tag`` matches this body; hash exactly once.

        The recognize path needs "does the tag match, and if so absorb
        the body" — done with :meth:`peek` + :meth:`update` that hashes
        every recognized cell twice. ``commit`` keeps the full digest
        from the single hash and installs it as the new state on match.
        """
        digest = hashlib.sha256(self._state + body_without_digest).digest()
        if digest[:4] != tag:
            return False
        self._state = digest
        return True


@dataclass
class KeyMaterial:
    """Per-hop key schedule derived from a handshake shared secret.

    Matches Tor's KDF layout: forward/backward cipher keys and
    forward/backward digest seeds, all expanded from one secret.
    """

    forward_key: bytes
    backward_key: bytes
    forward_digest_seed: bytes
    backward_digest_seed: bytes

    @classmethod
    def derive(cls, shared_secret: bytes) -> "KeyMaterial":
        """Expand ``shared_secret`` into the four per-hop secrets."""
        if not shared_secret:
            raise CryptoError("shared secret must be non-empty")

        def expand(label: bytes) -> bytes:
            return hashlib.blake2b(
                label, key=shared_secret[:64], digest_size=32
            ).digest()

        return cls(
            forward_key=expand(b"key-forward"),
            backward_key=expand(b"key-backward"),
            forward_digest_seed=expand(b"digest-forward"),
            backward_digest_seed=expand(b"digest-backward"),
        )


@dataclass(frozen=True)
class RelayIdentity:
    """A relay's long-term keypair (simulated).

    ``public`` is published in the descriptor; ``secret`` never leaves the
    relay. The "DH" below works because both sides can compute
    H(secret-derived material || nonces) — the client via the value the
    relay returns, the relay directly.
    """

    secret: bytes
    public: bytes

    @classmethod
    def generate(cls, entropy: bytes | None = None) -> "RelayIdentity":
        """Create an identity (deterministic when ``entropy`` given)."""
        secret = entropy if entropy is not None else os.urandom(32)
        public = hashlib.sha256(b"identity-public" + secret).digest()
        return cls(secret=secret, public=public)


class ClientHandshake:
    """Client side of the per-hop circuit handshake."""

    def __init__(self, relay_public: bytes, nonce: bytes | None = None) -> None:
        self.relay_public = relay_public
        self.nonce = nonce if nonce is not None else os.urandom(16)

    def create_payload(self) -> bytes:
        """The onionskin carried in CREATE / EXTEND."""
        return self.nonce

    def complete(self, created_payload: bytes) -> KeyMaterial:
        """Process CREATED / EXTENDED and derive the hop's keys.

        ``created_payload`` is ``server_nonce (16) || confirmation (32)``.
        """
        if len(created_payload) != 48:
            raise CryptoError(
                f"malformed CREATED payload: {len(created_payload)} bytes"
            )
        server_nonce, confirmation = created_payload[:16], created_payload[16:]
        shared = _shared_secret(self.relay_public, self.nonce, server_nonce)
        expected = _confirmation(shared)
        if confirmation != expected:
            raise CryptoError("handshake confirmation mismatch")
        return KeyMaterial.derive(shared)


class ServerHandshake:
    """Relay side of the per-hop circuit handshake."""

    def __init__(self, identity: RelayIdentity) -> None:
        self.identity = identity

    def respond(
        self, create_payload: bytes, server_nonce: bytes | None = None
    ) -> tuple[bytes, KeyMaterial]:
        """Process CREATE; return (CREATED payload, derived keys)."""
        if len(create_payload) != 16:
            raise CryptoError(
                f"malformed CREATE payload: {len(create_payload)} bytes"
            )
        nonce = server_nonce if server_nonce is not None else os.urandom(16)
        shared = _shared_secret(self.identity.public, create_payload, nonce)
        return nonce + _confirmation(shared), KeyMaterial.derive(shared)


def _shared_secret(relay_public: bytes, client_nonce: bytes, server_nonce: bytes) -> bytes:
    return hashlib.sha256(
        b"shared" + relay_public + client_nonce + server_nonce
    ).digest()


def _confirmation(shared: bytes) -> bytes:
    return hashlib.sha256(b"confirm" + shared).digest()


class OnionLayer:
    """One hop's crypto state as seen by the *client*."""

    def __init__(self, keys: KeyMaterial) -> None:
        self.forward_cipher = LayerCipher(keys.forward_key)
        self.backward_cipher = LayerCipher(keys.backward_key)
        self.forward_digest = RunningDigest(keys.forward_digest_seed)
        self.backward_digest = RunningDigest(keys.backward_digest_seed)


class RelayCryptoState:
    """One circuit's crypto state as seen by a *relay*.

    Mirror image of :class:`OnionLayer`: the relay decrypts what the
    client's forward cipher encrypted, so it applies the same keystreams
    in the same order.
    """

    def __init__(self, keys: KeyMaterial) -> None:
        self.forward_cipher = LayerCipher(keys.forward_key)
        self.backward_cipher = LayerCipher(keys.backward_key)
        self.forward_digest = RunningDigest(keys.forward_digest_seed)
        self.backward_digest = RunningDigest(keys.backward_digest_seed)

    def peel_forward(self, body: bytes) -> bytes:
        """Remove this hop's layer from a client-bound-outward body."""
        if len(body) != RELAY_BODY_LEN:
            raise CryptoError("relay body has wrong length")
        return self.forward_cipher.process(body)

    def wrap_backward(self, body: bytes) -> bytes:
        """Add this hop's layer to a client-bound-inward body."""
        if len(body) != RELAY_BODY_LEN:
            raise CryptoError("relay body has wrong length")
        return self.backward_cipher.process(body)
