"""The built world is pinned draw for draw, not just through a campaign.

``world_digest`` hashes everything a testbed build decides — every
relay's descriptor, ``Host``, forwarding parameters and identity secret,
every consensus entry, and the post-build state of every named random
stream — so build work that moves a single draw (or merely leaves a
stream one step further along) changes the digest. The pins below were
computed at the commit *before* the parse-free build (PR 16's parent,
fb9082d) with::

    PYTHONPATH=src python tests/testbeds/test_build_identity.py
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.testbeds.livetor import LiveTorTestbed
from repro.testbeds.planetlab import PlanetLabTestbed


def _descriptor_fields(descriptor) -> tuple:
    return (
        descriptor.nickname,
        descriptor.fingerprint,
        descriptor.address,
        descriptor.or_port,
        descriptor.identity_public.hex(),
        descriptor.bandwidth_kbps,
        repr(descriptor.exit_policy),
        sorted(descriptor.family),
        descriptor.flags.value,
        repr(descriptor.published_at_ms),
    )


def world_digest(testbed) -> str:
    """SHA-256 over everything ``build`` decided, in relay order."""
    h = hashlib.sha256()

    def feed(*parts) -> None:
        h.update(repr(parts).encode())
        h.update(b"\n")

    for relay in testbed.relays:
        model = relay.forwarding
        feed(
            "relay",
            _descriptor_fields(relay.descriptor()),
            repr(relay.host),
            relay.host.prefix16,
            relay.host.prefix24,
            repr(model.crypto_floor_ms),
            repr(model.load),
            repr(model.queue_scale_ms),
            repr(model.burst_probability),
            repr(model.burst_scale_ms),
            relay.identity.secret.hex(),
            None
            if relay.service_queue is None
            else repr(relay.service_queue.service_time_ms),
        )
    for fingerprint, descriptor in testbed.consensus.routers.items():
        feed("consensus", fingerprint, _descriptor_fields(descriptor))
    feed("valid_at", repr(testbed.consensus.valid_at_ms))
    for name, rng in sorted(testbed.streams._streams.items()):
        feed("stream", name, json.dumps(rng.bit_generator.state, sort_keys=True))
    return h.hexdigest()


LIVE_WORLDS = {
    (7, 1015, False): "10eac55b56d875aeef47c489f9ebb53c0c3df16b33d49542408ab1e8687a0d44",
    (47, 1015, False): "20096c741f097bfe32257058dbe1359c7e2ad1458b913252ce13561af8a0f264",
    (3, 22, True): "c66f3f2238bcf3acaa8f95e9ca71b79cd4e7068af6d57ba6a63717f5ebb1bae8",
    (11, 35, False): "57548753e9ce07fed5d553119ec1f01e2e16e42077637c704423e5414ec91540",
}
PLANETLAB_2015 = "d88f08f9d219950d55b284b580956fe9e5db32c25b74da0bd4d9e3dde179cf71"


@pytest.mark.parametrize(("seed", "n_relays", "service_queues"), sorted(LIVE_WORLDS))
def test_livetor_world_is_pinned(seed, n_relays, service_queues):
    testbed = LiveTorTestbed.build(
        seed=seed, n_relays=n_relays, service_queues=service_queues
    )
    assert world_digest(testbed) == LIVE_WORLDS[(seed, n_relays, service_queues)]


def test_planetlab_world_is_pinned():
    assert world_digest(PlanetLabTestbed.build(seed=2015)) == PLANETLAB_2015


def test_a_numpy_integer_seed_builds_the_same_world():
    # What ``build(seed=rng.integers(...))`` passes: the world of its int.
    testbed = LiveTorTestbed.build(seed=np.int64(47), n_relays=1015)
    assert testbed.streams.seed == 47 and type(testbed.streams.seed) is int
    assert world_digest(testbed) == LIVE_WORLDS[(47, 1015, False)]


def test_a_bool_seed_is_refused():
    # ``True`` would hash as "True:…", a world apart from seed 1's.
    with pytest.raises(TypeError):
        LiveTorTestbed.build(seed=True, n_relays=22)


def test_digest_sees_a_single_extra_draw():
    testbed = LiveTorTestbed.build(seed=11, n_relays=35)
    before = world_digest(testbed)
    testbed.streams.get("livetor.relays").random()
    assert world_digest(testbed) != before


def print_digests() -> None:
    """Print the pins (run at the commit whose worlds are to be kept)."""
    for seed, n_relays, service_queues in sorted(LIVE_WORLDS):
        testbed = LiveTorTestbed.build(
            seed=seed, n_relays=n_relays, service_queues=service_queues
        )
        print((seed, n_relays, service_queues), world_digest(testbed))
    print("planetlab 2015", world_digest(PlanetLabTestbed.build(seed=2015)))


if __name__ == "__main__":
    print_digests()
