"""Tests for relay forwarding-delay models."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.netsim.engine import Simulator
from repro.tor.relay import DiurnalForwardingDelayModel, ForwardingDelayModel
from repro.util.rng import RandomStreams


def _draws(seed: int = 0):
    """A relay's draw stream, as a world with root seed ``seed`` hands it out."""
    return RandomStreams(seed).draws.stream("relay:test")


class TestForwardingDelayModel:
    def test_floor_is_respected(self):
        model = ForwardingDelayModel(crypto_floor_ms=0.5, load=0.5)
        draws = _draws()
        assert all(model.sample(draws) >= 0.5 for _ in range(500))

    def test_zero_load_gives_floor_mostly(self):
        model = ForwardingDelayModel(
            crypto_floor_ms=0.3, load=0.0, burst_probability=0.0
        )
        draws = _draws()
        samples = [model.sample(draws) for _ in range(200)]
        assert samples == pytest.approx([0.3] * 200)

    def test_higher_load_higher_mean(self):
        low = ForwardingDelayModel(load=0.05)
        high = ForwardingDelayModel(load=0.9)
        low_draws, high_draws = _draws(1), _draws(1)
        low_mean = np.mean([low.sample(low_draws) for _ in range(2000)])
        high_mean = np.mean([high.sample(high_draws) for _ in range(2000)])
        assert high_mean > low_mean

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ForwardingDelayModel(crypto_floor_ms=-1.0)
        with pytest.raises(ValueError):
            ForwardingDelayModel(load=1.5)
        with pytest.raises(ValueError):
            ForwardingDelayModel(burst_probability=-0.1)

    def test_quiet_profile_is_light(self):
        model = ForwardingDelayModel.quiet()
        draws = _draws()
        samples = [model.sample(draws) for _ in range(1000)]
        assert np.median(samples) < 1.0


class TestDistributionUnchanged:
    """Forwarding delays moved from scalar numpy calls on a shared
    generator to block draws; the distribution did not."""

    @staticmethod
    def _scalar_sample(model: ForwardingDelayModel, rng: np.random.Generator) -> float:
        """``ForwardingDelayModel.sample()`` as it was before the block source."""
        delay = model.crypto_floor_ms
        if rng.random() < model.load:
            delay += float(rng.exponential(model.queue_scale_ms))
        if rng.random() < model.burst_probability * max(model.load, 0.05):
            delay += float(rng.exponential(model.burst_scale_ms))
        return delay

    @pytest.mark.parametrize(
        "model",
        [
            ForwardingDelayModel(),
            ForwardingDelayModel.quiet(),
            ForwardingDelayModel(load=0.7, queue_scale_ms=3.0, burst_probability=0.05),
        ],
    )
    def test_two_sample_ks_against_the_scalar_definition(self, model):
        ks_2samp = pytest.importorskip("scipy.stats").ks_2samp

        n = 20_000
        draws = _draws(2015)
        block = [model.sample(draws) for _ in range(n)]
        rng = np.random.default_rng(2015)
        scalar = [self._scalar_sample(model, rng) for _ in range(n)]
        # Most samples sit exactly on the floor in both (an atom of the
        # same mass); KS compares the whole step function.
        assert ks_2samp(block, scalar).pvalue > 0.01


class TestDiurnalModel:
    def test_load_oscillates_with_clock(self):
        sim = Simulator()
        model = DiurnalForwardingDelayModel(sim, base_load=0.1, peak_load=0.9)
        loads = []
        for hour in range(0, 25, 3):
            sim.run(until=hour * 3_600_000.0)
            loads.append(model.current_load())
        assert max(loads) > 0.7
        assert min(loads) < 0.3

    def test_load_bounded_by_base_and_peak(self):
        sim = Simulator()
        model = DiurnalForwardingDelayModel(sim, base_load=0.2, peak_load=0.6)
        for hour in range(0, 48, 1):
            sim.run(until=hour * 3_600_000.0)
            assert 0.2 <= model.current_load() <= 0.6

    def test_phase_shifts_the_cycle(self):
        sim = Simulator()
        a = DiurnalForwardingDelayModel(sim)
        b = DiurnalForwardingDelayModel(sim, phase_ms=12.0 * 3_600_000.0)
        sim.run(until=6 * 3_600_000.0)
        assert a.current_load() != pytest.approx(b.current_load())

    def test_floor_unaffected_by_load(self):
        # The crypto floor — what the min filter converges to — does not
        # move with the cycle.
        sim = Simulator()
        model = DiurnalForwardingDelayModel(
            sim, crypto_floor_ms=0.4, burst_probability=0.0
        )
        sim.run(until=18 * 3_600_000.0)  # peak hours
        draws = _draws()
        mins = min(model.sample(draws) for _ in range(2000))
        assert mins == pytest.approx(0.4, abs=0.05)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            DiurnalForwardingDelayModel(sim, base_load=0.8, peak_load=0.2)


_DEFAULT_MODEL_SCRIPT = """
import sys
sys.path.insert(0, {tests!r})
from conftest import MiniWorld
from repro.tor.relay import Relay
w = MiniWorld(n_relays=1)
host = w.builder.attach_random_host(w.topology, "bare", 0, "hosting")
relay = Relay(w.sim, w.fabric, w.topology, host, nickname="bare")
print([relay.forwarding.sample(relay.draws) for _ in range(50)])
"""


class TestRelayDefaults:
    def test_default_forwarding_model_ignores_the_hash_seed(self):
        """A relay's draw stream is named by its fingerprint, so it draws
        the same delays in every interpreter."""
        tests_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src_dir)
            result = subprocess.run(
                [sys.executable, "-c", _DEFAULT_MODEL_SCRIPT.format(tests=tests_dir)],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(",") == 49

    # (fingerprint, identity public, identity secret) of every relay, as
    # built before ``Relay.__init__`` hashed its fingerprint only once.
    FIXTURE_IDENTITIES = {
        "mini_world": "ded84cb957ca5d2b1eebabac5a8253b310f03ecdfa83927eb9ee9b9e94f6e9ef",
        "shared_mini_world": "9ea87d77eb93fde73f2d15b29520ea453bc6503f4c74ce304cc298294a6f3a31",
        "pl_testbed": "00398e8a50416f7a7d93ea17c44d6e4326f1e368a052cd096b6f87f3dc8eb157",
        "live_testbed": "d83f54375fd5cfa82976cad13d1302cc2643d1b530f32407c910401299320594",
    }

    @pytest.mark.parametrize("fixture", sorted(FIXTURE_IDENTITIES))
    def test_fixture_fingerprints_and_identities_unchanged(self, fixture, request):
        h = hashlib.sha256()
        for r in request.getfixturevalue(fixture).relays:
            h.update(
                f"{r.fingerprint}:{r.identity.public.hex()}:"
                f"{r.identity.secret.hex()}\n".encode()
            )
        assert h.hexdigest() == self.FIXTURE_IDENTITIES[fixture]

    def test_first_fixture_relay_literally(self, mini_world):
        relay = mini_world.relays[0]
        assert relay.fingerprint == "DCE454D043AAC2B0FECBEEB399F6DF7E8E50BD8D"
        assert relay.identity.public.hex() == (
            "a3333ef65d7d15d772c24618955ccf79c223d46677d24fce6b72346cfb5c4bb7"
        )
        assert relay.descriptor().fingerprint == relay.fingerprint
