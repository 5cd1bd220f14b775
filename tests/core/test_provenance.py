"""Per-pair provenance records and the bundled campaign dataset."""

import json
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest
from conftest import MiniWorld

from repro.core.campaign import AllPairsCampaign
from repro.core.parallel import ParallelCampaign
from repro.core.dataset import (
    _CAT,
    _LEG_SPEC,
    _NAME,
    _OPT,
    _PAIR_SPEC,
    _SHARD,
    CampaignDataset,
    LegProvenance,
    PairProvenance,
    ProvenanceLog,
    RttMatrix,
    _write_npz,
)
from repro.core.sampling import SamplePolicy
from repro.core.ting import TingMeasurer
from repro.util.errors import MeasurementError

FAST = SamplePolicy(samples=15, interval_ms=2.0)


def _measured(x="A", y="B", **kwargs) -> PairProvenance:
    defaults = dict(
        status="measured",
        rtt_ms=42.5,
        cxy_ms=120.0,
        leg_x_ms=80.0,
        leg_y_ms=75.0,
        samples_requested=30,
        samples_kept=28,
        leg_cache_hits=2,
        duration_ms=1500.0,
    )
    defaults.update(kwargs)
    return PairProvenance(x=x, y=y, **defaults)


def _saved_and_loaded(log: ProvenanceLog, tmp_path) -> ProvenanceLog:
    """``log`` as a saved dataset gives it back."""
    path = tmp_path / "ds.npz"
    CampaignDataset(matrix=RttMatrix(["A", "B"]), provenance=log).save(path)
    return CampaignDataset.load(path).provenance


class TestPairProvenance:
    def test_residual_is_half_sum_of_legs(self):
        record = _measured(leg_x_ms=80.0, leg_y_ms=75.0)
        assert record.residual_ms == pytest.approx(77.5)

    def test_save_load_roundtrip_measured(self, tmp_path):
        record = _measured()
        log = ProvenanceLog()
        log.add(record)
        (restored,) = _saved_and_loaded(log, tmp_path).records()
        assert restored == record

    def test_save_load_roundtrip_failed(self, tmp_path):
        record = PairProvenance(
            x="A",
            y="B",
            status="failed",
            retries=2,
            failure_category="timeout",
            reason="probe timed out after 5000 ms",
            duration_ms=15000.0,
            shard=3,
        )
        log = ProvenanceLog()
        log.add(record)
        (restored,) = _saved_and_loaded(log, tmp_path).records()
        assert restored == record
        assert restored.rtt_ms is None
        assert restored.residual_ms is None


@pytest.mark.parametrize(
    ("record", "spec", "nodes"),
    [(PairProvenance, _PAIR_SPEC, {"x", "y"}), (LegProvenance, _LEG_SPEC, {"relay"})],
    ids=["pair", "leg"],
)
def test_the_spec_states_every_stored_field_in_order(record, spec, nodes):
    """A field added to a record and not to its spec (or the other way
    round) fails here, not in a saved file."""
    assert [name for name, _, _ in spec] == [
        column.name for column in fields(record) if column.name != "reason"
    ]
    hints = get_type_hints(record)
    for name, _, kind in spec:
        assert (name in nodes) == (kind == _NAME), name
        assert (hints[name] == float | None) == (kind == _OPT), name
        assert (hints[name] == str | None) <= (kind == _CAT), name
        assert (hints[name] == int | None) == (kind == _SHARD), name


class TestProvenanceLog:
    def test_get_matches_either_orientation(self):
        log = ProvenanceLog()
        log.add(_measured("A", "B"))
        assert log.get("B", "A") is log.get("A", "B")
        assert log.get("A", "C") is None

    def test_merge_retags_only_untagged_records(self):
        worker = ProvenanceLog()
        worker.add(_measured("A", "B"))
        worker.add(_measured("A", "C", shard=7))
        parent = ProvenanceLog()
        parent.merge_snapshot(worker.snapshot(), shard=1)
        assert parent.get("A", "B").shard == 1
        assert parent.get("A", "C").shard == 7  # pre-tagged wins
        # Merge deep-copies: the worker's records are untouched.
        assert worker.get("A", "B").shard is None

    def test_merge_accepts_a_loaded_log(self, tmp_path):
        # What absorbing a saved refresh dataset merges.
        worker = ProvenanceLog()
        worker.add(_measured("A", "B"))
        parent = ProvenanceLog()
        parent.merge_snapshot(_saved_and_loaded(worker, tmp_path).snapshot(), shard=0)
        assert len(parent) == 1
        assert parent.get("A", "B").shard == 0

    def test_failure_breakdown(self):
        log = ProvenanceLog()
        log.add(_measured("A", "B"))
        for i, category in enumerate(["timeout", "timeout", "circuit"]):
            log.add(
                PairProvenance(
                    x="A", y=f"F{i}", status="failed", failure_category=category
                )
            )
        assert log.failure_breakdown() == {"timeout": 2, "circuit": 1}
        assert len(log.by_status("failed")) == 3

    def test_save_load_roundtrip_mixed(self, tmp_path):
        log = ProvenanceLog()
        log.add(_measured("A", "B", shard=2))
        log.add(PairProvenance(x="A", y="C", status="failed"))
        assert _saved_and_loaded(log, tmp_path).records() == log.records()


class TestCampaignDataset:
    @pytest.fixture
    def dataset(self):
        matrix = RttMatrix(["A", "B"])
        matrix.set("A", "B", 42.5)
        provenance = ProvenanceLog()
        provenance.add(_measured("A", "B", rtt_ms=42.5))
        return CampaignDataset(
            matrix=matrix,
            provenance=provenance,
            meta={"seed": 3, "samples": 10},
        )

    def test_save_load(self, dataset, tmp_path):
        path = tmp_path / "campaign.json"
        dataset.save(path)
        assert path.read_bytes()[:4] == b"PK\x03\x04"
        restored = CampaignDataset.load(path)
        assert restored.meta == {"seed": 3, "samples": 10}
        assert restored.matrix.get("A", "B") == pytest.approx(42.5)
        assert restored.provenance.get("A", "B").samples_kept == 28

    @pytest.mark.parametrize("mmap", [False, True])
    def test_unknown_format_rejected(self, dataset, tmp_path, mmap):
        path = tmp_path / "campaign.npz"
        dataset.save(path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        header = json.dumps({"format": "ting-campaign-npz/99", "meta": {}})
        arrays["header"] = np.frombuffer(header.encode("utf-8"), dtype=np.uint8)
        _write_npz(path, arrays)
        with pytest.raises(MeasurementError, match="unknown dataset format"):
            CampaignDataset.load(path, mmap=mmap)


class TestCampaignRecordsProvenance:
    def test_measured_pairs_recorded(self, mini_world):
        mini_world.measurement.enable_observability()
        measurer = TingMeasurer(
            mini_world.measurement, policy=FAST, cache_legs=True
        )
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        report = AllPairsCampaign(measurer, relays).run()
        provenance = mini_world.measurement.provenance
        assert len(provenance) == 3
        for record in provenance:
            assert record.status == "measured"
            assert record.samples_kept > 0
            assert record.rtt_ms == report.matrix.get(record.x, record.y)
            assert record.duration_ms > 0

    def test_leg_cache_hits_attributed(self, mini_world):
        mini_world.measurement.enable_observability()
        measurer = TingMeasurer(
            mini_world.measurement, policy=FAST, cache_legs=True
        )
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        AllPairsCampaign(measurer, relays).run()
        hits = sorted(
            r.leg_cache_hits for r in mini_world.measurement.provenance
        )
        # First pair measures both legs, later pairs reuse them.
        assert hits == [0, 1, 2]

    def test_failed_pairs_recorded_with_category(self, mini_world):
        mini_world.measurement.enable_observability()
        measurer = TingMeasurer(mini_world.measurement, policy=FAST)
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        mini_world.relays[2].shutdown()
        AllPairsCampaign(
            measurer,
            relays,
            policy=SamplePolicy(samples=5, timeout_ms=5000.0),
        ).run()
        provenance = mini_world.measurement.provenance
        failed = provenance.by_status("failed")
        assert len(failed) == 2
        for record in failed:
            assert record.failure_category is not None
            assert record.reason
        assert sum(provenance.failure_breakdown().values()) == 2

    def test_no_provenance_without_observability(self, mini_world):
        measurer = TingMeasurer(
            mini_world.measurement, policy=FAST, cache_legs=True
        )
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        AllPairsCampaign(measurer, relays).run()
        assert mini_world.measurement.provenance is None


def _run(scheduler, world, relays, policy):
    if scheduler == "sequential":
        measurer = TingMeasurer(world.measurement, policy=policy, cache_legs=True)
        return AllPairsCampaign(measurer, relays).run()
    return ParallelCampaign(world.measurement, relays, policy=policy, concurrency=1).run()


class TestOneRecorder:
    """What the schedulers used to record differently (all at d3cf574)."""

    def test_sequential_rows_count_only_circuits_the_pair_probed(self, mini_world):
        # Was: a pair with two cached legs requested 15 samples and kept
        # 45, so pair_quality's support penalty 1 - kept/requested read 0
        # whatever the pair circuit lost.
        mini_world.measurement.enable_observability()
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        _run("sequential", mini_world, relays, FAST)
        rows = list(mini_world.measurement.provenance)
        assert [row.leg_cache_hits for row in rows] == [0, 1, 2]
        for row in rows:
            misses = 2 - row.leg_cache_hits
            assert row.samples_requested == FAST.samples * (1 + misses)
            assert row.samples_kept <= row.samples_requested
        assert rows[-1].samples_kept == FAST.samples

    def test_a_failed_row_has_its_attempts_duration_whoever_ran_the_pair(self):
        # Was: 0.0 in every failed row from the sequential campaign, the
        # attempt's duration from the concurrent one.
        durations = {}
        for scheduler in ("sequential", "concurrent"):
            world = MiniWorld()
            world.measurement.enable_observability()
            relays = [r.descriptor() for r in world.relays[:3]]
            world.relays[2].shutdown()
            _run(scheduler, world, relays, SamplePolicy(samples=5, timeout_ms=5000.0))
            durations[scheduler] = {
                (row.x, row.y): row.duration_ms
                for row in world.measurement.provenance.by_status("failed")
            }
        # The same pairs fail under both. Each row holds its attempt's
        # duration: the extension to the shut-down relay is refused within
        # a round trip (its jitter drawn where each scheduler's draws stand,
        # so the two differ by it), not at the 60 s build timeout.
        assert durations["sequential"].keys() == durations["concurrent"].keys()
        assert len(durations["sequential"]) == 2
        for rows in durations.values():
            assert all(0 < duration < 1_000.0 for duration in rows.values())

    @pytest.mark.parametrize("scheduler", ["sequential", "concurrent"])
    def test_dead_leg_relay_is_a_leg_failure_whoever_ran_the_pair(
        self, mini_world, scheduler
    ):
        # Was: campaign.failures.circuit_build from the sequential
        # engine, campaign.failures.leg from the callback one.
        host = mini_world.measurement
        registry = host.enable_observability()
        flaky = mini_world.relays[0]
        create = host.proxy.create_circuit

        def create_circuit(path, *args, **kwargs):
            # Down for every 3-hop leg circuit, back for the pair
            # circuits; w must dial it afresh to notice.
            flaky.shutdown() if len(path) == 3 else flaky.restart()
            host.relay_w.disconnect_or_conns()
            return create(path, *args, **kwargs)

        host.proxy.create_circuit = create_circuit
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        report = _run(
            scheduler, mini_world, relays, SamplePolicy(samples=5, timeout_ms=5000.0)
        )
        assert report.pairs_measured == 1 and len(report.failures) == 2
        assert registry.counter("campaign.failures.leg") == 2
        failed = host.provenance.by_status("failed")
        assert [row.failure_category for row in failed] == ["leg", "leg"]
        assert all(row.reason.startswith("leg failed: ") for row in failed)
