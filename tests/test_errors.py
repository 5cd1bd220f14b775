"""Tests for the exception hierarchy contract."""

import pytest

from repro.util.errors import (
    CircuitError,
    ConfigurationError,
    ControlProtocolError,
    DirectoryError,
    MeasurementError,
    ReproError,
    SimulationError,
    StreamError,
)

ALL_ERRORS = (
    ConfigurationError,
    SimulationError,
    MeasurementError,
    CircuitError,
    StreamError,
    ControlProtocolError,
    DirectoryError,
)


class TestHierarchy:
    @pytest.mark.parametrize("error_type", ALL_ERRORS)
    def test_all_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, ReproError)

    @pytest.mark.parametrize("error_type", ALL_ERRORS)
    def test_catchable_as_base(self, error_type):
        with pytest.raises(ReproError):
            raise error_type("boom")

    def test_library_raises_only_repro_errors_for_bad_input(self):
        # A caller wrapping the public API in `except ReproError` must
        # catch domain failures from every subsystem.
        from repro.core.dataset import RttMatrix
        from repro.core.sampling import SamplePolicy
        from repro.tor.directory import Consensus

        with pytest.raises(ReproError):
            RttMatrix(["a", "a"])
        with pytest.raises(ReproError):
            SamplePolicy(samples=0)
        with pytest.raises(ReproError):
            Consensus({}).get("nope")
        # Was a bare ``ValueError: 'zz' is not in list`` from list.index.
        from repro.core.dataset import CampaignDataset
        from repro.obs.health import pair_quality

        scores = pair_quality(CampaignDataset(matrix=RttMatrix(["a", "b"])))
        assert scores.score_for("a", "b") is None
        with pytest.raises(ReproError, match="unknown node 'zz'"):
            scores.score_for("a", "zz")

    def test_errors_carry_messages(self):
        try:
            raise MeasurementError("pair (a, b) failed")
        except ReproError as exc:
            assert "pair (a, b)" in str(exc)
