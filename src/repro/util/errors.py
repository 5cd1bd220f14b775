"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch a single base class. Subsystems raise the most specific
subclass that applies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # type hint only
    from repro.obs.registry import MetricsRegistry


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class MeasurementError(ReproError):
    """A Ting measurement could not be completed (circuit failure, timeout)."""


def categorize_failure(reason: str, metrics: "MetricsRegistry | None" = None) -> str:
    """Bucket a free-text failure reason into a stable category.

    Campaigns count failures by category (``campaign.failures.<cat>``)
    so operators can tell relay churn (circuit builds) from probe loss
    at a glance instead of diffing reason strings.

    ``shard`` covers worker-level failures from the multiprocess
    campaign path (a worker that could not rebuild its testbed, or died
    mid-shard) — distinct from anything a measurement circuit can do.

    A reason that matches no known bucket lands in ``other`` *and*, when
    a live ``metrics`` registry is passed, bumps ``trace.uncategorized``
    — so a new failure string shows up as a counter an operator can
    alarm on instead of silently vanishing into the catch-all.
    """
    lowered = reason.lower()
    # Watchdog trips mention the shard too — match stall keywords first
    # so a wedged worker is not misfiled under generic worker failures.
    if "stalled" in lowered or "watchdog" in lowered or "heartbeat" in lowered:
        return "stall"
    if "shard" in lowered or "worker" in lowered or "factory-built" in lowered:
        return "shard"
    if "leg failed" in lowered:
        return "leg"
    if "circuit" in lowered and ("build" in lowered or "could not build" in lowered):
        return "circuit_build"
    if "truncate" in lowered or "surgery" in lowered:
        return "circuit_reuse"
    if "stream" in lowered:
        return "stream"
    if "deadline" in lowered or "zero replies" in lowered or "timed out" in lowered:
        return "probe_timeout"
    if metrics is not None and metrics.enabled:
        metrics.inc("trace.uncategorized")
    return "other"


class CircuitError(ReproError):
    """A Tor circuit could not be built, extended, or used."""


class StreamError(ReproError):
    """A Tor stream could not be attached or carried data incorrectly."""


class DirectoryError(ReproError):
    """Directory/consensus lookup failed (unknown relay, stale consensus)."""
