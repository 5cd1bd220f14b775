"""Read-optimized serving layer over a frozen campaign dataset.

``repro.serve`` is the consumption side of the pipeline: measurement
(PR 6-7) and grading (PR 8) produce a versioned ``CampaignDataset``;
this package freezes it into a :class:`MatrixIndex` and answers
point / k-NN / percentile / path / best-via queries at rates far above
measurement rates, through :class:`QueryServer` or the ``repro serve``
CLI.
"""

from repro.serve.index import MatrixIndex, PointAnswer, UnknownNodeError, ViaAnswer
from repro.serve.server import QUERY_OPS, QueryServer
from repro.serve.telemetry import (
    NULL_SERVE_TELEMETRY,
    SERVE_ERROR_TAXONOMY,
    NullServeTelemetry,
    ServeTelemetry,
    UnknownOpError,
    classify_error,
)

__all__ = [
    "MatrixIndex",
    "PointAnswer",
    "ViaAnswer",
    "QueryServer",
    "QUERY_OPS",
    "ServeTelemetry",
    "NullServeTelemetry",
    "NULL_SERVE_TELEMETRY",
    "SERVE_ERROR_TAXONOMY",
    "UnknownNodeError",
    "UnknownOpError",
    "classify_error",
]
