"""Streaming ingest: seeded arrival streams and the group-commit driver.

See :mod:`repro.ingest.workload` for the arrival model and the
committed-prefix replay, :mod:`repro.ingest.ingestor` for the
buffered driver, and ``docs/ingest.md`` for the append contract the
stores implement underneath.
"""

from .ingestor import IngestStats, StreamIngestor
from .workload import (
    MODES,
    StreamBatch,
    StreamWorkload,
    replay_records,
)

__all__ = [
    "MODES",
    "IngestStats",
    "StreamBatch",
    "StreamIngestor",
    "StreamWorkload",
    "replay_records",
]
