"""Structured observability for the NoC simulator (`repro.metrics`).

The thesis evaluates stochastic communication through measured
quantities — latency in rounds, packets and bits sent, Eq. 3 energy,
per-failure-mode losses (§3.3).  This package turns those measurements
into first-class, per-round time series instead of end-of-run scalars:

* :class:`MetricsCollector` — an engine observer recording a
  :class:`RunMetrics` time series (coverage, transmissions, loss
  breakdown, buffer occupancy histogram, cumulative energy) with
  deterministic JSON/CSV export;
* :class:`PhaseProfiler` — wall-clock timing of the engine's four
  per-round phases, surfaced by the ``repro profile`` CLI subcommand;
* :func:`aggregate_metrics` — mean / 95 % CI reduction of a sweep
  cell's repetitions into a :class:`MetricsSummary`, bit-identical for
  any worker count;
* :func:`extract_statistic` — per-replicate scalar extraction by metric
  name (``"coverage"``, ``"rounds"``, threshold indicators like
  ``"coverage>=0.99"``), feeding ``repro.stats`` sequential tests.

See ``docs/observability.md`` for the schema, lifecycle and overhead
numbers, and ``docs/index.md`` for where this package sits in the
architecture.
"""

from repro.metrics.aggregate import (
    MetricsSummary,
    ScalarSummary,
    SeriesSummary,
    aggregate_metrics,
)
from repro.metrics.collector import MetricsCollector
from repro.metrics.extract import (
    EXTRACTORS,
    extract_statistic,
    register_extractor,
)
from repro.metrics.profiler import PHASES, PhaseProfiler
from repro.metrics.records import CSV_COLUMNS, RoundSample, RunMetrics

__all__ = [
    "CSV_COLUMNS",
    "EXTRACTORS",
    "MetricsCollector",
    "MetricsSummary",
    "PHASES",
    "PhaseProfiler",
    "RoundSample",
    "RunMetrics",
    "ScalarSummary",
    "SeriesSummary",
    "aggregate_metrics",
    "extract_statistic",
    "register_extractor",
]
