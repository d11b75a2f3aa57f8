"""``repro.obs`` — dependency-free telemetry: metrics, spans, exporters.

The observability layer for the whole package.  It sits *below* every other
``repro`` module (it imports nothing from them) and provides:

* a thread-safe metrics registry (:class:`MetricsRegistry` of
  :class:`Counter` / :class:`Gauge` / :class:`Histogram`) with exact
  rank-based percentile extraction — see :mod:`repro.obs.registry`;
* tracing spans (:func:`trace` / :func:`span`) producing nested wall+CPU
  timing trees, wrapped by :class:`BuildProfile` for the construction
  pipelines — see :mod:`repro.obs.spans`;
* Prometheus text exposition rendering and validation of registry
  snapshots (:func:`render_snapshot` / :func:`validate_exposition`) — see
  :mod:`repro.obs.export`;
* cross-process snapshot aggregation for the sharded serving tier
  (:func:`merge_snapshots`: counters sum, histograms bucket-merge, gauges
  stay per-worker) — see :mod:`repro.obs.aggregate`.

Telemetry is on by default; :func:`set_enabled` (False) reduces histogram
observations and span recording to single flag checks, which the
observability micro-benchmark asserts costs <5% on the serving hot path.
"""

from repro.obs.aggregate import merge_snapshots, snapshot_percentile
from repro.obs.export import render_snapshot, validate_exposition
from repro.obs.registry import (
    DEFAULT_BUCKET_GROWTH,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    enabled,
    log_buckets,
    set_enabled,
)
from repro.obs.spans import BuildProfile, Span, current_span, span, trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
    "DEFAULT_BUCKET_GROWTH",
    "DEFAULT_LATENCY_BUCKETS",
    "set_enabled",
    "enabled",
    "Span",
    "BuildProfile",
    "span",
    "trace",
    "current_span",
    "validate_exposition",
    "merge_snapshots",
    "render_snapshot",
    "snapshot_percentile",
]
