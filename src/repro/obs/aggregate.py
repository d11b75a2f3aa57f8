"""Cross-process metrics aggregation for the sharded serving tier.

The cluster router exposes one ``/metrics`` for the whole tier: its own
registry plus every worker's, scraped as JSON snapshots
(:meth:`MetricsRegistry.snapshot`) and merged here.  The merge semantics
follow the Prometheus data model, metric kind by metric kind:

``counter``
    summed across sources per label set — request totals over the tier are
    the sum of the workers' totals.
``histogram``
    merged per label set when the bucket boundaries agree: cumulative
    bucket counts, ``count`` and ``sum`` all add, ``min``/``max`` combine,
    and percentiles are re-derived from the merged cumulative buckets (the
    same rank rule as :meth:`Histogram.percentile`).  Sources whose bucket
    boundaries disagree cannot be added meaningfully and fall back to
    per-source labelling.
``gauge``
    **never summed**.  A gauge is a point-in-time reading — summing
    ``dpsc_uptime_seconds`` or a cache-size gauge across workers produces a
    number that is wrong for every consumer — so every gauge series is
    reported per source, with the source name attached as an extra label
    (``dpsc_uptime_seconds{worker="w0"}``).

:func:`merge_snapshots` returns a snapshot-shaped dict, so ``/metrics?
format=json`` serves it directly and :func:`repro.obs.export.render_snapshot`
renders it as text like any single registry's snapshot — output that must
pass :func:`repro.obs.export.validate_exposition`, which the aggregation
tests assert.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

__all__ = ["merge_snapshots", "snapshot_percentile"]


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _bucket_signature(value: Mapping) -> tuple:
    """The histogram's finite bucket boundaries (merge compatibility key)."""
    return tuple(
        boundary for boundary, _ in value.get("buckets", ()) if boundary != "+Inf"
    )


def snapshot_percentile(buckets: Sequence[Sequence], count: int, q: float, maximum) -> float:
    """Rank-``q`` percentile from cumulative snapshot ``buckets``.

    The same rule as :meth:`Histogram.percentile`: the upper boundary of
    the bucket holding rank ``ceil(q/100 * count)``, the exact maximum for
    ranks landing in the ``+Inf`` overflow bucket, NaN when empty.
    """
    if count <= 0:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * count))
    for boundary, cumulative in buckets:
        if cumulative >= rank:
            if boundary == "+Inf":
                break
            return float(boundary)
    return float(maximum) if maximum is not None else math.nan


def _merge_histogram_values(values: Sequence[Mapping]) -> dict:
    """One histogram snapshot value from several with equal boundaries."""
    boundaries = _bucket_signature(values[0])
    cumulative = [0] * (len(boundaries) + 1)
    total = 0
    total_sum = 0.0
    minimum: float | None = None
    maximum: float | None = None
    for value in values:
        for index, (_, running) in enumerate(value.get("buckets", ())):
            cumulative[index] += int(running)
        total += int(value.get("count", 0))
        total_sum += float(value.get("sum", 0.0))
        for candidate in (value.get("min"),):
            if candidate is not None:
                minimum = candidate if minimum is None else min(minimum, candidate)
        for candidate in (value.get("max"),):
            if candidate is not None:
                maximum = candidate if maximum is None else max(maximum, candidate)
    buckets = [
        [boundary, running] for boundary, running in zip(boundaries, cumulative)
    ]
    buckets.append(["+Inf", cumulative[-1]])
    merged = {
        "count": total,
        "sum": total_sum,
        "min": minimum,
        "max": maximum,
        "buckets": buckets,
    }
    if total:
        merged.update(
            {
                f"p{q:g}": snapshot_percentile(buckets, total, q, maximum)
                for q in (50.0, 95.0, 99.0)
            }
        )
    return merged


def merge_snapshots(
    snapshots: Sequence[tuple[str, Mapping]], *, label: str = "worker"
) -> dict:
    """Merge ``(source_name, registry_snapshot)`` pairs into one snapshot.

    Counters sum per label set, histograms bucket-merge per label set (or
    fall back to per-source labelling on boundary mismatch), gauges are
    always per-source-labelled under ``label``.  A name registered with
    different kinds by different sources raises ``ValueError`` — one name,
    one meaning, same as within a single registry.
    """
    kinds: dict[str, str] = {}
    helps: dict[str, str] = {}
    # name -> label key -> accumulated series state
    counters: dict[str, dict[tuple, float]] = {}
    histograms: dict[str, dict[tuple, list[tuple[str, Mapping]]]] = {}
    labelled: dict[str, list[dict]] = {}
    for source, snapshot in snapshots:
        for name, family in snapshot.items():
            kind = family.get("kind", "gauge")
            if kinds.setdefault(name, kind) != kind:
                raise ValueError(
                    f"metric {name!r} is a {kinds[name]} in one source and a "
                    f"{kind} in another; refusing to merge"
                )
            if family.get("help") and not helps.get(name):
                helps[name] = family["help"]
            for series in family.get("series", ()):
                labels = dict(series.get("labels", {}))
                if kind == "counter":
                    slot = counters.setdefault(name, {})
                    key = _label_key(labels)
                    slot[key] = slot.get(key, 0.0) + float(series["value"])
                elif kind == "histogram":
                    histograms.setdefault(name, {}).setdefault(
                        _label_key(labels), []
                    ).append((source, series["value"]))
                else:
                    # Gauges (and any unknown kind) are point-in-time
                    # readings: per-source labels, no summation.
                    labelled.setdefault(name, []).append(
                        {"labels": {**labels, label: source}, "value": series["value"]}
                    )
    merged: dict[str, dict] = {}
    for name in sorted(kinds):
        kind = kinds[name]
        series: list[dict] = []
        if kind == "counter":
            for key, value in counters.get(name, {}).items():
                series.append({"labels": dict(key), "value": value})
        elif kind == "histogram":
            for key, sources in histograms.get(name, {}).items():
                signatures = {_bucket_signature(value) for _, value in sources}
                if len(signatures) == 1:
                    series.append(
                        {
                            "labels": dict(key),
                            "value": _merge_histogram_values(
                                [value for _, value in sources]
                            ),
                        }
                    )
                else:  # incompatible buckets: adding them would be a lie
                    for source, value in sources:
                        series.append(
                            {"labels": {**dict(key), label: source}, "value": value}
                        )
        else:
            series = labelled.get(name, [])
        merged[name] = {"kind": kind, "help": helps.get(name, ""), "series": series}
    return merged
