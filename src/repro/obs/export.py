"""Prometheus text exposition rendering (and a validating parser).

:func:`render_snapshot` serializes a metrics snapshot — one
:class:`~repro.obs.MetricsRegistry`'s, or the serving tier's merge of many —
into text exposition format 0.0.4, the format a Prometheus server scrapes
from ``GET /metrics``.  Families come out sorted by name.  Counters and
gauges emit one sample per label set; histograms expand into cumulative
``_bucket{le="..."}`` samples (always ending in ``le="+Inf"``), ``_sum`` and
``_count``.

:func:`validate_exposition` is the matching strict parser.  It exists for
the CI smoke job: after a short load test we scrape ``/metrics`` and fail
the build if the output violates the grammar (unknown line shapes, samples
before their ``# TYPE``, non-cumulative buckets, ``+Inf`` bucket
disagreeing with ``_count``).  Keeping the validator next to the renderer
means a rendering bug can't slip through CI as "valid because we wrote it".
"""

from __future__ import annotations

import math
import re
from typing import Mapping

__all__ = ["render_snapshot", "validate_exposition"]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _format_labels(labels: dict, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = [(k, str(v)) for k, v in labels.items()] + list(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
    return "{" + body + "}"


def render_snapshot(snapshot: Mapping) -> str:
    """A snapshot dict (:meth:`MetricsRegistry.snapshot`, or the tier's
    :func:`~repro.obs.aggregate.merge_snapshots`) in Prometheus text
    exposition format 0.0.4.  Output validates under
    :func:`validate_exposition`."""
    lines: list[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family.get("kind", "gauge")
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        for series in family.get("series", ()):
            labels = dict(series.get("labels", {}))
            value = series["value"]
            if kind == "histogram":
                total = int(value.get("count", 0))
                for boundary, running in value.get("buckets", ()):
                    le = "+Inf" if boundary == "+Inf" else _format_value(float(boundary))
                    lines.append(
                        f"{name}_bucket{_format_labels(labels, (('le', le),))} "
                        f"{int(running)}"
                    )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(float(value.get('sum', 0.0)))}"
                )
                lines.append(f"{name}_count{_format_labels(labels)} {total}")
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} {_format_value(float(value))}"
                )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Validation (used by the CI observability smoke job)
# ----------------------------------------------------------------------

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[^ ]+)"
    r"(?: (?P<timestamp>-?[0-9]+))?$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_sample_value(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    return float(raw)


def _base_name(sample_name: str, kind: str) -> str:
    if kind == "histogram":
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                return sample_name[: -len(suffix)]
    return sample_name


def validate_exposition(text: str) -> int:
    """Strictly check Prometheus text exposition; returns the sample count.

    Raises ``ValueError`` on the first violation: malformed lines, samples
    whose metric has no prior ``# TYPE``, histogram buckets that are not
    cumulative or missing ``le="+Inf"``, or an ``+Inf`` bucket that
    disagrees with the ``_count`` sample.
    """
    types: dict[str, str] = {}
    # (base name, labels-without-le) -> list of (le, cumulative count)
    buckets: dict[tuple[str, tuple], list[tuple[float, float]]] = {}
    counts: dict[tuple[str, tuple], float] = {}
    samples = 0

    for line_number, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) != 4 or not _METRIC_NAME_RE.match(parts[2]):
                raise ValueError(f"line {line_number}: malformed TYPE line: {line!r}")
            name, kind = parts[2], parts[3]
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {line_number}: unknown metric type {kind!r}")
            if name in types:
                raise ValueError(f"line {line_number}: duplicate TYPE for {name!r}")
            types[name] = kind
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not _METRIC_NAME_RE.match(parts[2]):
                raise ValueError(f"line {line_number}: malformed HELP line: {line!r}")
            continue
        if line.startswith("#"):
            continue  # free-form comment

        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {line_number}: malformed sample line: {line!r}")
        sample_name = match.group("name")
        labels_raw = match.group("labels") or ""
        labels = dict(_LABEL_PAIR_RE.findall(labels_raw[1:-1])) if labels_raw else {}
        if labels_raw:
            # Re-render the matched pairs to catch junk between/around them.
            rebuilt = ",".join(f'{k}="{v}"' for k, v in _LABEL_PAIR_RE.findall(labels_raw[1:-1]))
            stripped = labels_raw[1:-1].rstrip(",")
            if rebuilt != stripped:
                raise ValueError(f"line {line_number}: malformed labels: {labels_raw!r}")
        try:
            value = _parse_sample_value(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {line_number}: malformed sample value: {line!r}"
            ) from None
        samples += 1

        # Resolve which declared family this sample belongs to.
        base = sample_name
        kind = types.get(sample_name)
        if kind is None:
            for candidate, candidate_kind in types.items():
                if candidate_kind == "histogram" and _base_name(
                    sample_name, "histogram"
                ) == candidate:
                    base, kind = candidate, candidate_kind
                    break
        if kind is None:
            raise ValueError(
                f"line {line_number}: sample {sample_name!r} has no preceding # TYPE"
            )

        if kind == "histogram":
            key_labels = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            if sample_name.endswith("_bucket"):
                if "le" not in labels:
                    raise ValueError(
                        f"line {line_number}: histogram bucket without le label"
                    )
                buckets.setdefault((base, key_labels), []).append(
                    (_parse_sample_value(labels["le"]), value)
                )
            elif sample_name.endswith("_count"):
                counts[(base, key_labels)] = value

    for (base, key_labels), series in buckets.items():
        les = [le for le, _ in series]
        if les != sorted(les):
            raise ValueError(f"{base}: bucket le values are not ascending")
        cumulative = [count for _, count in series]
        if any(b < a for a, b in zip(cumulative, cumulative[1:])):
            raise ValueError(f"{base}: bucket counts are not cumulative")
        if not les or not math.isinf(les[-1]):
            raise ValueError(f"{base}: histogram is missing the +Inf bucket")
        declared = counts.get((base, key_labels))
        if declared is not None and declared != cumulative[-1]:
            raise ValueError(
                f"{base}: +Inf bucket ({cumulative[-1]}) disagrees with _count ({declared})"
            )
    return samples
