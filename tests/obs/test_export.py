"""Prometheus exposition tests: the renderer and its validating parser.

The validator is the CI smoke job's gate, so these tests check both
directions: everything the renderer emits must validate, and corrupted
expositions (the bugs the validator exists to catch) must raise."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, render_snapshot, validate_exposition


def render(registry: MetricsRegistry) -> str:
    return render_snapshot(registry.snapshot())


@pytest.fixture
def registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter(
        "dpsc_requests_total", "Requests served.", {"endpoint": "query"}
    ).inc(5)
    registry.counter(
        "dpsc_requests_total", labels={"endpoint": "batch"}
    ).inc(2)
    registry.gauge("dpsc_uptime_seconds", "Uptime.").set(12.5)
    histogram = registry.histogram(
        "dpsc_request_seconds", "Latency.", {"endpoint": "query"}
    )
    for value in (0.001, 0.002, 0.004, 5.0, 100.0):
        histogram.observe(value)
    return registry


class TestRenderer:
    def test_rendered_output_validates(self, registry):
        text = render(registry)
        assert validate_exposition(text) > 0

    def test_counter_and_gauge_samples(self, registry):
        text = render(registry)
        assert "# TYPE dpsc_requests_total counter" in text
        assert 'dpsc_requests_total{endpoint="query"} 5.0' in text
        assert 'dpsc_requests_total{endpoint="batch"} 2.0' in text
        assert "# HELP dpsc_uptime_seconds Uptime." in text
        assert "dpsc_uptime_seconds 12.5" in text

    def test_histogram_expansion(self, registry):
        text = render(registry)
        assert "# TYPE dpsc_request_seconds histogram" in text
        assert 'dpsc_request_seconds_bucket{endpoint="query",le="+Inf"} 5' in text
        assert 'dpsc_request_seconds_count{endpoint="query"} 5' in text
        # The overflow observation (100 > top boundary) is only in +Inf.
        sum_line = next(
            line for line in text.splitlines()
            if line.startswith("dpsc_request_seconds_sum")
        )
        assert float(sum_line.split()[-1]) == pytest.approx(105.007)

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "weird_total", "quotes", {"release": 'a"b\\c'}
        ).inc()
        text = render(registry)
        assert '\\"' in text and "\\\\" in text
        assert validate_exposition(text) == 1

    def test_empty_registry_renders_nothing_but_validates(self):
        text = render(MetricsRegistry())
        assert validate_exposition(text) == 0


class TestValidator:
    def test_sample_without_type_rejected(self):
        with pytest.raises(ValueError, match="no preceding # TYPE"):
            validate_exposition("orphan_total 1\n")

    def test_malformed_sample_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            validate_exposition("# TYPE x counter\nx one\n")

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            validate_exposition("# TYPE x banana\n")

    def test_duplicate_type_rejected(self):
        with pytest.raises(ValueError, match="duplicate TYPE"):
            validate_exposition("# TYPE x counter\n# TYPE x counter\n")

    def test_non_cumulative_buckets_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1.0"} 5\n'
            'h_bucket{le="2.0"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 1.0\n"
            "h_count 5\n"
        )
        with pytest.raises(ValueError, match="not cumulative"):
            validate_exposition(text)

    def test_missing_inf_bucket_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1.0"} 5\n'
            "h_sum 1.0\n"
            "h_count 5\n"
        )
        with pytest.raises(ValueError, match="missing the \\+Inf bucket"):
            validate_exposition(text)

    def test_inf_bucket_count_mismatch_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1.0"} 4\n'
            'h_bucket{le="+Inf"} 4\n'
            "h_sum 1.0\n"
            "h_count 5\n"
        )
        with pytest.raises(ValueError, match="disagrees with _count"):
            validate_exposition(text)

    def test_unordered_bucket_boundaries_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="2.0"} 1\n'
            'h_bucket{le="1.0"} 2\n'
            'h_bucket{le="+Inf"} 2\n'
        )
        with pytest.raises(ValueError, match="not ascending"):
            validate_exposition(text)

    def test_junk_labels_rejected(self):
        with pytest.raises(ValueError, match="malformed labels"):
            validate_exposition('# TYPE x counter\nx{oops} 1\n')

    def test_comments_and_blank_lines_tolerated(self):
        text = "# a free comment\n\n# TYPE x counter\nx 1\n\n"
        assert validate_exposition(text) == 1
