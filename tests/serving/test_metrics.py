"""Tests for the serving metrics: the registry-homed counters, per-endpoint
latency histograms, micro-batch instrumentation, and the ``/metrics``
endpoint (Prometheus text + JSON snapshot)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.construction import build_private_counting_structure
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.obs import validate_exposition
from repro.serving import QueryService, ServingClient, create_server


@pytest.fixture(scope="module")
def structure():
    rng = np.random.default_rng(17)
    params = ConstructionParams.pure(2.0, beta=0.1, noiseless=True, threshold=1.0)
    return build_private_counting_structure(
        StringDatabase(["abab", "abba", "baba", "bbbb", "aabb"]), params, rng=rng
    )


@pytest.fixture
def service(structure):
    service = QueryService({"demo": structure}, micro_batch=False)
    yield service
    service.close()


class TestServiceMetrics:
    def test_request_counters_live_in_the_registry(self, service):
        service.query("ab")
        service.query("ba")
        service.batch(["ab", "bb", "zz"])
        service.mine(1.0)
        registry = service.metrics
        assert registry.get(
            "dpsc_requests_total", {"endpoint": "query"}
        ).value == 2
        assert registry.get(
            "dpsc_requests_total", {"endpoint": "batch"}
        ).value == 1
        assert registry.get("dpsc_batch_patterns_total").value == 3
        assert registry.get(
            "dpsc_requests_total", {"endpoint": "mine"}
        ).value == 1

    def test_health_reads_the_same_counters(self, service):
        service.query("ab")
        service.batch(["ab", "bb"])
        payload = service.health()
        assert payload["queries"] == service.num_queries == 1
        assert payload["batches"] == service.num_batches == 1
        assert payload["batch_patterns"] == service.num_batch_patterns == 2
        assert payload["mines"] == service.num_mines == 0
        assert service.metrics.get(
            "dpsc_requests_total", {"endpoint": "healthz"}
        ).value == 1

    def test_latency_histograms_populate(self, service):
        for _ in range(3):
            service.query("ab")
        histogram = service.metrics.get(
            "dpsc_request_seconds", {"endpoint": "query"}
        )
        assert histogram.count == 3
        assert histogram.percentile(50.0) > 0

    def test_microbatcher_metrics(self, structure):
        service = QueryService({"demo": structure}, micro_batch=True)
        try:
            for _ in range(4):
                service.query("ab")
            registry = service.metrics
            flushes = registry.get("dpsc_microbatch_flushes_total").value
            requests = registry.get("dpsc_microbatch_requests_total").value
            assert requests == 4
            assert 1 <= flushes <= 4
            assert registry.get("dpsc_microbatch_flush_size").count == flushes
            payload = service.health()
            assert payload["micro_batches_flushed"] == flushes
            assert payload["micro_batched_requests"] == 4
        finally:
            service.close()


class TestMetricsEndpoint:
    @pytest.fixture
    def server(self, service):
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}", service
        server.shutdown()
        server.server_close()

    def test_scrape_is_valid_prometheus_text(self, server):
        url, service = server
        client = ServingClient(url)
        client.query("ab")
        client.batch(["ab", "bb"])
        text = client.metrics()
        assert validate_exposition(text) > 0
        assert 'dpsc_requests_total{endpoint="query"} 1.0' in text
        assert "dpsc_request_seconds_bucket" in text

    def test_json_snapshot_round_trips(self, server):
        url, service = server
        client = ServingClient(url)
        client.query("ab")
        snapshot = client.metrics_snapshot()
        series = snapshot["dpsc_requests_total"]["series"]
        by_endpoint = {
            entry["labels"]["endpoint"]: entry["value"] for entry in series
        }
        assert by_endpoint["query"] == 1
        latency = snapshot["dpsc_request_seconds"]["series"]
        query_latency = next(
            entry for entry in latency if entry["labels"]["endpoint"] == "query"
        )
        assert query_latency["value"]["count"] == 1
        assert query_latency["value"]["buckets"][-1][0] == "+Inf"

    def test_scrapes_do_not_count_as_requests(self, server):
        url, service = server
        client = ServingClient(url)
        before = {
            endpoint: service.metrics.get(
                "dpsc_requests_total", {"endpoint": endpoint}
            ).value
            for endpoint in ("query", "batch", "mine", "healthz")
        }
        client.metrics()
        client.metrics_snapshot()
        after = {
            endpoint: service.metrics.get(
                "dpsc_requests_total", {"endpoint": endpoint}
            ).value
            for endpoint in ("query", "batch", "mine", "healthz")
        }
        assert before == after
