"""Tests for the query service, micro-batcher, HTTP server and client."""

from __future__ import annotations

import http.client
import json
import socket
import threading

import numpy as np
import pytest

from repro.core.construction import build_private_counting_structure
from repro.core.params import ConstructionParams
from repro.exceptions import ReleaseNotFoundError, ReproError
from repro.serving import (
    CompiledTrie,
    QueryService,
    ReleaseStore,
    ServingClient,
    ServingClientError,
    create_server,
)
from repro.serving.resilience import DEADLINE_HEADER
from repro.serving.server import F64_MEDIA_TYPE
from tests.serving.test_release_format import make_structure


@pytest.fixture(scope="module")
def structures():
    """Two small released structures acting as distinct releases."""
    from repro.core.database import StringDatabase

    rng = np.random.default_rng(3)
    params = ConstructionParams.pure(2.0, beta=0.1, noiseless=True, threshold=1.0)
    first = build_private_counting_structure(
        StringDatabase(["abab", "abba", "baba", "bbbb", "aabb"]), params, rng=rng
    )
    second = build_private_counting_structure(
        StringDatabase(["aaaa", "abe", "absab", "babe", "bee", "bees"]), params, rng=rng
    )
    return {"first": first, "second": second}


@pytest.fixture
def service(structures):
    service = QueryService(structures, default_release="first", micro_batch=False)
    yield service
    service.close()


class TestQueryService:
    def test_query_routes_to_default_release(self, service, structures):
        assert service.query("ab") == structures["first"].query("ab")

    def test_per_release_routing(self, service, structures):
        assert service.query("bee", release="second") == structures["second"].query(
            "bee"
        )
        assert service.query("bee", release="first") == structures["first"].query(
            "bee"
        )

    def test_batch_matches_structure(self, service, structures):
        probes = ["ab", "ba", "bb", "zz", "", "abab"]
        counts = service.batch(probes, release="first")
        assert counts == [structures["first"].query(p) for p in probes]

    def test_mine_matches_structure(self, service, structures):
        assert service.mine(1.0, release="second") == structures["second"].mine(1.0)

    def test_unknown_release_raises(self, service):
        with pytest.raises(ReleaseNotFoundError):
            service.query("ab", release="nope")

    def test_empty_service_rejected(self):
        with pytest.raises(ReproError):
            QueryService({})

    def test_unknown_default_rejected(self, structures):
        with pytest.raises(ReleaseNotFoundError):
            QueryService(structures, default_release="nope")

    def test_health_counters(self, service):
        before = service.health()["queries"]
        service.query("ab")
        service.batch(["ab", "ba"])
        service.mine(1.0)
        health = service.health()
        assert health["status"] == "ok"
        assert health["queries"] == before + 1
        assert health["batches"] >= 1
        assert health["batch_patterns"] >= 2
        assert health["mines"] >= 1
        assert set(health["releases"]) == {"first", "second"}

    def test_releases_info(self, service):
        infos = service.releases_info()
        assert [info["name"] for info in infos] == ["first", "second"]
        assert infos[0]["default"] is True
        assert all(info["num_patterns"] > 0 for info in infos)

    def test_accepts_precompiled_releases(self, structures):
        compiled = CompiledTrie.from_structure(structures["first"])
        service = QueryService({"first": compiled}, micro_batch=False)
        assert service.query("ab") == structures["first"].query("ab")
        service.close()


class TestMicroBatcher:
    def test_concurrent_queries_answer_correctly(self, structures):
        service = QueryService(structures, micro_batch=True, max_wait=0.001)
        try:
            probes = ["ab", "ba", "bb", "zz", "abab", "bee"] * 8
            results: dict[int, float] = {}

            def worker(index: int, pattern: str) -> None:
                results[index] = service.query(pattern)

            threads = [
                threading.Thread(target=worker, args=(i, p))
                for i, p in enumerate(probes)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            expected = {
                i: structures["first"].query(p) for i, p in enumerate(probes)
            }
            assert results == expected
            health = service.health()
            assert health["micro_batched_requests"] == len(probes)
            assert 1 <= health["micro_batches_flushed"] <= len(probes)
        finally:
            service.close()

    def test_sequential_queries_hit_the_lru_cache(self, structures):
        # Singleton flushes take the cached single-query path, so hot
        # patterns benefit from the LRU even with micro-batching enabled.
        service = QueryService(structures, micro_batch=True)
        try:
            expected = structures["first"].query("ab")
            for _ in range(5):
                assert service.query("ab") == expected
            assert service.release("first").cache_info().hits > 0
        finally:
            service.close()

    def test_submit_after_close_raises(self, structures):
        service = QueryService(structures, micro_batch=True)
        batcher = service._batcher
        service.close()
        with pytest.raises(ReproError):
            batcher.submit("ab", "first")

    def test_flushes_do_not_count_as_batch_traffic(self, structures):
        # A micro-batched flush of coalesced single queries must not bump
        # num_batches/num_batch_patterns: /healthz would misreport single
        # -query traffic as /batch traffic.
        service = QueryService(structures, micro_batch=True, max_wait=0.001)
        try:
            probes = ["ab", "ba", "bb", "zz", "abab", "bee"] * 8
            threads = [
                threading.Thread(target=service.query, args=(p,)) for p in probes
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            health = service.health()
            assert health["queries"] == len(probes)
            assert health["batches"] == 0
            assert health["batch_patterns"] == 0
            assert health["micro_batched_requests"] == len(probes)
            # An actual /batch request still counts as one.
            service.batch(["ab", "ba"])
            health = service.health()
            assert health["batches"] == 1
            assert health["batch_patterns"] == 2
        finally:
            service.close()


@pytest.fixture(scope="module")
def http_client(structures):
    service = QueryService(structures, default_release="first", max_wait=0.001)
    server = create_server(service, port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    with ServingClient(f"http://{host}:{port}") as client:
        yield client, structures
    server.shutdown()
    server.server_close()
    service.close()


def post_with_content_length(base_url: str, value: str) -> tuple[bytes, dict]:
    """A raw ``POST /query`` whose ``Content-Length`` is ``value``; reads
    until the server closes the connection (a server still waiting for a
    body fails the call with a socket timeout)."""
    host, port = base_url.split("//", 1)[1].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(
            f"POST /query HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {value}\r\n\r\n".encode("ascii")
        )
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    return head, json.loads(body)


class TestHTTPEndToEnd:
    def test_query(self, http_client):
        client, structures = http_client
        assert client.query("ab") == structures["first"].query("ab")
        assert client.query("bee", release="second") == structures["second"].query(
            "bee"
        )

    def test_batch_parity(self, http_client):
        client, structures = http_client
        probes = ["ab", "ba", "zz", "", "abab", "a?b"]
        assert client.batch(probes) == [structures["first"].query(p) for p in probes]

    def test_mine_parity(self, http_client):
        client, structures = http_client
        assert client.mine(1.0, release="second") == structures["second"].mine(1.0)
        assert client.mine(1.0, exact_length=2) == structures["first"].mine(
            1.0, exact_length=2
        )

    def test_releases_and_health(self, http_client):
        client, _ = http_client
        names = [info["name"] for info in client.releases()]
        assert names == ["first", "second"]
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

    def test_unknown_release_is_404(self, http_client):
        client, _ = http_client
        with pytest.raises(ServingClientError) as excinfo:
            client.query("ab", release="nope")
        assert excinfo.value.status == 404

    def test_unknown_path_is_404(self, http_client):
        client, _ = http_client
        with pytest.raises(ServingClientError) as excinfo:
            client._request("/nope", {})
        assert excinfo.value.status == 404
        with pytest.raises(ServingClientError):
            client._request("/nope")

    def test_malformed_requests_are_400(self, http_client):
        client, _ = http_client
        with pytest.raises(ServingClientError) as excinfo:
            client._request("/query", {"pattern": 7})
        assert excinfo.value.status == 400
        with pytest.raises(ServingClientError):
            client._request("/batch", {"patterns": "not-a-list"})
        with pytest.raises(ServingClientError):
            client._request("/mine", {"threshold": "high"})

    def test_non_object_json_bodies_are_json_400(self, http_client):
        # Valid JSON that is not an object must be a JSON 400, not an
        # unhandled AttributeError that drops the connection.
        client, _ = http_client
        for body in ([1, 2, 3], "abc", 42, True):
            with pytest.raises(ServingClientError) as excinfo:
                client._request("/query", body)
            assert excinfo.value.status == 400, body

    def test_malformed_mine_lengths_are_json_400(self, http_client):
        # A string max_length (or any non-integer length field) must come
        # back as a JSON 400, not escape as a raw 500.
        client, _ = http_client
        for payload in (
            {"threshold": 1.0, "max_length": "three"},
            {"threshold": 1.0, "min_length": "2"},
            {"threshold": 1.0, "min_length": 1.5},
            {"threshold": 1.0, "exact_length": [2]},
            {"threshold": 1.0, "exact_length": True},
            {"threshold": True},
        ):
            with pytest.raises(ServingClientError) as excinfo:
                client._request("/mine", payload)
            assert excinfo.value.status == 400, payload
            assert excinfo.value.args[0], payload  # JSON error message

    @pytest.mark.parametrize("value", ["-1", "abc"])
    def test_unusable_content_length_is_json_400_and_closes(self, http_client, value):
        client, _ = http_client
        head, payload = post_with_content_length(client.base_url, value)
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert "Content-Length" in payload["error"]

    def test_mine_accepts_integral_fields(self, http_client):
        client, structures = http_client
        assert client.mine(
            1.0, release="first", min_length=1, max_length=3
        ) == structures["first"].mine(1.0, min_length=1, max_length=3)

    def test_get_query_with_params(self, http_client):
        client, structures = http_client
        import json
        import urllib.request

        url = f"{client.base_url}/query?pattern=ab&release=first"
        with urllib.request.urlopen(url, timeout=10) as response:
            payload = json.loads(response.read().decode("utf-8"))
        assert payload["count"] == structures["first"].query("ab")

    def test_unreachable_server_raises(self):
        client = ServingClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServingClientError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0


def encoding_release() -> tuple[CompiledTrie, list[str]]:
    """A release whose counts are zeros, 3-decimal fractions (negatives
    among them) and values above 1e6, with probes for every stored pattern,
    misses and the empty pattern."""
    rng = np.random.default_rng(13)
    patterns = sorted(
        {"".join(rng.choice(list("ab"), size=rng.integers(1, 9))) for _ in range(400)}
    )
    counts = {}
    for index, pattern in enumerate(patterns):
        if index % 3 == 0:
            counts[pattern] = 0.0
        elif index % 3 == 1:
            counts[pattern] = round(float(rng.uniform(-50.0, 1000.0)), 3)
        else:
            counts[pattern] = round(float(rng.uniform(1e6, 5e7)), 3)
    return CompiledTrie.from_structure(make_structure(counts)), patterns + ["zz", "", "abx"]


@pytest.fixture(scope="module")
def encoding_server():
    compiled, probes = encoding_release()
    service = QueryService({"demo": compiled}, micro_batch=False)
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[:2], probes
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    service.close()


F64_ACCEPT = {"Accept": F64_MEDIA_TYPE}


def post_batch(address, body: bytes, headers: dict[str, str]) -> tuple[int, dict, bytes]:
    """A raw ``POST /batch``: status, response headers and body."""
    connection = http.client.HTTPConnection(*address, timeout=10)
    try:
        connection.request(
            "POST", "/batch", body=body, headers={"Content-Type": "application/json", **headers}
        )
        response = connection.getresponse()
        return response.status, dict(response.headers), response.read()
    finally:
        connection.close()


class TestBatchEncoding:
    def test_batch_body_is_byte_identical_to_the_per_count_float_encoding(self):
        rng = np.random.default_rng(13)
        patterns = sorted(
            {"".join(rng.choice(list("ab"), size=rng.integers(1, 9))) for _ in range(400)}
        )
        counts = {}
        for index, pattern in enumerate(patterns):
            if index % 3 == 0:
                counts[pattern] = 0.0
            elif index % 3 == 1:
                counts[pattern] = round(float(rng.uniform(-50.0, 1000.0)), 3)
            else:
                counts[pattern] = round(float(rng.uniform(1e6, 5e7)), 3)
        compiled = CompiledTrie.from_structure(make_structure(counts))
        probes = patterns + ["zz", "", "abx"]
        expected = json.dumps(
            {
                "release": "demo",
                "counts": [float(c) for c in compiled.batch_query(probes)],
            }
        ).encode("utf-8")
        service = QueryService({"demo": compiled}, micro_batch=False)
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        try:
            connection.request(
                "POST",
                "/batch",
                body=json.dumps({"patterns": probes}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            assert response.read() == expected
        finally:
            connection.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()

    def test_f64_body_is_the_json_counts_as_little_endian_float64(self, encoding_server):
        address, probes = encoding_server
        body = json.dumps({"patterns": probes}).encode("utf-8")
        status, headers, raw = post_batch(address, body, F64_ACCEPT)
        assert status == 200
        assert headers["Content-Type"] == F64_MEDIA_TYPE
        _, json_headers, json_body = post_batch(address, body, {})
        assert json_headers["Content-Type"] == "application/json"
        assert raw == np.asarray(json.loads(json_body)["counts"], "<f8").tobytes()

    def test_client_batch_is_bit_identical_to_the_json_counts(self, encoding_server):
        (host, port), probes = encoding_server
        _, _, json_body = post_batch(
            (host, port), json.dumps({"patterns": probes}).encode("utf-8"), {}
        )
        with ServingClient(f"http://{host}:{port}") as client:
            assert client.batch(probes) == json.loads(json_body)["counts"]

    def test_both_formats_count_alike(self, encoding_server):
        (host, port), probes = encoding_server
        body = json.dumps({"patterns": probes}).encode("utf-8")

        def batch_metrics(client):
            snapshot = client.metrics_snapshot()
            counts = {
                name: next(
                    entry["value"]
                    for entry in snapshot[name]["series"]
                    if entry["labels"].get("endpoint", "batch") == "batch"
                )
                for name in ("dpsc_requests_total", "dpsc_batch_patterns_total")
            }
            latency = snapshot["dpsc_request_seconds"]["series"]
            counts["latency"] = next(
                entry["value"]["count"]
                for entry in latency
                if entry["labels"]["endpoint"] == "batch"
            )
            return counts

        with ServingClient(f"http://{host}:{port}") as client:
            before = batch_metrics(client)
            for headers in (F64_ACCEPT, {}):
                assert post_batch((host, port), body, headers)[0] == 200
            after = batch_metrics(client)
        assert after == {
            "dpsc_requests_total": before["dpsc_requests_total"] + 2,
            "dpsc_batch_patterns_total": before["dpsc_batch_patterns_total"] + 2 * len(probes),
            "latency": before["latency"] + 2,
        }

    def test_empty_batch_is_an_empty_body(self, encoding_server):
        (host, port), _ = encoding_server
        status, headers, raw = post_batch((host, port), b'{"patterns": []}', F64_ACCEPT)
        assert (status, headers["Content-Type"], raw) == (200, F64_MEDIA_TYPE, b"")
        with ServingClient(f"http://{host}:{port}") as client:
            assert client.batch([]) == []

    @pytest.mark.parametrize(
        "body, extra, status, text",
        [
            (b'{"patterns": ["ab"], "release": "nope"}', {}, 404, "nope"),
            (b'{"patterns": "ab"}', {}, 400, "list of strings"),
            (b"{not json", {}, 400, "not valid JSON"),
            (b'{"patterns": ["ab"]}', {DEADLINE_HEADER: "1.0"}, 504, "deadline"),
        ],
        ids=["unknown-release", "bad-patterns", "bad-json", "expired-deadline"],
    )
    def test_errors_stay_json(self, encoding_server, body, extra, status, text):
        address, _ = encoding_server
        got, headers, raw = post_batch(address, body, {**F64_ACCEPT, **extra})
        assert got == status
        assert headers["Content-Type"] == "application/json"
        assert text in json.loads(raw)["error"]

    def test_client_error_carries_the_server_text(self, encoding_server):
        (host, port), _ = encoding_server
        with ServingClient(f"http://{host}:{port}") as client:
            with pytest.raises(ServingClientError) as excinfo:
                client.batch(["ab"], release="nope")
            assert excinfo.value.status == 404
            assert "nope" in excinfo.value.payload["error"]
            with pytest.raises(ServingClientError) as excinfo:
                client.batch([7])
            assert excinfo.value.status == 400
            assert "list of strings" in excinfo.value.payload["error"]


class TestFromStore:
    def test_serves_store_releases(self, tmp_path, structures):
        store = ReleaseStore(tmp_path / "store")
        store.save("first", structures["first"])
        store.save("second", structures["second"])
        service = QueryService.from_store(store, micro_batch=False)
        try:
            assert service.query("ab", release="first") == structures["first"].query(
                "ab"
            )
            assert set(info["name"] for info in service.releases_info()) == {
                "first",
                "second",
            }
        finally:
            service.close()

    def test_serves_pinned_version(self, tmp_path, structures):
        store = ReleaseStore(tmp_path / "store")
        store.save("demo", structures["first"])
        store.save("demo", structures["second"])
        store.pin("demo", 1)
        service = QueryService.from_store(store, micro_batch=False)
        try:
            assert service.query("abab") == structures["first"].query("abab")
        finally:
            service.close()

    def test_empty_store_rejected(self, tmp_path):
        store = ReleaseStore(tmp_path / "store")
        with pytest.raises(ReleaseNotFoundError):
            QueryService.from_store(store)
