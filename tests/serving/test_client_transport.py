"""Tests for ServingClient's keep-alive transport.

The client pools persistent HTTP/1.1 connections: a call takes an idle
connection or opens one, and a request that fails on a reused connection
because the server closed it while idle is re-sent once, at once, on a new
connection (docs/RESILIENCE.md).  These tests count the connections the
client opens (``dpsc_client_connections_opened_total``), make the server
hang up an idle connection, stall a reused one past the deadline, share
one client between threads, and SIGTERM a ``dpsc serve`` process while a
pooled connection sits idle.  They also check that ``/batch`` sends its
patterns NUL-separated (the empty batch as JSON), asks for raw float64
only and refuses any other answer.  Every client is closed,
so the module runs clean under ``python -X dev`` (no unclosed-socket
warnings).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.serving import QueryService, ReleaseStore, ServingClient, create_server
from repro.serving.client import ServingClientError
from repro.serving.resilience import BackoffPolicy
from repro.serving.server import F64_MEDIA_TYPE, PATTERNS_MEDIA_TYPE
from tests.serving.test_release_format import make_structure

COUNTS = {"ab": 5.0, "ba": 3.0, "abab": 1.5}
FAST = BackoffPolicy(base=0.005, cap=0.01)
#: any backoff sleep under this policy takes at least 2 s
SLOW = BackoffPolicy(base=2.0, cap=3.0)


def opened(client: ServingClient) -> int:
    return int(client.telemetry.get("dpsc_client_connections_opened_total").value)


def batch_patterns(content_type: str | None, body: bytes) -> list[str]:
    """The patterns of a ``/batch`` request body in either request format:
    NUL-separated UTF-8 under ``application/x-dpsc-patterns``, else JSON."""
    if content_type == PATTERNS_MEDIA_TYPE:
        return body.decode("utf-8", "surrogatepass").split("\x00")
    return json.loads(body)["patterns"]


class _EchoHandler(BaseHTTPRequestHandler):
    """Keep-alive stub: ``POST`` answers ``{"count": float(pattern)}``.

    ``server.stall`` maps a pattern to seconds slept before answering;
    ``server.hang_up`` patterns are answered and then the connection is
    closed without ``Connection: close``, as a server reaping idle
    connections does; ``server.drop`` patterns get no answer at all.
    ``POST /batch``, in either request format, answers
    ``[float(pattern), ...]`` as an ``application/x-dpsc-f64`` body
    whatever the ``Accept``, one count short when ``server.batch_answer``
    is ``"short"``, or as JSON ``{"counts": [...]}`` when it is ``"json"``.
    """

    protocol_version = "HTTP/1.1"
    #: as in the real servers: headers and body are two writes, and Nagle
    #: would hold the body for the peer's delayed ACK on a reused connection
    disable_nagle_algorithm = True

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        server = self.server
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if self.path == "/batch":
            self._batch(batch_patterns(self.headers["Content-Type"], body))
            return
        pattern = json.loads(body)["pattern"]
        with server.lock:
            server.requests.append((self.path, pattern))
        if pattern in server.drop:
            self.close_connection = True
            return
        time.sleep(server.stall.get(pattern, 0.0))
        payload = json.dumps({"count": float(pattern)}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        if pattern in server.hang_up:
            self.close_connection = True

    def _batch(self, patterns: list[str]) -> None:
        server = self.server
        with server.lock:
            server.requests.append(
                (self.path, self.headers["Accept"], self.headers["Content-Type"])
            )
        counts = [float(pattern) for pattern in patterns]
        if server.batch_answer == "json":
            content_type = "application/json"
            payload = json.dumps({"counts": counts}).encode("utf-8")
        else:
            if server.batch_answer == "short":
                counts = counts[:-1]
            content_type = F64_MEDIA_TYPE
            payload = np.asarray(counts, "<f8").tobytes()
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *_args) -> None:  # silence test output
        pass


class _EchoServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _EchoHandler)
        self.lock = threading.Lock()
        self.changed = threading.Condition(self.lock)
        self.requests: list[tuple[str, str]] = []
        self.stall: dict[str, float] = {}
        self.hang_up: set[str] = set()
        self.drop: set[str] = set()
        self.batch_answer = "f64"
        self.accepted = 0
        self.closed = 0

    def process_request(self, request, client_address) -> None:
        with self.lock:
            self.accepted += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self.changed:
            self.closed += 1
            self.changed.notify_all()

    def handle_error(self, request, client_address) -> None:
        # a stalled answer written after the client gave up: expected here
        pass

    def wait_closed(self, count: int, timeout: float = 5.0) -> bool:
        """Until the server has closed ``count`` connections."""
        with self.changed:
            return self.changed.wait_for(lambda: self.closed >= count, timeout)


@pytest.fixture
def echo_server():
    server = _EchoServer()
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture
def dpsc_server():
    service = QueryService({"demo": make_structure(COUNTS)}, micro_batch=False)
    server = create_server(service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", service
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    service.close()


class TestConnectionReuse:
    def test_sequential_calls_over_every_endpoint_open_one_connection(
        self, dpsc_server
    ):
        url, service = dpsc_server
        probes = ["ab", "ba", "zz", ""]
        with ServingClient(url) as client:
            for _ in range(10):
                assert client.query("ab") == 5.0
            assert client.batch(probes) == service.batch(probes)
            assert client.mine(1.0) == service.mine(1.0)
            assert [info["name"] for info in client.releases()] == ["demo"]
            assert client.healthz()["status"] == "ok"
            assert "dpsc_requests_total" in client.metrics()
            assert "dpsc_requests_total" in client.metrics_snapshot()
            with pytest.raises(ServingClientError) as excinfo:
                client.query("ab", release="nope")  # a 404 keeps the connection
            assert excinfo.value.status == 404
            assert client.query("ba") == 3.0
            assert opened(client) == 1
            assert client.num_retries == 0

    def test_idle_connection_closed_by_the_server_is_resent_at_once(
        self, echo_server
    ):
        server, url = echo_server
        server.hang_up.add("1")
        with ServingClient(url, backoff=SLOW) as client:
            assert client.query("1") == 1.0
            assert server.wait_closed(1)  # the pooled connection is now stale
            started = time.monotonic()
            assert client.query("2") == 2.0
            assert time.monotonic() - started < 1.0  # no backoff sleep
            assert client.num_retries == 0
            assert opened(client) == 2
        assert server.accepted == 2

    def test_a_stale_connection_is_resent_only_once(self, echo_server):
        server, url = echo_server
        server.drop.add("3")
        with ServingClient(url, retries=2, backoff=FAST) as client:
            assert client.query("1") == 1.0
            with pytest.raises(ServingClientError, match="after 3 attempt"):
                client.query("3")
            # the reused connection's failure was re-sent once on a new
            # connection; the failures after it went through the retry loop
            assert client.num_retries == 2
            assert opened(client) == 4
        assert [pattern for _, pattern in server.requests] == ["1"] + ["3"] * 4

    def test_a_reused_connection_gets_the_remaining_deadline(self, echo_server):
        server, url = echo_server
        server.stall["2"] = 0.5
        with ServingClient(url, retries=10, backoff=FAST) as client:
            assert client.query("1", timeout=30.0) == 1.0
            started = time.monotonic()
            with pytest.raises(ServingClientError, match="deadline") as excinfo:
                client.query("2", timeout=0.1)
            assert time.monotonic() - started < 0.4
            assert excinfo.value.status == 0

    def test_threads_share_the_pool_without_crosstalk(self, echo_server):
        server, url = echo_server
        client = ServingClient(url)
        wrong: list[str] = []

        def caller(offset: int) -> None:
            for index in range(200):
                number = offset * 1000 + index
                try:
                    got = client.query(str(number))
                except ServingClientError as error:
                    wrong.append(repr(error))
                else:
                    if got != float(number):
                        wrong.append(f"{number} -> {got}")

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(server.requests) == 8 * 200
        assert 1 <= opened(client) <= 8
        assert server.accepted == opened(client)
        client.close()  # closes the idle connections every thread opened
        assert server.wait_closed(server.accepted)


class TestBatchDecoding:
    def test_batch_asks_for_f64_only_and_decodes_it(self, echo_server):
        server, url = echo_server
        with ServingClient(url) as client:
            assert client.batch(["1", "2.5", "-3"]) == [1.0, 2.5, -3.0]
            assert client.batch([]) == []
        assert server.requests == [
            ("/batch", F64_MEDIA_TYPE, PATTERNS_MEDIA_TYPE),
            ("/batch", F64_MEDIA_TYPE, "application/json"),  # the empty batch
        ]

    def test_an_f64_body_of_the_wrong_length_fails_after_one_attempt(self, echo_server):
        server, url = echo_server
        server.batch_answer = "short"
        with ServingClient(url, retries=3, backoff=FAST) as client:
            with pytest.raises(ServingClientError, match="malformed /batch") as excinfo:
                client.batch(["1", "2"])
            assert excinfo.value.attempts == 1
            assert excinfo.value.status == 200
            assert client.num_retries == 0
        assert len(server.requests) == 1

    def test_a_json_batch_answer_is_malformed(self, echo_server):
        server, url = echo_server
        server.batch_answer = "json"
        with ServingClient(url, retries=3, backoff=FAST) as client:
            with pytest.raises(ServingClientError, match="application/json") as excinfo:
                client.batch(["1", "2"])
            assert excinfo.value.attempts == 1
        assert len(server.requests) == 1


class TestBaseURL:
    def test_a_path_prefix_prefixes_every_request(self, echo_server):
        server, url = echo_server
        with ServingClient(url + "/api/v1/") as client:
            assert client.query("7") == 7.0
        assert server.requests == [("/api/v1/query", "7")]

    def test_https_urls_are_accepted(self):
        with ServingClient("https://127.0.0.1:1", timeout=0.5, retries=0) as client:
            with pytest.raises(ServingClientError, match="cannot reach https://"):
                client.healthz()
            assert opened(client) == 0

    @pytest.mark.parametrize(
        "url",
        ["ftp://127.0.0.1:21", "file:///tmp/x", "127.0.0.1:8080", "http://", "http:///api"],
    )
    def test_other_urls_are_refused_at_construction(self, url):
        with pytest.raises(ValueError, match="http:// or https://"):
            ServingClient(url)


class TestSigterm:
    def test_dpsc_serve_exits_with_an_idle_pooled_connection(self, tmp_path):
        store = ReleaseStore(tmp_path / "store")
        store.save("demo", make_structure(COUNTS))
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONUNBUFFERED="1")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", str(store.root), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
        )
        try:
            url = None
            for line in process.stdout:  # ends at EOF if the server dies
                text = line.decode("utf-8", "replace")
                if text.startswith("listening on "):
                    url = text.split()[-1]
                    break
            assert url is not None, "dpsc serve did not start"
            with ServingClient(url) as client:
                assert client.query("ab") == 5.0
                assert opened(client) == 1  # now idle in the pool
                process.send_signal(signal.SIGTERM)
                assert process.wait(timeout=5) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=5)
            process.stdout.close()
