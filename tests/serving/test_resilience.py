"""Tests for the resilience primitives and the resilient client.

:mod:`repro.serving.resilience` is deliberately three small, independently
testable machines — seeded decorrelated-jitter backoff, wall-clock
deadlines, the admission gate — plus the retry loop that composes them.
The properties proven here (delays bounded by ``[base, cap]`` and
replayable from the seed; deadline headers round-tripping bit-exactly) are
what the chaos drill (E29) assumes when it verifies whole-cluster runs.
The client tests drive a scripted stub HTTP server so every retry
decision — 5xx retried, 4xx surfaced immediately with the server's
payload, ``Retry-After`` overriding backoff, the total deadline cutting
off retries — is observed on the wire.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.client import DEFAULT_TIMEOUT, ServingClient, ServingClientError
from repro.serving.resilience import (
    DEADLINE_HEADER,
    AdmissionGate,
    BackoffPolicy,
    Deadline,
    call_with_retries,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# BackoffPolicy
# ----------------------------------------------------------------------
class TestBackoffPolicy:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        base=st.floats(0.001, 1.0),
        cap_factor=st.floats(1.0, 10.0),
        multiplier=st.floats(1.0, 4.0),
    )
    def test_delays_are_bounded_and_replayable(self, seed, base, cap_factor, multiplier):
        policy = BackoffPolicy(base=base, cap=base * cap_factor, multiplier=multiplier)
        delays = policy.schedule(seed, 12)
        assert delays == policy.schedule(seed, 12)
        previous = policy.base
        for delay in delays:
            assert policy.base <= delay <= policy.cap + 1e-12
            # decorrelated jitter: each draw is capped by the previous
            # delay times the multiplier (and by the hard cap)
            assert delay <= min(policy.cap, previous * policy.multiplier) + 1e-9
            previous = delay

    def test_different_seeds_decorrelate(self):
        policy = BackoffPolicy()
        schedules = {tuple(policy.schedule(seed, 6)) for seed in range(20)}
        assert len(schedules) == 20

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=0.0)
        with pytest.raises(ValueError):
            BackoffPolicy(base=1.0, cap=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.9)


class TestCallWithRetries:
    def test_succeeds_after_transient_failures_with_seeded_sleeps(self):
        policy = BackoffPolicy(base=0.01, cap=0.05)
        failures = iter([OSError("a"), OSError("b")])
        calls = []

        def flaky():
            calls.append(1)
            for error in failures:
                raise error
            return "ok"

        slept: list[float] = []
        retried: list[BaseException] = []
        result = call_with_retries(
            flaky,
            retries=4,
            transient=(OSError,),
            backoff=policy,
            seed="unit",
            on_retry=retried.append,
            sleep=slept.append,
        )
        assert result == "ok"
        assert len(calls) == 3
        assert [str(error) for error in retried] == ["a", "b"]
        assert slept == policy.schedule("unit", 2)

    def test_non_transient_errors_propagate_immediately(self):
        calls = []

        def wrong():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            call_with_retries(
                wrong, retries=5, transient=(OSError,), sleep=lambda _d: None
            )
        assert len(calls) == 1

    def test_exhausted_retries_reraise_the_last_error(self):
        def always():
            raise OSError("still down")

        with pytest.raises(OSError, match="still down"):
            call_with_retries(
                always, retries=2, transient=(OSError,), sleep=lambda _d: None
            )

    def test_expired_deadline_stops_retrying(self):
        calls = []

        def always():
            calls.append(1)
            raise OSError("down")

        with pytest.raises(OSError):
            call_with_retries(
                always,
                retries=10,
                transient=(OSError,),
                deadline=Deadline(time.time() - 1.0),
                sleep=lambda _d: None,
            )
        assert len(calls) == 1  # attempts remain, but the budget is gone


# ----------------------------------------------------------------------
# Deadline & AdmissionGate
# ----------------------------------------------------------------------
class TestDeadline:
    @settings(max_examples=50, deadline=None)
    @given(at=st.floats(allow_nan=False, allow_infinity=False))
    def test_header_round_trips_bit_exactly(self, at):
        parsed = Deadline.from_header(Deadline(at).header_value())
        assert parsed is not None
        assert parsed.at == float(at)

    @pytest.mark.parametrize("value", [None, "", "soon", "nan", "inf", "-inf"])
    def test_garbage_headers_parse_to_none(self, value):
        assert Deadline.from_header(value) is None

    def test_remaining_and_expiry_track_the_clock(self):
        clock = FakeClock(now=100.0)
        deadline = Deadline.after(5.0, clock=clock)
        assert deadline.remaining(clock=clock) == 5.0
        assert not deadline.expired(clock=clock)
        clock.advance(5.0)
        assert deadline.expired(clock=clock)


class TestAdmissionGate:
    def test_sheds_above_the_limit_and_recovers(self):
        gate = AdmissionGate(2)
        assert gate.try_enter()
        assert gate.try_enter()
        assert not gate.try_enter()
        assert gate.inflight == 2
        gate.leave()
        assert gate.try_enter()

    def test_leave_never_goes_negative(self):
        gate = AdmissionGate(1)
        gate.leave()
        assert gate.inflight == 0
        assert gate.try_enter()

    def test_invalid_limit_is_rejected(self):
        with pytest.raises(ValueError):
            AdmissionGate(0)


# ----------------------------------------------------------------------
# ServingClient against a scripted stub server
# ----------------------------------------------------------------------
class _ScriptedHandler(BaseHTTPRequestHandler):
    """Plays back ``server.script`` one step per request (last step repeats)
    and records everything the client sent."""

    def _serve(self) -> None:
        server = self.server
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        with server.lock:
            index = len(server.requests)
            server.requests.append(
                {
                    "path": self.path,
                    "headers": dict(self.headers),
                    # HTTPMessage lookups are case-insensitive; the dict above
                    # keeps whatever casing the transport normalised to
                    "deadline": self.headers.get(DEADLINE_HEADER),
                    "body": body,
                }
            )
            step = server.script[min(index, len(server.script) - 1)]
        if step.get("sleep"):
            time.sleep(step["sleep"])
        payload = json.dumps(step.get("body", {})).encode("utf-8")
        self.send_response(step.get("status", 200))
        for name, value in step.get("headers", {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = _serve
    do_POST = _serve

    def log_message(self, *_args) -> None:  # silence test output
        pass


@pytest.fixture
def scripted_server():
    servers = []

    def start(script):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
        server.script = script
        server.requests = []
        server.lock = threading.Lock()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return server, f"http://127.0.0.1:{server.server_address[1]}"

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


FAST = BackoffPolicy(base=0.005, cap=0.01)


class TestServingClient:
    def test_retries_5xx_until_success_and_counts_them(self, scripted_server):
        server, url = scripted_server(
            [
                {"status": 500, "body": {"error": "injected"}},
                {"status": 502, "body": {"error": "bad gateway"}},
                {"status": 200, "body": {"count": 7.0}},
            ]
        )
        client = ServingClient(url, retries=4, backoff=FAST, seed=1)
        assert client.query("ab") == 7.0
        assert client.num_retries == 2
        assert len(server.requests) == 3

    def test_every_attempt_carries_the_deadline_header(self, scripted_server):
        server, url = scripted_server(
            [{"status": 500, "body": {}}, {"status": 200, "body": {"count": 1.0}}]
        )
        client = ServingClient(url, retries=2, backoff=FAST)
        before = time.time()
        client.query("ab")
        budget = client.timeout_for("/query")
        stamps = [float(request["deadline"]) for request in server.requests]
        assert len(stamps) == 2
        # one absolute deadline for the whole call, identical across retries
        assert stamps[0] == stamps[1]
        assert before + budget <= stamps[0] <= time.time() + budget

    def test_4xx_surfaces_the_server_payload_without_retrying(self, scripted_server):
        server, url = scripted_server(
            [
                {
                    "status": 404,
                    "body": {"error": "release 'v9' is not served", "release": "v9"},
                }
            ]
        )
        client = ServingClient(url, retries=4, backoff=FAST)
        with pytest.raises(ServingClientError, match="not served") as excinfo:
            client.query("ab", release="v9")
        error = excinfo.value
        assert error.status == 404
        assert error.attempts == 1
        assert error.endpoint == "/query"
        assert error.payload == {"error": "release 'v9' is not served", "release": "v9"}
        assert len(server.requests) == 1
        assert client.num_retries == 0

    def test_retry_after_overrides_the_backoff_delay(self, scripted_server):
        server, url = scripted_server(
            [
                {
                    "status": 503,
                    "body": {"error": "at capacity"},
                    "headers": {"Retry-After": "0.05"},
                },
                {"status": 200, "body": {"count": 2.0}},
            ]
        )
        # the backoff alone would sleep >= 2s; Retry-After must win
        client = ServingClient(
            url, retries=2, backoff=BackoffPolicy(base=2.0, cap=3.0)
        )
        started = time.monotonic()
        assert client.query("ab") == 2.0
        assert time.monotonic() - started < 1.0
        assert len(server.requests) == 2

    def test_exhausted_retries_raise_with_the_last_5xx(self, scripted_server):
        server, url = scripted_server([{"status": 500, "body": {"error": "down"}}])
        client = ServingClient(url, retries=1, backoff=FAST)
        with pytest.raises(ServingClientError, match="down") as excinfo:
            client.query("ab")
        assert excinfo.value.status == 500
        assert excinfo.value.attempts == 2
        assert len(server.requests) == 2

    def test_total_deadline_cuts_off_slow_servers(self, scripted_server):
        _server, url = scripted_server(
            [{"status": 200, "body": {"count": 1.0}, "sleep": 0.5}]
        )
        client = ServingClient(url, timeout=0.1, retries=10, backoff=FAST)
        with pytest.raises(ServingClientError, match="deadline") as excinfo:
            client.query("ab")
        assert excinfo.value.status == 0
        assert client._deadline_exceeded.value >= 1

    def test_connection_failures_are_retried_then_surfaced(self):
        # nothing listens on this port (bound-then-closed to reserve it)
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServingClient(f"http://127.0.0.1:{port}", retries=2, backoff=FAST)
        with pytest.raises(ServingClientError, match="cannot reach") as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
        assert excinfo.value.attempts == 3

    def test_per_endpoint_timeout_defaults_and_flat_override(self):
        client = ServingClient("http://127.0.0.1:1")
        assert client.timeout_for("/healthz") == 5.0
        assert client.timeout_for("/mine") == 120.0
        assert client.timeout_for("/unknown") == DEFAULT_TIMEOUT
        flat = ServingClient("http://127.0.0.1:1", timeout=3.0)
        assert flat.timeout_for("/mine") == 3.0
        assert flat.timeout_for("/healthz") == 3.0


# ----------------------------------------------------------------------
# The real server refuses expired work with 504
# ----------------------------------------------------------------------
class TestServerDeadlineRefusal:
    def test_expired_deadline_header_answers_504(self):
        from repro.serving import QueryService, create_server
        from tests.serving.test_release_format import make_structure

        service = QueryService(
            {"demo": make_structure({"ab": 5.0, "ba": 3.0})}, micro_batch=False
        )
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/query"
            body = json.dumps({"pattern": "ab"}).encode("utf-8")

            def post(deadline_at):
                request = urllib.request.Request(
                    url,
                    data=body,
                    headers={
                        "Content-Type": "application/json",
                        DEADLINE_HEADER: repr(deadline_at),
                    },
                )
                with urllib.request.urlopen(request, timeout=5) as response:
                    return response.status, json.loads(response.read())

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(time.time() - 5.0)
            assert excinfo.value.code == 504
            payload = json.loads(excinfo.value.read())
            assert "deadline" in payload["error"]
            assert service.num_deadline_exceeded == 1

            status, answer = post(time.time() + 30.0)
            assert status == 200
            assert answer["count"] == 5.0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()
