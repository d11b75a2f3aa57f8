"""A resilient HTTP client for the ``dpsc`` query server.

Analysts talk to a running server (``dpsc serve``) through this class or
plain ``curl``; the wire format is the JSON API documented in
:mod:`repro.serving.server`.  The transport is :class:`wire.Connection`,
the client half of the HTTP/1.1 subset every hop of the tier speaks: one
write per request, the answer's body read by ``Content-Length``.
``/batch`` sends its patterns as NUL-separated UTF-8 (``Content-Type:
application/x-dpsc-patterns``, the release in the query string) unless
the batch is empty or a pattern holds NUL, which go as JSON; it asks for
the raw float64 answer (``Accept: application/x-dpsc-f64``) and decodes
it with numpy; a 2xx ``/batch`` answer in any other format is malformed.

Transport:

* **Keep-alive connection pool.**  Calls travel over persistent HTTP/1.1
  connections: a call takes an idle connection or opens one, reads the
  whole response, and returns the connection to the pool unless the
  response said ``Connection: close``.  Two in-flight calls never share a
  connection, so N concurrent callers hold at most N connections.
  :meth:`ServingClient.close` (or leaving a ``with`` block) closes the
  pooled connections.  ``http://`` and ``https://`` base URLs are
  accepted, with an optional path prefix; environment proxies are not
  used.
* **Stale re-send.**  A server may close a keep-alive connection while it
  sits idle in the pool.  A request that fails on a *reused* connection
  with ``ConnectionResetError`` (:class:`wire.RemoteDisconnected` among
  them) or ``BrokenPipeError`` is re-sent once, at once, on a new
  connection within the same attempt: no backoff sleep, no ``retries``
  budget spent.  Every other failure goes through the retry loop below.

Resilience (docs/RESILIENCE.md):

* **Per-request deadline.**  ``timeout`` is the *total* budget for one API
  call, retries included — per-endpoint defaults
  (:data:`DEFAULT_ENDPOINT_TIMEOUTS`: ``/healthz`` short, ``/mine`` long)
  unless a flat ``timeout`` overrides them.  The deadline is stamped on the
  wire as ``X-DPSC-Deadline`` so routers and workers can refuse work nobody
  is waiting for, and each attempt's socket timeout is the time remaining,
  on new and reused connections alike.
* **Retries with seeded backoff.**  Connection-level failures, answers
  outside the subset (:class:`wire.ProtocolError`) and HTTP 5xx
  responses are retried (every endpoint is an idempotent read) up to
  ``retries`` times within the deadline, sleeping decorrelated-jitter
  delays from a seeded :class:`~repro.serving.resilience.BackoffPolicy` —
  deterministic per ``(seed, request sequence)``.  A ``Retry-After`` header
  on 503 (the router's load-shedding and no-live-worker answers) overrides
  the backoff delay.  HTTP 4xx is never retried.
* **Surfaced error payloads.**  :class:`ServingClientError` carries the
  server's JSON error payload, the endpoint, the HTTP status and the
  attempt count instead of swallowing the response body.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable, Mapping, Sequence
from urllib.parse import quote

from repro.exceptions import ReproError
from repro.obs import MetricsRegistry
from repro.serving import wire
from repro.serving.resilience import DEADLINE_HEADER, BackoffPolicy, Deadline
from repro.serving.server import (
    F64_MEDIA_TYPE,
    PATTERNS_MEDIA_TYPE,
    decode_f64,
    encode_patterns,
    names_media,
)

__all__ = [
    "ServingClient",
    "ServingClientError",
    "DEFAULT_ENDPOINT_TIMEOUTS",
    "DEFAULT_TIMEOUT",
]

#: total per-call budgets by endpoint: liveness probes must fail fast,
#: server-side mining walks the whole released structure.
DEFAULT_ENDPOINT_TIMEOUTS: Mapping[str, float] = {
    "/healthz": 5.0,
    "/metrics": 10.0,
    "/releases": 10.0,
    "/query": 30.0,
    "/batch": 60.0,
    "/mine": 120.0,
}

#: budget for endpoints not in :data:`DEFAULT_ENDPOINT_TIMEOUTS`.
DEFAULT_TIMEOUT = 30.0

#: HTTP statuses worth retrying: every 5xx is either an upstream failure
#: (502/503/504 from the router) or an injected/unexpected server error on
#: an idempotent read.  4xx means the request itself is wrong — never retry.
_RETRYABLE_STATUSES = range(500, 600)

#: scheme -> (TLS, default port)
_SCHEMES = {"http": (False, 80), "https": (True, 443)}

#: how a reused connection fails when the server closed it while it sat
#: idle in the pool (:class:`wire.RemoteDisconnected` is a
#: ``ConnectionResetError``).
_STALE_ERRORS = (ConnectionResetError, BrokenPipeError)

#: answer headers as :class:`wire.Connection` returns them (lowercased names)
Headers = Mapping[str, str]


def _json_body(headers: Headers, body: bytes):
    return json.loads(body.decode("utf-8"))


def _text_body(headers: Headers, body: bytes) -> str:
    return body.decode("utf-8")


def _parse_retry_after(value: str | None) -> float | None:
    """``Retry-After`` as delta-seconds (our servers send fractional
    seconds; the RFC's HTTP-date form is not used by this stack)."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if seconds >= 0 else None


class ServingClientError(ReproError):
    """The request failed; carries everything the server said.

    ``status`` is the HTTP status (0 for connection-level failures and
    exhausted deadlines), ``endpoint`` the API path, ``payload`` the
    server's parsed JSON error body (``None`` when unreachable), and
    ``attempts`` how many tries the client made before giving up.
    """

    def __init__(
        self,
        message: str,
        status: int = 0,
        *,
        endpoint: str | None = None,
        payload: dict | None = None,
        attempts: int = 1,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.endpoint = endpoint
        self.payload = payload
        self.attempts = attempts


class ServingClient:
    """Query, batch-query and mine against a running ``dpsc serve``.

    ``timeout`` is the flat total budget per call; ``None`` (the default)
    uses :data:`DEFAULT_ENDPOINT_TIMEOUTS` per endpoint.  ``retries`` caps
    re-attempts on connection failures and 5xx responses; ``seed`` makes
    the backoff delays replayable.

    The client pools keep-alive connections and is safe to share between
    threads; :meth:`close` (or a ``with`` block) closes the pooled
    connections, after which the next call simply opens a new one.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float | None = None,
        *,
        retries: int = 4,
        backoff: BackoffPolicy | None = None,
        seed: int = 0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        scheme, separator, rest = self.base_url.partition("://")
        netloc, _, prefix = rest.partition("/")
        if not separator or scheme.lower() not in _SCHEMES or not netloc:
            raise ValueError(
                f"base_url must be an http:// or https:// URL, got {base_url!r}"
            )
        self._tls, default_port = _SCHEMES[scheme.lower()]
        self._host, self._port = wire.parse_netloc(netloc, default_port)
        self._netloc = netloc
        #: a path in the base URL prefixes every request path
        self._path_prefix = f"/{prefix}" if prefix else ""
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff = backoff if backoff is not None else BackoffPolicy(cap=1.0)
        self.seed = seed
        #: per-instance registry (``metrics`` stays the server-scrape method
        #: for backwards compatibility, so the client's own counters live
        #: under ``telemetry``).
        self.telemetry = MetricsRegistry()
        self._retries_total = self.telemetry.counter(
            "dpsc_client_retries_total",
            "Attempts retried after a connection failure or 5xx response.",
        )
        self._deadline_exceeded = self.telemetry.counter(
            "dpsc_client_deadline_exceeded_total",
            "API calls abandoned because their total deadline ran out.",
        )
        self._connections_opened = self.telemetry.counter(
            "dpsc_client_connections_opened_total",
            "Connections opened to the server (idle ones are pooled and reused).",
        )
        #: per-request sequence feeding the backoff seed, so concurrent
        #: requests draw independent (but replayable) delay schedules.
        self._sequence = itertools.count()
        #: idle keep-alive connections; a call pops the most recently
        #: returned one (the likeliest to still be open) or opens a new one.
        self._idle: list[wire.Connection] = []
        self._idle_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def timeout_for(self, endpoint: str) -> float:
        """The total budget for one call to ``endpoint``."""
        if self.timeout is not None:
            return self.timeout
        return DEFAULT_ENDPOINT_TIMEOUTS.get(endpoint, DEFAULT_TIMEOUT)

    @property
    def num_retries(self) -> int:
        return int(self._retries_total.value)

    def close(self) -> None:
        """Close every idle pooled connection (one still carrying a call
        goes back to the pool when that call ends)."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connect(self, timeout: float) -> wire.Connection:
        connection = wire.Connection(
            self._host, self._port, timeout, tls=self._tls, authority=self._netloc
        )
        self._connections_opened.inc()
        return connection

    def _round_trip(
        self,
        connection: wire.Connection,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict[str, str],
    ) -> tuple[int, Headers, bytes]:
        """One request and its whole response; the connection goes back to
        the pool unless the response (or a failure) ended it."""
        try:
            answer = connection.request(method, path, body, headers)
        except BaseException:
            connection.close()
            raise
        if connection.will_close:
            connection.close()
        else:
            with self._idle_lock:
                self._idle.append(connection)
        return answer

    def _exchange(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict[str, str],
        timeout: float,
    ) -> tuple[int, Headers, bytes]:
        """One attempt: over an idle pooled connection when there is one,
        re-sent once on a new connection if that one turns out stale."""
        with self._idle_lock:
            connection = self._idle.pop() if self._idle else None
        if connection is not None:
            connection.sock.settimeout(timeout)
            try:
                return self._round_trip(connection, method, path, body, headers)
            except _STALE_ERRORS:
                pass  # the server closed it while it sat idle
        return self._round_trip(self._connect(timeout), method, path, body, headers)

    def _request(
        self,
        path: str,
        payload: dict | bytes | None = None,
        *,
        content_type: str = "application/json",
        timeout: float | None = None,
        accept: str = "application/json",
        decode: Callable[[Headers, bytes], object] = _json_body,
    ):
        """One API call: its 2xx answer passed through ``decode(headers,
        body)``, or :class:`ServingClientError`.  A ``payload`` makes it a
        ``POST``: a dict goes as JSON, bytes as they are, under
        ``content_type``.  A ``ValueError`` from ``decode`` (a body that
        does not parse) is not retried."""
        endpoint = path.split("?", 1)[0]
        budget = timeout if timeout is not None else self.timeout_for(endpoint)
        deadline = Deadline.after(budget)
        url = f"{self.base_url}{path}"
        method, data = "GET", None
        headers = {"Accept": accept, DEADLINE_HEADER: deadline.header_value()}
        if payload is not None:
            method = "POST"
            data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = content_type
        delays = self.backoff.iter_delays(f"{self.seed}:{next(self._sequence)}")
        attempts = 0
        last_failure = "no attempt was made"
        last_status = 0
        last_payload: dict | None = None
        while True:
            remaining = deadline.remaining()
            if remaining <= 0:
                self._deadline_exceeded.inc()
                raise ServingClientError(
                    f"deadline of {budget:g}s exceeded for {endpoint} after "
                    f"{attempts} attempt(s); last failure: {last_failure}",
                    last_status,
                    endpoint=endpoint,
                    payload=last_payload,
                    attempts=attempts,
                ) from None
            attempts += 1
            retry_after = None
            try:
                status, response_headers, body = self._exchange(
                    method, self._path_prefix + path, data, headers, remaining
                )
            except (OSError, wire.ProtocolError) as error:
                # refused/reset connections, socket timeouts, bad responses
                last_status = 0
                last_payload = None
                last_failure = f"cannot reach {url}: {error}"
            else:
                if 200 <= status < 300:
                    try:
                        return decode(response_headers, body)
                    except ValueError as error:
                        raise ServingClientError(
                            f"malformed {endpoint} answer: {error}",
                            status,
                            endpoint=endpoint,
                            attempts=attempts,
                        ) from None
                try:
                    parsed = json.loads(body.decode("utf-8"))
                    last_payload = parsed if isinstance(parsed, dict) else None
                except (ValueError, UnicodeDecodeError):
                    last_payload = None
                last_status = status
                message = (last_payload or {}).get("error") or (
                    f"server returned HTTP {status}"
                )
                if status not in _RETRYABLE_STATUSES:
                    raise ServingClientError(
                        message,
                        status,
                        endpoint=endpoint,
                        payload=last_payload,
                        attempts=attempts,
                    ) from None
                last_failure = f"HTTP {status}: {message}"
                retry_after = _parse_retry_after(response_headers.get("retry-after"))
            if attempts > self.retries:
                raise ServingClientError(
                    f"{endpoint} failed after {attempts} attempt(s); "
                    f"last failure: {last_failure}",
                    last_status,
                    endpoint=endpoint,
                    payload=last_payload,
                    attempts=attempts,
                ) from None
            self._retries_total.inc()
            delay = next(delays) if retry_after is None else retry_after
            time.sleep(max(0.0, min(delay, deadline.remaining())))

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def query(
        self, pattern: str, release: str | None = None, *, timeout: float | None = None
    ) -> float:
        """Noisy count of one pattern."""
        payload: dict = {"pattern": pattern}
        if release is not None:
            payload["release"] = release
        return float(self._request("/query", payload, timeout=timeout)["count"])

    def batch(
        self,
        patterns: Sequence[str],
        release: str | None = None,
        *,
        timeout: float | None = None,
    ) -> list[float]:
        """Noisy counts of many patterns in one round trip.

        The patterns travel as :data:`PATTERNS_MEDIA_TYPE` (NUL-separated
        UTF-8, the release in the query string), or as JSON when that
        format cannot carry them: an empty batch, or one with a pattern
        holding NUL."""
        patterns = list(patterns)
        path, content_type = "/batch", PATTERNS_MEDIA_TYPE
        payload: dict | bytes | None = encode_patterns(patterns)
        if payload is None:
            payload, content_type = {"patterns": patterns}, "application/json"
            if release is not None:
                payload["release"] = release
        elif release is not None:
            path += "?release=" + quote(release, safe="", errors="surrogatepass")

        def decode(headers: Headers, body: bytes) -> list[float]:
            answer_type = headers.get("content-type")
            if not names_media(answer_type, F64_MEDIA_TYPE):
                raise ValueError(f"Content-Type {answer_type!r}, not {F64_MEDIA_TYPE}")
            return decode_f64(body, len(patterns)).tolist()

        return self._request(
            path,
            payload,
            content_type=content_type,
            timeout=timeout,
            accept=F64_MEDIA_TYPE,
            decode=decode,
        )

    def mine(
        self,
        threshold: float,
        release: str | None = None,
        *,
        min_length: int = 1,
        max_length: int | None = None,
        exact_length: int | None = None,
        timeout: float | None = None,
    ) -> list[tuple[str, float]]:
        """Frequent stored patterns at ``threshold`` (server-side mining)."""
        payload: dict = {"threshold": threshold, "min_length": min_length}
        if release is not None:
            payload["release"] = release
        if max_length is not None:
            payload["max_length"] = max_length
        if exact_length is not None:
            payload["exact_length"] = exact_length
        return [
            (pattern, float(count))
            for pattern, count in self._request("/mine", payload, timeout=timeout)[
                "patterns"
            ]
        ]

    def releases(self) -> list[dict]:
        """Metadata of every served release."""
        return self._request("/releases")["releases"]

    def healthz(self) -> dict:
        """Liveness and serving statistics."""
        return self._request("/healthz")

    def metrics(self) -> str:
        """The server's metrics in Prometheus text exposition format."""
        return self._request("/metrics", accept="text/plain", decode=_text_body)

    def metrics_snapshot(self) -> dict:
        """The server's raw metrics registry snapshot (``/metrics?format=json``)."""
        return self._request("/metrics?format=json")
