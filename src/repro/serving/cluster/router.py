"""The public-port router of the multi-process serving tier.

One ``ThreadingHTTPServer`` that owns no release data at all: every count
comes from a worker, and the router decides only which worker answers.  It
relays every request except ``GET /healthz``, ``GET /metrics`` and
``POST /admin/reload`` to one worker as received — method, path with query
string, body, and only the ``Content-Type``, ``Accept`` and
``X-DPSC-Deadline`` headers — and writes back the worker's status,
``Content-Type`` and body unchanged.  Workers run the exact single-process
handler code, so every relayed answer, JSON or raw float64, success or
error, is the single-process answer by construction.  Nothing on the relay
path parses a body: a ``/batch`` counts its patterns from the worker's
``X-DPSC-Patterns`` answer header.

Worker connections are keep-alive and pooled: a forward takes an idle
connection to its worker or opens one, and hands it back afterwards.  The
pool keeps at most :data:`MAX_IDLE_PER_WORKER` idle connections per worker,
each of which holds a worker handler thread, and none to workers that have
left the table (hot reload, respawn): those would otherwise sit in
``CLOSE_WAIT`` for the router's lifetime.

Failure policy: every endpoint is an idempotent read (queries are
post-processing; the only server-side state is counters), so a connection
failure mid-request is retried on another live worker until
``retry_timeout`` — a ``kill -9`` mid-batch costs latency, never a lost or
wrong answer.  Failures also wake the supervisor immediately
(:meth:`WorkerTable.note_failure`) so the respawn races the retry deadline.

Observability: the router keeps its own registry under ``dpsc_router_*``
names (so tier-wide merges never double-count worker ``dpsc_*`` series) and
``/metrics`` scrapes every live worker's JSON snapshot, merging via
:func:`repro.obs.merge_snapshots` — counters sum, histograms bucket-merge,
gauges stay per-worker.  ``/healthz`` reports router-edge traffic counters
under the same keys as the single-process server — a relayed ``/query``,
``/batch`` or ``/mine`` counts once its worker answered 200 — which keeps
the load test's exact counter-delta checks meaningful for the whole tier.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import socket
import threading
import time
from http.server import ThreadingHTTPServer
from typing import Mapping
from urllib.parse import quote

from repro import faults
from repro.obs import MetricsRegistry, merge_snapshots
from repro.serving.cluster.workers import WorkerHandle, WorkerTable
from repro.serving.resilience import (
    DEADLINE_HEADER,
    AdmissionGate,
    CircuitBreaker,
    Deadline,
)
from repro.serving.server import PATTERNS_HEADER, JSONHandler

__all__ = ["Router", "RouterHTTPError", "create_router_server"]

#: one worker answer: status, body and response headers.
Answer = tuple[int, bytes, http.client.HTTPMessage]

_ENDPOINTS = ("query", "batch", "mine", "healthz")
#: the relayed endpoints whose 200 answers the router-edge counters count.
_COUNTED = ("query", "batch", "mine")
#: the only request headers a relay forwards.
RELAYED_HEADERS = ("Content-Type", "Accept", DEADLINE_HEADER)
#: request-target characters ``http.client`` sends as they are; a relay
#: percent-escapes any other byte of the client's target.
_TARGET_SAFE = "".join(map(chr, range(0x21, 0x7F)))
#: idle keep-alive connections the router keeps per worker; each holds a
#: worker handler thread, so a burst of concurrent forwards closes its
#: surplus instead of pooling it.
MAX_IDLE_PER_WORKER = 16
#: connection-level failures worth retrying on another worker; an HTTP
#: *error response* is not among them — that is the worker answering.
_RETRYABLE = (OSError, http.client.HTTPException)

#: what :meth:`Router.forward_any` retries: the connection-level failures
#: plus injected faults from the ``router.relay`` failpoint (whatever their
#: configured exception kind, they model a failed relay, not a bad request).
_RELAY_RETRYABLE = (*_RETRYABLE, faults.FaultInjected, faults.FaultDropConnection)

#: chaos-drill injection site: fires before each router -> worker HTTP
#: round-trip, so injected connection errors exercise the exact retry /
#: circuit-breaker path a crashed worker would.
_FP_RELAY = faults.failpoint(
    "router.relay", "Entry of every router -> worker HTTP round-trip."
)


class RouterHTTPError(Exception):
    """An error to relay to the client as a JSON ``{"error": ...}`` body.

    ``retry_after`` (fractional seconds) becomes a ``Retry-After`` response
    header — the router's hint to a resilient client about when a shed
    request is worth re-sending.
    """

    def __init__(
        self, status: int, message: str, *, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


class Router:
    """Relays tier traffic to the workers of a :class:`WorkerTable`; owns
    no releases."""

    def __init__(
        self,
        table: WorkerTable,
        *,
        worker_timeout: float = 60.0,
        retry_timeout: float = 15.0,
        retry_wait: float = 0.05,
        scrape_timeout: float = 5.0,
        max_inflight: int | None = 256,
        shed_retry_after: float = 0.25,
        breaker_threshold: int = 5,
        breaker_recovery: float = 1.0,
        breaker_probes: int = 1,
    ) -> None:
        self.table = table
        self.worker_timeout = worker_timeout
        self.retry_timeout = retry_timeout
        self.retry_wait = retry_wait
        self.scrape_timeout = scrape_timeout
        self.shed_retry_after = shed_retry_after
        self.breaker_threshold = breaker_threshold
        self.breaker_recovery = breaker_recovery
        self.breaker_probes = breaker_probes
        self.started_at = time.time()
        #: set by the supervisor once it exists; ``/admin/reload`` is a 503
        #: until then (a bare router has nothing to reload).
        self.reload_fn = None
        self.respawns_fn = lambda: 0
        self.metrics = MetricsRegistry()
        self._requests = {
            endpoint: self.metrics.counter(
                "dpsc_router_requests_total",
                "Requests accepted at the router, by endpoint.",
                {"endpoint": endpoint},
            )
            for endpoint in _ENDPOINTS
        }
        self._latency = {
            endpoint: self.metrics.histogram(
                "dpsc_router_request_seconds",
                "Router end-to-end request latency in seconds, by endpoint.",
                {"endpoint": endpoint},
            )
            for endpoint in _ENDPOINTS
        }
        self._batch_patterns = self.metrics.counter(
            "dpsc_router_batch_patterns_total",
            "Patterns accepted across all router /batch requests.",
        )
        self._retries = self.metrics.counter(
            "dpsc_router_retries_total",
            "Forward attempts that failed at the connection level and were retried.",
        )
        self._scrape_failures = self.metrics.counter(
            "dpsc_router_scrape_failures_total",
            "Worker /metrics scrapes that failed during aggregation.",
        )
        self._shed = self.metrics.counter(
            "dpsc_router_shed_total",
            "Requests refused with 503 + Retry-After by admission control.",
        )
        self._deadline_exceeded = self.metrics.counter(
            "dpsc_router_deadline_exceeded_total",
            "Requests refused or abandoned because their deadline expired.",
        )
        self._breaker_transitions = {
            state: self.metrics.counter(
                "dpsc_router_breaker_transitions_total",
                "Per-worker circuit-breaker state transitions, by new state.",
                {"to": state},
            )
            for state in (
                CircuitBreaker.CLOSED,
                CircuitBreaker.OPEN,
                CircuitBreaker.HALF_OPEN,
            )
        }
        #: one breaker per worker *port* (ports are unique per spawn, so a
        #: respawned worker always starts with a fresh closed breaker).
        self._breakers: dict[int, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._gate = AdmissionGate(max_inflight) if max_inflight else None
        if self._gate is not None:
            gate = self._gate
            self.metrics.gauge(
                "dpsc_router_inflight",
                "Requests currently admitted and in flight at the router.",
            ).set_function(lambda: float(gate.inflight))
        self.metrics.gauge(
            "dpsc_router_uptime_seconds", "Seconds since the router started."
        ).set_function(lambda: time.time() - self.started_at)
        self.metrics.gauge(
            "dpsc_router_workers_alive", "Live workers in the active generation."
        ).set_function(lambda: float(len(self.table.live())))
        self.metrics.gauge(
            "dpsc_router_generation", "Active worker generation number."
        ).set_function(lambda: float(self.table.generation))
        self.metrics.gauge(
            "dpsc_router_worker_respawns", "Workers respawned after crashes."
        ).set_function(lambda: float(self.respawns_fn()))
        self._rr = itertools.count()
        #: idle keep-alive connections to workers, by port; a forward takes
        #: one or opens one, so no two requests ever share a socket.
        self._idle: dict[int, list[http.client.HTTPConnection]] = {}
        self._idle_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    @property
    def default_release(self) -> str | None:
        versions = self.table.versions
        return sorted(versions)[0] if versions else None

    @staticmethod
    def _new_connection(port: int, timeout: float) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        conn.connect()
        # Nagle + the peer's delayed ACK costs ~40ms per request on a
        # reused keep-alive connection; queries are sub-millisecond.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _checkout(self, port: int) -> http.client.HTTPConnection:
        """An idle pooled connection to ``port``, or a new one.

        Before opening one, the idle connections to ports no longer in the
        worker table are closed: their workers were drained by a reload or
        replaced by a respawn, and nothing else would ever close them.
        """
        with self._idle_lock:
            idle = self._idle.get(port)
            if idle:
                return idle.pop()
            current = {worker.port for worker in self.table.workers()}
            stale = [self._idle.pop(p) for p in list(self._idle) if p not in current]
        for connections in stale:
            for conn in connections:
                conn.close()
        return self._new_connection(port, self.worker_timeout)

    def _checkin(self, port: int, conn: http.client.HTTPConnection) -> None:
        """Pool ``conn`` after a complete exchange, or close it when its
        worker has left the table or ``port`` already holds
        :data:`MAX_IDLE_PER_WORKER` idle connections (the surplus of a burst
        of concurrent forwards)."""
        if any(worker.port == port for worker in self.table.workers()):
            with self._idle_lock:
                idle = self._idle.setdefault(port, [])
                if len(idle) < MAX_IDLE_PER_WORKER:
                    idle.append(conn)
                    return
        conn.close()

    def forward(
        self,
        worker: WorkerHandle,
        method: str,
        path: str,
        body: bytes | None = None,
        *,
        pooled: bool = True,
        timeout: float | None = None,
        headers: dict[str, str] | None = None,
    ) -> Answer:
        """One HTTP round-trip to one worker; raises on connection failure.

        Pooled connections are keep-alive (workers speak HTTP/1.1) and go
        back to the pool only after a complete exchange, so concurrent
        forwards never contend on a socket.  Unpooled mode is for scrapes,
        which want a short timeout instead of the batch-sized one.
        ``headers`` go out on top of the ones ``http.client`` adds itself.
        """
        _FP_RELAY.hit()
        if pooled:
            conn = self._checkout(worker.port)
        else:
            conn = self._new_connection(
                worker.port, timeout or self.scrape_timeout
            )
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if pooled and not response.will_close:
            self._checkin(worker.port, conn)
        else:
            conn.close()
        return response.status, data, response.msg

    def _breaker(self, worker: WorkerHandle) -> CircuitBreaker:
        """The circuit breaker guarding one worker (keyed by port, so a
        respawned worker always starts with a fresh closed breaker)."""
        with self._breaker_lock:
            breaker = self._breakers.get(worker.port)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.breaker_threshold,
                    recovery_time=self.breaker_recovery,
                    half_open_max_probes=self.breaker_probes,
                    on_transition=lambda old, new: (
                        self._breaker_transitions[new].inc()
                    ),
                )
                self._breakers[worker.port] = breaker
                self.metrics.gauge(
                    "dpsc_router_breaker_state",
                    "Per-worker breaker state (0 closed, 1 half-open, 2 open).",
                    {"worker": worker.worker_id},
                ).set_function(lambda b=breaker: b.state_code)
            return breaker

    @contextlib.contextmanager
    def admission(self):
        """Admission control around one client request (load shedding).

        When more than ``max_inflight`` requests are already inside, the
        request is shed immediately with ``503 + Retry-After`` instead of
        queueing behind work the tier cannot absorb.
        """
        gate = self._gate
        if gate is None:
            yield
            return
        if not gate.try_enter():
            self._shed.inc()
            raise RouterHTTPError(
                503,
                f"router at capacity ({gate.limit} requests in flight)",
                retry_after=self.shed_retry_after,
            )
        try:
            yield
        finally:
            gate.leave()

    def forward_any(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        *,
        deadline: Deadline | None = None,
        headers: dict[str, str] | None = None,
    ) -> Answer:
        """Forward to some admitted live worker, retrying on failure.

        Safe because every endpoint is an idempotent read: re-executing a
        query on a second worker after the first died mid-response returns
        the same deterministic counts.  Candidates pass through their
        per-worker circuit breaker (an open breaker skips a worker that has
        recently failed repeatedly, instead of burning a timeout on it);
        worker 5xx responses count as breaker failures and are retried
        elsewhere, with the freshest 5xx relayed if retries run out.
        Blocks (bounded by ``retry_timeout``) while no worker is admitted,
        which is exactly the crash-respawn window — the supervisor races
        this deadline.  An expired request ``deadline`` stops the loop
        early with 504: nobody is waiting for the answer any more.
        """
        retry_deadline = time.monotonic() + self.retry_timeout
        tried: set[int] = set()
        last_error: Answer | None = None
        while True:
            if deadline is not None and deadline.expired():
                self._deadline_exceeded.inc()
                raise RouterHTTPError(
                    504, f"deadline expired while forwarding {method} {path}"
                )
            worker = None
            breaker = None
            workers = self.table.live()
            pool = [w for w in workers if w.port not in tried] or workers
            if pool:
                start = next(self._rr)
                for offset in range(len(pool)):
                    candidate = pool[(start + offset) % len(pool)]
                    candidate_breaker = self._breaker(candidate)
                    if candidate_breaker.try_acquire():
                        worker, breaker = candidate, candidate_breaker
                        break
            if worker is None:
                # nothing live, or every live worker's breaker is open
                if time.monotonic() >= retry_deadline:
                    if last_error is not None:
                        return last_error
                    raise RouterHTTPError(503, "no live workers to forward to")
                time.sleep(self.retry_wait)
                continue
            try:
                answer = self.forward(worker, method, path, body, headers=headers)
            except _RELAY_RETRYABLE:
                breaker.record_failure()
                tried.add(worker.port)
                self._retries.inc()
                self.table.note_failure(worker)
                if time.monotonic() >= retry_deadline:
                    if last_error is not None:
                        return last_error
                    raise RouterHTTPError(
                        503,
                        f"workers unavailable after retries on {method} {path}",
                    ) from None
                time.sleep(self.retry_wait)
                continue
            if answer[0] >= 500:
                # the worker answered, but with a server-side failure on an
                # idempotent read — count it against the breaker and retry
                # elsewhere; keep the freshest body in case retries run out.
                breaker.record_failure()
                last_error = answer
                tried.add(worker.port)
                self._retries.inc()
                if time.monotonic() >= retry_deadline:
                    return last_error
                time.sleep(self.retry_wait)
                continue
            breaker.record_success()
            return answer

    def relay(
        self, method: str, target: str, body: bytes | None, headers: Mapping[str, str]
    ) -> tuple[int, bytes, str]:
        """One client request, forwarded as received through
        :meth:`forward_any`: its status, body and ``Content-Type``.

        Only :data:`RELAYED_HEADERS` go along.  A ``/query``, ``/batch`` or
        ``/mine`` counts at the router edge once its worker answered 200.
        """
        if not (target.isascii() and target.isprintable()):
            # http.client refuses control and non-ASCII bytes in a target
            target = quote(target.encode("latin-1"), safe=_TARGET_SAFE)
        forwarded = {name: headers[name] for name in RELAYED_HEADERS if name in headers}
        started = time.perf_counter()
        with self.admission():
            status, data, reply = self.forward_any(
                method,
                target,
                body,
                deadline=Deadline.from_header(headers.get(DEADLINE_HEADER)),
                headers=forwarded,
            )
        endpoint = target.partition("?")[0][1:]
        if status == 200 and endpoint in _COUNTED:
            self._requests[endpoint].inc()
            self._latency[endpoint].observe(time.perf_counter() - started)
            if endpoint == "batch":
                self._batch_patterns.inc(int(reply.get(PATTERNS_HEADER, 0)))
        return status, data, reply.get("Content-Type", "application/json")

    def health(self) -> dict:
        self._requests["healthz"].inc()
        with self._latency["healthz"].time():
            workers = self.table.workers()
            live = [worker for worker in workers if worker.is_alive()]
            return {
                "status": "ok" if workers and len(live) == len(workers) else "degraded",
                "role": "router",
                "uptime_seconds": time.time() - self.started_at,
                "releases": sorted(self.table.versions),
                "default_release": self.default_release,
                # Router-edge traffic counters under the single-process
                # keys: the load test's exact delta checks stay valid for
                # the tier even across worker crashes and reloads (worker
                # counters die with the worker; these do not).
                "queries": int(self._requests["query"].value),
                "batches": int(self._requests["batch"].value),
                "batch_patterns": int(self._batch_patterns.value),
                "mines": int(self._requests["mine"].value),
                "retries": int(self._retries.value),
                "sheds": int(self._shed.value),
                "deadline_exceeded": int(self._deadline_exceeded.value),
                "workers": {
                    "total": len(workers),
                    "alive": len(live),
                    "generation": self.table.generation,
                    "respawns": int(self.respawns_fn()),
                    "versions": dict(self.table.versions),
                    "members": [
                        {
                            "id": worker.worker_id,
                            "generation": worker.generation,
                            "port": worker.port,
                            "pid": worker.pid,
                            "alive": worker.is_alive(),
                        }
                        for worker in workers
                    ],
                },
            }

    def merged_snapshot(self) -> dict:
        """Router registry + every live worker's, merged tier-wide."""
        sources = [("router", self.metrics.snapshot())]
        for worker in self.table.live():
            try:
                status, body, _ = self.forward(
                    worker, "GET", "/metrics?format=json", pooled=False
                )
                if status != 200:
                    raise ValueError(f"scrape returned HTTP {status}")
                sources.append((worker.worker_id, json.loads(body.decode("utf-8"))))
            except (*_RETRYABLE, ValueError, UnicodeDecodeError):
                self._scrape_failures.inc()
        return merge_snapshots(sources, label="worker")

    def close(self) -> None:
        with self._idle_lock:
            idle, self._idle = self._idle, {}
        for connections in idle.values():
            for conn in connections:
                conn.close()


class _RouterHandler(JSONHandler):
    """Answers ``GET /healthz``, ``GET /metrics`` and ``POST /admin/reload``
    itself and relays everything else through :meth:`Router.relay`."""

    server_version = "repro-dpsc-router"

    @property
    def router(self) -> Router:
        return self.server.router  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._handle(None)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        body = self._read_body()
        if body is not None:
            self._handle(body)

    def _handle(self, body: bytes | None) -> None:
        path, _, query = self.path.partition("?")
        router = self.router
        try:
            if body is None and path == "/healthz":
                self._respond(router.health())
            elif body is None and path == "/metrics":
                self._metrics(query, router.merged_snapshot)
            elif body is not None and path == "/admin/reload":
                if router.reload_fn is None:
                    self._error("reload is not available", 503)
                else:
                    self._respond(router.reload_fn())
            else:
                self._send(*router.relay(self.command, self.path, body, self.headers))
        except RouterHTTPError as error:
            retry = error.retry_after
            self._error(
                error.message,
                error.status,
                None if retry is None else {"Retry-After": f"{retry:g}"},
            )
        except Exception as error:  # noqa: BLE001 - JSON 500, not a raw traceback
            self._error(f"internal error: {error}", 500)


def create_router_server(
    router: Router,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """A ready-to-run public-port server bound to ``host:port`` (port 0
    picks a free port; read it back from ``server.server_address``)."""
    server = ThreadingHTTPServer((host, port), _RouterHandler)
    server.router = router  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server
