"""The public-port router of the multi-process serving tier.

One thread-per-connection server, speaking the HTTP/1.1 subset of
:mod:`repro.serving.wire`, that owns no release data at all: every count
comes from a worker, and the router decides only which worker answers.  It
relays every request except ``GET /healthz``, ``GET /metrics`` and
``POST /admin/reload`` to one worker as received — method, path with query
string, body, and only the ``Content-Type``, ``Accept`` and
``X-DPSC-Deadline`` headers — and writes back the worker's status,
``Content-Type``, ``X-DPSC-Patterns`` and body unchanged.  Workers run the
exact single-process handler code, so every relayed answer, JSON or raw
float64, success or error, is the single-process answer by construction.
Nothing on the relay path parses a body: a ``/batch`` counts its patterns
from the worker's ``X-DPSC-Patterns`` answer header.

Worker connections are keep-alive :class:`wire.Connection` objects and
pooled: a forward takes an idle connection to its worker or opens one, and
hands it back afterwards.  The pool keeps at most
:data:`MAX_IDLE_PER_WORKER` idle connections per worker, each of which
holds a worker handler thread, and none to workers that have left the
table (hot reload, respawn): those would otherwise sit in
``CLOSE_WAIT`` for the router's lifetime.

Failure policy: every endpoint is an idempotent read (queries are
post-processing; the only server-side state is counters), so any live
worker answers a request bit-identically, and "try another worker" is
the whole rule (:meth:`Router.forward_any`).  A request that failed on a
worker — a connection failure or a 5xx answer — goes at once to the next
worker it has not failed on, and waits :data:`RETRY_WAIT` only once
every worker has failed it, until :data:`RETRY_TIMEOUT`.  The relay never
polls a worker's process: the supervisor's monitor does.  A
``kill -9`` mid-batch costs latency, never a lost or wrong answer.
Connection failures also wake the supervisor immediately
(:meth:`WorkerTable.note_failure`) so the respawn races the retry deadline,
and so does a worker's ``FAILED_ANSWERS_LIMIT``-th 500 answer in a row
(:meth:`WorkerHandle.note_answer`): the monitor replaces a worker whose
query handler fails every request.

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
import itertools
import json
import threading
import time
from typing import Mapping
from urllib.parse import quote

from repro import faults
from repro.obs import MetricsRegistry, merge_snapshots
from repro.serving import wire
from repro.serving.cluster.workers import WorkerHandle, WorkerTable
from repro.serving.resilience import DEADLINE_HEADER, AdmissionGate, Deadline
from repro.serving.server import PATTERNS_HEADER, JSONHandler

__all__ = ["Router", "RouterHTTPError", "create_router_server"]

#: one worker answer: status, body and response headers (lowercased names).
Answer = tuple[int, bytes, dict[str, str]]

_ENDPOINTS = ("query", "batch", "mine", "healthz")
#: the relayed endpoints whose 200 answers the router-edge counters count.
_COUNTED = ("query", "batch", "mine")
#: the only request headers a relay forwards.
RELAYED_HEADERS = ("Content-Type", "Accept", DEADLINE_HEADER)
_DEADLINE = DEADLINE_HEADER.lower()
_PATTERNS = PATTERNS_HEADER.lower()
#: request-target characters a relay sends as they are; it percent-escapes
#: any other byte of the client's target.
_TARGET_SAFE = "".join(map(chr, range(0x21, 0x7F)))
#: idle keep-alive connections the router keeps per worker; each holds a
#: worker handler thread, so a burst of concurrent forwards closes its
#: surplus instead of pooling it.
MAX_IDLE_PER_WORKER = 16
#: how long one request keeps looking for a worker that answers it;
#: the supervisor's respawn of a crashed worker races this.
RETRY_TIMEOUT = 15.0
#: the pause after every worker has failed one request, before it
#: tries them all again.
RETRY_WAIT = 0.05
#: the socket timeout of a relayed round trip (a large ``/batch`` included).
WORKER_TIMEOUT = 60.0
#: the socket timeout of one worker's ``/metrics`` scrape.
SCRAPE_TIMEOUT = 5.0
#: requests in flight at the router past which it sheds with 503.
MAX_INFLIGHT = 256
#: the ``Retry-After`` of a shed request, in seconds.
SHED_RETRY_AFTER = 0.25
#: connection-level failures worth retrying on another worker; an HTTP
#: *error response* is not among them — that is the worker answering.
_RETRYABLE = (OSError, wire.ProtocolError)

#: what :meth:`Router.forward_any` retries: the connection-level failures
#: plus injected faults from the ``router.relay`` failpoint (whatever their
#: configured exception kind, they model a failed relay, not a bad request).
_RELAY_RETRYABLE = (*_RETRYABLE, faults.FaultInjected, faults.FaultDropConnection)

#: chaos-drill injection site: fires before each router -> worker HTTP
#: round-trip, so injected connection errors exercise the exact retry path
#: a crashed worker would.
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

    def __init__(self, table: WorkerTable) -> None:
        self.table = table
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
            "Forward attempts that failed: a connection failure or a 5xx answer.",
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
        self._gate = gate = AdmissionGate(MAX_INFLIGHT)
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
        self._idle: dict[int, list[wire.Connection]] = {}
        self._idle_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    @property
    def default_release(self) -> str | None:
        versions = self.table.versions
        return sorted(versions)[0] if versions else None

    def _checkout(self, port: int) -> wire.Connection:
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
        return wire.Connection("127.0.0.1", port, WORKER_TIMEOUT)

    def _checkin(self, port: int, conn: wire.Connection) -> None:
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
        headers: dict[str, str] | None = None,
    ) -> Answer:
        """One HTTP round-trip to one worker; raises on connection failure.

        Pooled connections are keep-alive (workers speak HTTP/1.1) and go
        back to the pool only after a complete exchange, so concurrent
        forwards never contend on a socket.  Unpooled mode is for scrapes,
        which want :data:`SCRAPE_TIMEOUT` instead of the batch-sized one.
        ``headers`` go out after ``Host``, and ``Content-Length`` after them.
        """
        _FP_RELAY.hit()
        if pooled:
            conn = self._checkout(worker.port)
        else:
            conn = wire.Connection("127.0.0.1", worker.port, SCRAPE_TIMEOUT)
        try:
            status, reply, data = conn.request(method, path, body, headers)
        except BaseException:
            conn.close()
            raise
        if pooled and not conn.will_close:
            self._checkin(worker.port, conn)
        else:
            conn.close()
        return status, data, reply

    @contextlib.contextmanager
    def admission(self):
        """Admission control around one client request (load shedding).

        When :data:`MAX_INFLIGHT` requests are already inside, the request
        is shed immediately with ``503 + Retry-After`` instead of queueing
        behind work the tier cannot absorb.
        """
        gate = self._gate
        if not gate.try_enter():
            self._shed.inc()
            raise RouterHTTPError(
                503,
                f"router at capacity ({gate.limit} requests in flight)",
                retry_after=SHED_RETRY_AFTER,
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
        """Forward to some worker of the table, retrying on failure.

        Safe because every endpoint is an idempotent read: re-executing a
        query on a second worker after the first died mid-response returns
        the same deterministic counts.  One rule: the round-robin start is
        drawn once per request, and after a failed attempt (a connection
        failure or a 5xx answer) the next one goes at once to the next
        worker this request has not failed on.  Only once every worker has
        failed it does the request wait :data:`RETRY_WAIT` and go round
        them all again, until :data:`RETRY_TIMEOUT`; the freshest 5xx is
        relayed if that runs out.  So one failing worker costs a request at
        most one extra round trip, and a request keeps waiting through the
        crash-respawn window the supervisor races.  No attempt asks a
        worker's process whether it is alive: the supervisor's monitor
        polls processes, and a dead worker stays in the table until the
        monitor replaces it, costing a request that draws it that one
        failed attempt (its port refuses the connection).  An expired
        request ``deadline`` stops the loop early with 504: nobody is
        waiting for the answer any more.
        """
        give_up = time.monotonic() + RETRY_TIMEOUT
        start = next(self._rr)
        failed: set[int] = set()
        last_error: Answer | None = None
        while True:
            if deadline is not None and deadline.expired():
                self._deadline_exceeded.inc()
                raise RouterHTTPError(
                    504, f"deadline expired while forwarding {method} {path}"
                )
            workers = self.table.workers()
            ring = [workers[(start + i) % len(workers)] for i in range(len(workers))]
            worker = next((w for w in ring if w.port not in failed), None)
            if worker is None:
                # no worker, or every worker failed this request
                if time.monotonic() >= give_up:
                    if last_error is not None:
                        return last_error
                    raise RouterHTTPError(503, f"no live worker answered {method} {path}")
                time.sleep(RETRY_WAIT)
                failed.clear()
                continue
            try:
                answer = self.forward(worker, method, path, body, headers=headers)
            except _RELAY_RETRYABLE:
                self.table.note_failure(worker)
            else:
                if worker.note_answer(answer[0]):
                    self.table.note_failure(worker)  # the monitor replaces it
                if answer[0] < 500:
                    return answer
                last_error = answer
            failed.add(worker.port)
            self._retries.inc()

    def relay(
        self, method: str, target: str, body: bytes | None, headers: Mapping[str, str]
    ) -> tuple[int, bytes, str, dict[str, str] | None]:
        """One client request, forwarded as received through
        :meth:`forward_any`: its status, body, ``Content-Type`` and, on a
        ``/batch`` answer, the ``X-DPSC-Patterns`` header.

        ``headers`` names are lowercased, as :func:`wire.read_headers`
        returns them.  Only :data:`RELAYED_HEADERS` go along.  A ``/query``,
        ``/batch`` or ``/mine`` counts at the router edge once its worker
        answered 200.
        """
        if not (target.isascii() and target.isprintable()):
            # a control byte must not reach the worker's request line, where
            # a CR or LF would end it early and a space would split it
            target = quote(target.encode("latin-1"), safe=_TARGET_SAFE)
        forwarded = {
            name: headers[name.lower()]
            for name in RELAYED_HEADERS
            if name.lower() in headers
        }
        started = time.perf_counter()
        with self.admission():
            status, data, reply = self.forward_any(
                method,
                target,
                body,
                deadline=Deadline.from_header(headers.get(_DEADLINE)),
                headers=forwarded,
            )
        endpoint = target.partition("?")[0][1:]
        patterns = reply.get(_PATTERNS)
        if status == 200 and endpoint in _COUNTED:
            self._requests[endpoint].inc()
            self._latency[endpoint].observe(time.perf_counter() - started)
            if endpoint == "batch":
                self._batch_patterns.inc(int(patterns or 0))
        return (
            status,
            data,
            reply.get("content-type", "application/json"),
            None if patterns is None else {PATTERNS_HEADER: patterns},
        )

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

    def do_GET(self) -> None:  # noqa: N802 - the handler's method names
        self._handle(None)

    def do_POST(self) -> None:  # noqa: N802 - the handler's method names
        self._handle(self.body)

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
    router: Router, host: str = "127.0.0.1", port: int = 0
) -> wire.Server:
    """A ready-to-run public-port server bound to ``host:port`` (port 0
    picks a free port; read it back from ``server.server_address``)."""
    server = wire.Server((host, port), _RouterHandler)
    server.router = router  # type: ignore[attr-defined]
    return server
