"""The public-port router of the sharded serving tier.

One ``ThreadingHTTPServer`` that owns no release data at all: every count
comes from a worker.  Three request paths, ordered by how much the router
has to understand the bytes flowing through it:

* **passthrough** — ``/mine``, ``/releases`` and non-split ``/batch``
  requests are forwarded as the original raw bytes (with the client's
  ``Accept`` on ``/batch``) to one worker, and the worker's status,
  ``Content-Type`` and body are relayed verbatim.  Workers run the exact
  single-process handler code, so passthrough replies are bit-identical to
  the single-process server by construction.
* **split** — a uniform-length ``/batch`` of at least ``split_min_patterns``
  patterns is sharded across the live workers by a *stable hash of the
  pattern index* (:func:`shard_of` — deterministic across runs and
  processes, unlike ``hash()`` under ``PYTHONHASHSEED``), the sub-batches
  run concurrently, and the counts are scattered back into request order.
  Sub-batches always ask workers for raw float64
  (:data:`~repro.serving.server.F64_MEDIA_TYPE`) and the router answers in
  the client's format, so it never writes or parses a float repr: a JSON
  answer is byte-identical to the single-process one for the same request,
  an f64 answer bit-identical.
* **micro-batch** — concurrent single ``/query`` requests coalesce in a
  router-side batcher (same eager-flush design as the in-process
  :class:`~repro.serving.server.MicroBatcher`) and ride one worker
  ``/batch`` call, answered in raw float64, instead of N worker
  round-trips.

Worker connections are keep-alive and pooled: a forward takes an idle
connection to its worker or opens one, and hands it back afterwards.  The
pool keeps at most ``split_threads`` idle connections per worker, each of
which holds a worker handler thread, and none to workers that have left the
table (hot reload, respawn): those would otherwise sit in ``CLOSE_WAIT`` for
the router's lifetime.

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
under the same keys as the single-process server, which keeps the load
test's exact counter-delta checks meaningful for the whole tier.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro import faults
from repro.obs import MetricsRegistry, log_buckets, merge_snapshots, render_snapshot
from repro.serving.cluster.workers import WorkerHandle, WorkerTable
from repro.serving.resilience import (
    DEADLINE_HEADER,
    AdmissionGate,
    CircuitBreaker,
    Deadline,
)
from repro.serving.server import (
    BAD_CONTENT_LENGTH,
    F64_MEDIA_TYPE,
    content_length,
    decode_f64,
    encode_f64,
    names_f64,
)

__all__ = ["Router", "RouterHTTPError", "create_router_server", "shard_of"]

#: one worker (or router) answer: status, body and ``Content-Type``.
Answer = tuple[int, bytes, str]

_ENDPOINTS = ("query", "batch", "mine", "healthz")
_FLUSH_SIZE_BUCKETS = log_buckets(1.0, 512.0, 2.0)
#: connection-level failures worth retrying on another worker; an HTTP
#: *error response* is not among them — that is the worker answering.
_RETRYABLE = (OSError, http.client.HTTPException)

#: what :meth:`Router.forward_any` retries: the connection-level failures
#: plus injected faults from the ``router.relay`` failpoint (whatever their
#: configured exception kind, they model a failed relay, not a bad request).
_RELAY_RETRYABLE = (*_RETRYABLE, faults.FaultInjected, faults.FaultDropConnection)

#: Knuth's multiplicative constant (2^32 / phi); see :func:`shard_of`.
_HASH_MULTIPLIER = 2654435761

#: chaos-drill injection site: fires before each router -> worker HTTP
#: round-trip, so injected connection errors exercise the exact retry /
#: circuit-breaker path a crashed worker would.
_FP_RELAY = faults.failpoint(
    "router.relay", "Entry of every router -> worker HTTP round-trip."
)


def shard_of(index, shards: int):
    """Stable shard for a pattern index (an ``int``, or a ``uint64`` array
    of indices, shard by shard the same).

    A multiplicative hash rather than ``index % shards`` so shard loads stay
    balanced under any access pattern, and rather than ``hash()`` so the
    assignment is identical across processes and runs (``PYTHONHASHSEED``
    randomizes ``str`` hashes, and determinism here is part of the replay
    story).  Only the low 32 bits of the product are kept, so ``uint64``
    wraparound does not change them.
    """
    return ((index * _HASH_MULTIPLIER) & 0xFFFFFFFF) % shards


def _error_message(body: bytes, status: int) -> str:
    """The worker's JSON error text, or a fallback for unparseable bodies."""
    try:
        message = json.loads(body.decode("utf-8")).get("error")
    except (ValueError, UnicodeDecodeError, AttributeError):
        message = None
    return message if isinstance(message, str) else f"upstream error (HTTP {status})"


def _worker_counts(answer: Answer, patterns: int) -> np.ndarray:
    """The counts of a worker's 200 raw float64 ``/batch`` answer to
    ``patterns`` patterns; a 502 when it is anything else."""
    _, body, content_type = answer
    if not names_f64(content_type):
        raise RouterHTTPError(502, f"worker answered /batch without {F64_MEDIA_TYPE}")
    try:
        return decode_f64(body, patterns)
    except ValueError as error:
        raise RouterHTTPError(502, f"worker answered /batch with {error}") from None


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


class _PendingRouted:
    """One single-pattern query waiting for a router micro-batch flush."""

    __slots__ = ("pattern", "release", "event", "result", "error")

    def __init__(self, pattern: str, release: str | None) -> None:
        self.pattern = pattern
        self.release = release
        self.event = threading.Event()
        self.result: float = 0.0
        self.error: Exception | None = None


class RouterBatcher:
    """Micro-batches straggler ``/query`` traffic into worker ``/batch`` calls.

    The in-process :class:`~repro.serving.server.MicroBatcher` design with
    the flush retargeted at the tier: eager flushing (a lone request pays no
    artificial wait), coalescing under concurrency, grouped by release.  One
    flush is one worker round-trip regardless of how many clients piled up.
    """

    def __init__(
        self,
        router: "Router",
        *,
        max_batch: int = 256,
        max_wait: float = 0.002,
    ) -> None:
        self._router = router
        self._max_batch = max_batch
        self._max_wait = max_wait
        self._queue: list[_PendingRouted] = []
        self._condition = threading.Condition()
        self._closed = False
        metrics = router.metrics
        self._flushes = metrics.counter(
            "dpsc_router_microbatch_flushes_total",
            "Router micro-batch flushes executed.",
        )
        self._flushed_requests = metrics.counter(
            "dpsc_router_microbatch_requests_total",
            "Single queries answered through router micro-batch flushes.",
        )
        self._flush_size = metrics.histogram(
            "dpsc_router_microbatch_flush_size",
            "Requests coalesced per router micro-batch flush.",
            buckets=_FLUSH_SIZE_BUCKETS,
        )
        self._worker = threading.Thread(
            target=self._run, name="repro-router-microbatcher", daemon=True
        )
        self._worker.start()

    @property
    def batches_flushed(self) -> int:
        return int(self._flushes.value)

    @property
    def requests_batched(self) -> int:
        return int(self._flushed_requests.value)

    def submit(self, pattern: str, release: str | None) -> float:
        pending = _PendingRouted(pattern, release)
        with self._condition:
            if self._closed:
                raise RouterHTTPError(503, "router is shutting down")
            self._queue.append(pending)
            self._condition.notify()
        pending.event.wait()
        if pending.error is not None:
            raise pending.error
        return pending.result

    def close(self) -> None:
        with self._condition:
            self._closed = True
            self._condition.notify_all()
        self._worker.join(timeout=5.0)

    def _run(self) -> None:
        while True:
            with self._condition:
                while not self._queue and not self._closed:
                    self._condition.wait(timeout=self._max_wait)
                if self._closed and not self._queue:
                    return
                batch = self._queue[: self._max_batch]
                del self._queue[: len(batch)]
            if batch:
                self._flush(batch)

    def _flush(self, batch: list[_PendingRouted]) -> None:
        self._flushes.inc()
        self._flushed_requests.inc(len(batch))
        self._flush_size.observe(float(len(batch)))
        by_release: dict[str | None, list[_PendingRouted]] = {}
        for pending in batch:
            by_release.setdefault(pending.release, []).append(pending)
        for release, group in by_release.items():
            payload: dict = {"patterns": [pending.pattern for pending in group]}
            if release is not None:
                payload["release"] = release
            try:
                answer = self._router.forward_any(
                    "POST",
                    "/batch",
                    json.dumps(payload).encode("utf-8"),
                    headers={"Accept": F64_MEDIA_TYPE},
                )
                status, body, _ = answer
                if status != 200:
                    raise RouterHTTPError(status, _error_message(body, status))
                counts = _worker_counts(answer, len(group)).tolist()
                for pending, count in zip(group, counts):
                    pending.result = count
            except Exception as error:  # propagate to every waiter
                for pending in group:
                    pending.error = error
            finally:
                for pending in group:
                    pending.event.set()


class Router:
    """Shards tier traffic over a :class:`WorkerTable`; owns no releases."""

    def __init__(
        self,
        table: WorkerTable,
        *,
        micro_batch: bool = True,
        max_batch: int = 256,
        max_wait: float = 0.002,
        split_min_patterns: int = 512,
        worker_timeout: float = 60.0,
        retry_timeout: float = 15.0,
        retry_wait: float = 0.05,
        scrape_timeout: float = 5.0,
        split_threads: int = 16,
        max_inflight: int | None = 256,
        shed_retry_after: float = 0.25,
        breaker_threshold: int = 5,
        breaker_recovery: float = 1.0,
        breaker_probes: int = 1,
    ) -> None:
        self.table = table
        self.split_min_patterns = split_min_patterns
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
        self._split_batches = self.metrics.counter(
            "dpsc_router_split_batches_total",
            "Batches sharded across workers by pattern-index hash.",
        )
        self._split_subrequests = self.metrics.counter(
            "dpsc_router_split_subrequests_total",
            "Worker sub-requests issued by the batch splitter.",
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
        #: idle connections kept per worker (each holds a worker handler
        #: thread); a burst of more concurrent forwards closes its surplus.
        self._idle_cap = split_threads
        self._executor = ThreadPoolExecutor(
            max_workers=split_threads, thread_name_prefix="repro-router-shard"
        )
        self._batcher = (
            RouterBatcher(self, max_batch=max_batch, max_wait=max_wait)
            if micro_batch
            else None
        )

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
        worker has left the table or ``port`` already holds ``_idle_cap``
        idle connections (the surplus of a burst of concurrent forwards)."""
        if any(worker.port == port for worker in self.table.workers()):
            with self._idle_lock:
                idle = self._idle.setdefault(port, [])
                if len(idle) < self._idle_cap:
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
        ``headers`` rides on top of the defaults (deadline propagation and
        ``Accept`` use it).
        """
        _FP_RELAY.hit()
        if pooled:
            conn = self._checkout(worker.port)
        else:
            conn = self._new_connection(
                worker.port, timeout or self.scrape_timeout
            )
        try:
            send_headers = (
                {"Content-Type": "application/json"} if body is not None else {}
            )
            if headers:
                send_headers.update(headers)
            conn.request(method, path, body=body, headers=send_headers)
            response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if pooled and not response.will_close:
            self._checkin(worker.port, conn)
        else:
            conn.close()
        return response.status, data, response.getheader("Content-Type", "application/json")

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

    @staticmethod
    def _worker_headers(
        deadline: Deadline | None, accept: str | None = None
    ) -> dict[str, str]:
        headers = {} if deadline is None else {DEADLINE_HEADER: deadline.header_value()}
        if accept is not None:
            headers["Accept"] = accept
        return headers

    def forward_any(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        *,
        preferred: WorkerHandle | None = None,
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
        use_preferred = preferred is not None
        while True:
            if deadline is not None and deadline.expired():
                self._deadline_exceeded.inc()
                raise RouterHTTPError(
                    504, f"deadline expired while forwarding {method} {path}"
                )
            worker = None
            breaker = None
            if use_preferred and preferred.is_alive():
                candidate_breaker = self._breaker(preferred)
                if candidate_breaker.try_acquire():
                    worker, breaker = preferred, candidate_breaker
            use_preferred = False
            if worker is None:
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

    # ------------------------------------------------------------------
    # Endpoint logic (the handler below is a thin shim over these)
    # ------------------------------------------------------------------
    def route_query(
        self, pattern: str, release: str | None, deadline: Deadline | None = None
    ) -> float:
        self._requests["query"].inc()
        with self._latency["query"].time():
            if self._batcher is not None:
                # coalesced queries share a flush; the flush carries no
                # single request's deadline (workers answer micro-batches
                # in well under any sane per-request budget).
                return self._batcher.submit(pattern, release)
            payload: dict = {"pattern": pattern}
            if release is not None:
                payload["release"] = release
            status, body, _ = self.forward_any(
                "POST",
                "/query",
                json.dumps(payload).encode("utf-8"),
                deadline=deadline,
                headers=self._worker_headers(deadline),
            )
            if status != 200:
                raise RouterHTTPError(status, _error_message(body, status))
            return float(json.loads(body.decode("utf-8"))["count"])

    def route_batch(
        self,
        raw: bytes,
        payload: dict,
        patterns: list[str],
        release: str | None,
        deadline: Deadline | None = None,
        accept: str | None = None,
    ) -> Answer:
        """Dispatch one validated ``/batch`` whose client sent ``Accept:
        accept``: split when profitable, else forward the original bytes
        untouched."""
        self._requests["batch"].inc()
        self._batch_patterns.inc(len(patterns))
        with self._latency["batch"].time():
            live = self.table.live()
            splittable = (
                len(live) > 1
                and len(patterns) >= self.split_min_patterns
                # uniform q-gram traffic: one pattern length across the batch
                and len({len(p) for p in patterns}) == 1
                # unknown extra keys must survive verbatim -> passthrough
                and set(payload) <= {"patterns", "release"}
            )
            if not splittable:
                return self.forward_any(
                    "POST",
                    "/batch",
                    raw,
                    deadline=deadline,
                    headers=self._worker_headers(deadline, accept),
                )
            return self._split_batch(
                live, patterns, release, deadline, names_f64(accept)
            )

    def _split_batch(
        self,
        live: list[WorkerHandle],
        patterns: list[str],
        release: str | None,
        deadline: Deadline | None,
        f64: bool,
    ) -> Answer:
        shards = len(live)
        assignment = shard_of(np.arange(len(patterns), dtype=np.uint64), shards)
        headers = self._worker_headers(deadline, F64_MEDIA_TYPE)
        futures = []
        for shard_index in range(shards):
            members = np.flatnonzero(assignment == shard_index)
            if not len(members):
                continue
            sub: dict = {"patterns": [patterns[index] for index in members.tolist()]}
            if release is not None:
                sub["release"] = release
            futures.append(
                (
                    members,
                    self._executor.submit(
                        self.forward_any,
                        "POST",
                        "/batch",
                        json.dumps(sub).encode("utf-8"),
                        preferred=live[shard_index],
                        deadline=deadline,
                        headers=headers,
                    ),
                )
            )
        self._split_batches.inc()
        self._split_subrequests.inc(len(futures))
        counts = np.empty(len(patterns), dtype="<f8")
        relay: Answer | None = None
        # every future is joined, so no shard outlives the request; the
        # first failure is relayed (an upstream error body verbatim)
        for members, future in futures:
            try:
                answer = future.result()
                if answer[0] != 200:
                    relay = relay or answer
                    continue
                counts[members] = _worker_counts(answer, len(members))
            except RouterHTTPError as error:
                relay = relay or (
                    error.status,
                    json.dumps({"error": error.message}).encode("utf-8"),
                    "application/json",
                )
        if relay is not None:
            return relay
        if f64:
            return 200, encode_f64(counts), F64_MEDIA_TYPE
        body = json.dumps(
            {"release": release or self.default_release, "counts": counts.tolist()}
        )
        return 200, body.encode("utf-8"), "application/json"

    def route_mine(self, raw: bytes, deadline: Deadline | None = None) -> Answer:
        self._requests["mine"].inc()
        with self._latency["mine"].time():
            return self.forward_any(
                "POST",
                "/mine",
                raw,
                deadline=deadline,
                headers=self._worker_headers(deadline),
            )

    def route_releases(self) -> Answer:
        return self.forward_any("GET", "/releases")

    def health(self) -> dict:
        self._requests["healthz"].inc()
        with self._latency["healthz"].time():
            workers = self.table.workers()
            live = [worker for worker in workers if worker.is_alive()]
            payload = {
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
                "split_batches": int(self._split_batches.value),
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
            if self._batcher is not None:
                payload["micro_batches_flushed"] = self._batcher.batches_flushed
                payload["micro_batched_requests"] = self._batcher.requests_batched
            return payload

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

    def render_metrics(self) -> str:
        return render_snapshot(self.merged_snapshot())

    def close(self) -> None:
        if self._batcher is not None:
            self._batcher.close()
            self._batcher = None
        self._executor.shutdown(wait=False)
        with self._idle_lock:
            idle, self._idle = self._idle, {}
        for connections in idle.values():
            for conn in connections:
                conn.close()


class _RouterHandler(BaseHTTPRequestHandler):
    """Thin JSON shim over :class:`Router` — endpoint surface and error
    texts mirror the single-process handler so clients cannot tell the
    tiers apart (the parity tests assert this)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-dpsc-router"
    #: same rationale as the worker handler: keep-alive + Nagle + delayed
    #: ACK turns two-write responses into ~40ms stalls.
    disable_nagle_algorithm = True

    @property
    def router(self) -> Router:
        return self.server.router  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - BaseHTTPRequestHandler API
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def _respond(self, payload: dict, status: int = 200) -> None:
        self._respond_raw((status, json.dumps(payload).encode("utf-8"), "application/json"))

    def _respond_raw(self, answer: Answer) -> None:
        status, body, content_type = answer
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self,
        message: str,
        status: int,
        retry_after: float | None = None,
        *,
        close: bool = False,
    ) -> None:
        body = json.dumps({"error": message}).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:g}")
        if close:  # also ends this handler's keep-alive loop
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _request_deadline(self):
        """The request's :class:`Deadline` (or ``None``); raises 504 when it
        already expired — no point routing work nobody is waiting for."""
        deadline = Deadline.from_header(self.headers.get(DEADLINE_HEADER))
        if deadline is not None and deadline.expired():
            self.router._deadline_exceeded.inc()
            raise RouterHTTPError(
                504, "request deadline expired before routing began"
            )
        return deadline

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/healthz":
                self._respond(self.router.health())
            elif parsed.path == "/metrics":
                query = parse_qs(parsed.query)
                if query.get("format", [""])[0] == "json":
                    self._respond(self.router.merged_snapshot())
                else:
                    body = self.router.render_metrics().encode("utf-8")
                    self.send_response(200)
                    self.send_header(
                        "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                    )
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
            elif parsed.path == "/releases":
                self._respond_raw(self.router.route_releases())
            elif parsed.path == "/query":
                deadline = self._request_deadline()
                query = parse_qs(parsed.query)
                pattern = query.get("pattern", [""])[0]
                release = query.get("release", [None])[0]
                with self.router.admission():
                    count = self.router.route_query(pattern, release, deadline)
                self._respond(
                    {
                        "pattern": pattern,
                        "release": release or self.router.default_release,
                        "count": count,
                    }
                )
            else:
                self._error(f"unknown path {parsed.path!r}", 404)
        except RouterHTTPError as error:
            self._error(error.message, error.status, error.retry_after)
        except Exception as error:  # noqa: BLE001 - JSON 500, not a raw traceback
            self._error(f"internal error: {error}", 500)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        length = content_length(self.headers)
        if length is None:
            self._error(BAD_CONTENT_LENGTH, 400, close=True)
            return
        raw = self.rfile.read(length) if length else b""
        try:
            if self.path == "/mine":
                # Validation happens at the worker (identical handler code),
                # so error bodies relay verbatim without a router-side parse.
                deadline = self._request_deadline()
                with self.router.admission():
                    answer = self.router.route_mine(raw, deadline)
                self._respond_raw(answer)
                return
            if self.path == "/admin/reload":
                reload_fn = self.router.reload_fn
                if reload_fn is None:
                    self._error("reload is not available", 503)
                else:
                    self._respond(reload_fn())
                return
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (ValueError, UnicodeDecodeError):
                self._error("request body is not valid JSON", 400)
                return
            if not isinstance(payload, dict):
                self._error("request body must be a JSON object", 400)
                return
            release = payload.get("release")
            if self.path == "/query":
                pattern = payload.get("pattern")
                if not isinstance(pattern, str):
                    self._error("'pattern' must be a string", 400)
                    return
                deadline = self._request_deadline()
                with self.router.admission():
                    count = self.router.route_query(pattern, release, deadline)
                self._respond(
                    {
                        "pattern": pattern,
                        "release": release or self.router.default_release,
                        "count": count,
                    }
                )
            elif self.path == "/batch":
                patterns = payload.get("patterns")
                if not isinstance(patterns, list) or not all(
                    isinstance(p, str) for p in patterns
                ):
                    self._error("'patterns' must be a list of strings", 400)
                    return
                deadline = self._request_deadline()
                with self.router.admission():
                    answer = self.router.route_batch(
                        raw,
                        payload,
                        patterns,
                        release,
                        deadline,
                        self.headers.get("Accept"),
                    )
                self._respond_raw(answer)
            else:
                self._error(f"unknown path {self.path!r}", 404)
        except RouterHTTPError as error:
            self._error(error.message, error.status, error.retry_after)
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
