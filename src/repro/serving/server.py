"""A concurrent JSON query server over released private structures.

Because every query against a released structure is post-processing, the
server can answer arbitrary traffic — any number of clients, any patterns,
any mining thresholds — with zero privacy accounting.  The server runs one
thread per connection and speaks the HTTP/1.1 subset of
:mod:`repro.serving.wire` (``GET`` and ``POST``, ``Content-Length``
bodies, keep-alive; docs/SERVING.md):

* ``GET  /healthz``          liveness, uptime, request and micro-batch counters
* ``GET  /metrics``          Prometheus text exposition (``?format=json`` for
  the raw registry snapshot) — see docs/OBSERVABILITY.md
* ``GET  /releases``         the served releases and their public metadata
* ``POST /query``            ``{"pattern": ..., "release": ...}`` -> count
* ``POST /batch``            ``{"patterns": [...]}`` -> vectorized counts; a
  request whose ``Accept`` names :data:`F64_MEDIA_TYPE` gets them as raw
  little-endian float64 instead of JSON (errors are always JSON)
* ``POST /batch?release=..`` a :data:`PATTERNS_MEDIA_TYPE` body (the
  patterns in UTF-8, NUL-separated) -> the same counts, in either format
* ``POST /mine``             ``{"threshold": ..., ...}`` -> frequent patterns

A binary ``/batch`` request skips JSON altogether: the handler decodes
the body once and hands the text to the trie kernel
(:meth:`~repro.core.private_trie.PrivateCountingTrie.batch_query_joined`),
which splits it at the NULs in the same vectorized pass that encodes it.
A body that is not UTF-8 is a JSON 400; the body-size limit, deadline
refusals, the ``worker.handle`` failpoint, the counters and the latency
histogram apply as to a JSON request.

A 200 ``/batch`` answer, in either format, carries its pattern count in
the :data:`PATTERNS_HEADER` response header, which the tier's router
counts without parsing a body.  :class:`JSONHandler` holds what this
server's handler and the router's share: the request loop of a connection,
JSON answers and errors (protocol errors included), and ``/metrics`` as
text or JSON.

Every operational number lives in the service's
:class:`repro.obs.MetricsRegistry` (request counters, per-endpoint latency
histograms, micro-batch flush sizes);
``/healthz`` and ``/metrics`` are two views of that one registry.

Two serving tricks carry the throughput story (benchmarked in
``benchmarks/bench_serving.py``):

1. every release is an array :class:`~repro.core.private_trie.PrivateCountingTrie`
   (mapped zero-copy from a binary store version), so ``/batch`` requests
   hit the vectorized numpy path; and
2. concurrent single ``/query`` requests are *micro-batched*: a background
   worker eagerly drains the request queue into one vectorized
   ``batch_query`` call, so requests arriving during an in-flight flush
   coalesce into the next batch and heavy single-query traffic rides the
   batch fast path instead of contending on the GIL.
"""

from __future__ import annotations

import json
import math
import signal
import socketserver
import sys
import threading
import time
from typing import Callable, Mapping, Sequence
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro import faults
from repro.core.private_trie import PrivateCountingTrie
from repro.exceptions import ReleaseNotFoundError, ReproError
from repro.obs import MetricsRegistry, log_buckets, render_snapshot
from repro.serving import wire
from repro.serving.resilience import DEADLINE_HEADER, Deadline
from repro.serving.store import ReleaseStore

__all__ = [
    "QueryService",
    "MicroBatcher",
    "create_server",
    "serve_forever",
    "install_graceful_shutdown",
]

#: endpoints that carry request counters and latency histograms.
_ENDPOINTS = ("query", "batch", "mine", "healthz")

#: the deadline header as :attr:`JSONHandler.headers` names it.
_DEADLINE = DEADLINE_HEADER.lower()

#: micro-batch flush sizes are small integers; powers of two up to the
#: default ``max_batch`` resolve them exactly enough.
_FLUSH_SIZE_BUCKETS = log_buckets(1.0, 512.0, 2.0)

#: chaos-drill injection site at the entry of every query-serving handler
#: (``/query``, ``/batch``, ``/mine`` — health probes and metric scrapes
#: stay clean so supervision and scraping remain deterministic under chaos).
_FP_HANDLE = faults.failpoint(
    "worker.handle", "Entry of every /query, /batch and /mine HTTP handler."
)


class _PendingQuery:
    """One single-pattern query waiting for a micro-batch flush."""

    __slots__ = ("pattern", "release", "event", "result", "error")

    def __init__(self, pattern: str, release: str) -> None:
        self.pattern = pattern
        self.release = release
        self.event = threading.Event()
        self.result: float = 0.0
        self.error: Exception | None = None


class MicroBatcher:
    """Coalesces concurrent single queries into vectorized batch calls.

    The worker flushes *eagerly*: a lone request is answered immediately
    (no artificial latency floor for sequential clients), while requests
    arriving during an in-flight flush pile up and are drained as one
    batch of up to ``max_batch`` on the next iteration — batching emerges
    from concurrency instead of from a fixed wait.  ``max_wait`` only
    bounds how long the idle worker sleeps between condition checks.
    Singleton flushes take the single-pattern walk, so sequential traffic
    skips the batch path's per-call setup.
    """

    def __init__(
        self,
        service: "QueryService",
        *,
        max_batch: int = 256,
        max_wait: float = 0.002,
    ) -> None:
        self._service = service
        self._max_batch = max_batch
        self._max_wait = max_wait
        self._queue: list[_PendingQuery] = []
        self._condition = threading.Condition()
        self._closed = False
        metrics = service.metrics
        self._flushes = metrics.counter(
            "dpsc_microbatch_flushes_total", "Micro-batch flushes executed."
        )
        self._flushed_requests = metrics.counter(
            "dpsc_microbatch_requests_total",
            "Single queries answered through micro-batch flushes.",
        )
        self._flush_size = metrics.histogram(
            "dpsc_microbatch_flush_size",
            "Requests coalesced per micro-batch flush.",
            buckets=_FLUSH_SIZE_BUCKETS,
        )
        self._worker = threading.Thread(
            target=self._run, name="repro-microbatcher", daemon=True
        )
        self._worker.start()

    @property
    def batches_flushed(self) -> int:
        return int(self._flushes.value)

    @property
    def requests_batched(self) -> int:
        return int(self._flushed_requests.value)

    def submit(self, pattern: str, release: str) -> float:
        """Enqueue one query and block until its batch is answered."""
        pending = _PendingQuery(pattern, release)
        with self._condition:
            if self._closed:
                raise ReproError("micro-batcher is closed")
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
        self._worker.join(timeout=1.0)

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

    def _flush(self, batch: list[_PendingQuery]) -> None:
        self._flushes.inc()
        self._flushed_requests.inc(len(batch))
        self._flush_size.observe(float(len(batch)))
        by_release: dict[str, list[_PendingQuery]] = {}
        for pending in batch:
            by_release.setdefault(pending.release, []).append(pending)
        for release, group in by_release.items():
            try:
                if len(group) == 1:
                    # The single-pattern walk: no batch setup for one.
                    group[0].result = float(
                        self._service.release(release).query(group[0].pattern)
                    )
                else:
                    # The *uncounted* batch path: these requests were
                    # already counted as single queries in num_queries, so
                    # routing the flush through the public batch() would
                    # misreport them as /batch traffic in /healthz.
                    counts = self._service.release(release).batch_query(
                        [pending.pattern for pending in group]
                    )
                    for pending, count in zip(group, counts):
                        pending.result = float(count)
            except Exception as error:  # propagate to every waiter
                for pending in group:
                    pending.error = error
            finally:
                for pending in group:
                    pending.event.set()


class QueryService:
    """Routes queries to named releases; the HTTP layer and the CLI both
    delegate here, so the logic is testable without sockets."""

    def __init__(
        self,
        releases: Mapping[str, PrivateCountingTrie],
        *,
        default_release: str | None = None,
        micro_batch: bool = True,
        max_batch: int = 256,
        max_wait: float = 0.002,
    ) -> None:
        if not releases:
            raise ReproError("a query service needs at least one release")
        self._releases = dict(releases)
        if default_release is None:
            default_release = sorted(self._releases)[0]
        if default_release not in self._releases:
            raise ReleaseNotFoundError(
                f"default release {default_release!r} is not served"
            )
        self.default_release = default_release
        self.started_at = time.time()
        #: single source of truth for every operational number; ``/healthz``
        #: and ``/metrics`` both read from here.  Counters and gauges update
        #: even when telemetry is globally disabled, so the health payload
        #: keeps its semantics either way.
        self.metrics = MetricsRegistry()
        self._requests = {
            endpoint: self.metrics.counter(
                "dpsc_requests_total",
                "Requests served, by endpoint.",
                {"endpoint": endpoint},
            )
            for endpoint in _ENDPOINTS
        }
        self._latency = {
            endpoint: self.metrics.histogram(
                "dpsc_request_seconds",
                "Request latency in seconds, by endpoint.",
                {"endpoint": endpoint},
            )
            for endpoint in _ENDPOINTS
        }
        self._batch_patterns = self.metrics.counter(
            "dpsc_batch_patterns_total",
            "Patterns answered across all /batch requests.",
        )
        self._deadline_exceeded = self.metrics.counter(
            "dpsc_deadline_exceeded_total",
            "Requests refused with 504 because their X-DPSC-Deadline had "
            "already expired on arrival.",
        )
        self.metrics.gauge(
            "dpsc_uptime_seconds", "Seconds since the service started."
        ).set_function(lambda: time.time() - self.started_at)
        self._batcher = (
            MicroBatcher(self, max_batch=max_batch, max_wait=max_wait)
            if micro_batch
            else None
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def release(self, name: str | None = None) -> PrivateCountingTrie:
        resolved = name or self.default_release
        try:
            return self._releases[resolved]
        except KeyError:
            raise ReleaseNotFoundError(
                f"release {resolved!r} is not served "
                f"(serving: {sorted(self._releases)})"
            ) from None

    def query(self, pattern: str, release: str | None = None) -> float:
        """One pattern's noisy count, via the micro-batcher when enabled."""
        self._requests["query"].inc()
        with self._latency["query"].time():
            if self._batcher is not None:
                return self._batcher.submit(
                    pattern, release or self.default_release
                )
            return self.release(release).query(pattern)

    def batch(self, patterns: Sequence[str], release: str | None = None) -> list[float]:
        """Vectorized noisy counts for many patterns at once."""
        return self.batch_counts(patterns, release).tolist()

    def batch_counts(
        self, patterns: Sequence[str], release: str | None = None
    ) -> np.ndarray:
        """:meth:`batch` as the float64 array that ``/batch`` encodes in
        either answer format."""
        self._requests["batch"].inc()
        self._batch_patterns.inc(len(patterns))
        with self._latency["batch"].time():
            return self.release(release).batch_query(patterns)

    def batch_joined_counts(self, joined: str, release: str | None = None) -> np.ndarray:
        """:meth:`batch_counts` of the NUL-separated patterns of ``joined``
        (``joined.count("\\x00") + 1`` of them), the text of a
        :data:`PATTERNS_MEDIA_TYPE` request, without splitting it."""
        self._requests["batch"].inc()
        self._batch_patterns.inc(joined.count("\x00") + 1)
        with self._latency["batch"].time():
            return self.release(release).batch_query_joined(joined)

    def mine(
        self,
        threshold: float,
        release: str | None = None,
        *,
        min_length: int = 1,
        max_length: int | None = None,
        exact_length: int | None = None,
    ) -> list[tuple[str, float]]:
        self._requests["mine"].inc()
        with self._latency["mine"].time():
            return self.release(release).mine(
                threshold,
                min_length=min_length,
                max_length=max_length,
                exact_length=exact_length,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def releases_info(self) -> list[dict]:
        infos = []
        for name in sorted(self._releases):
            compiled = self._releases[name]
            metadata = compiled.metadata
            infos.append(
                {
                    "name": name,
                    "default": name == self.default_release,
                    "epsilon": metadata.epsilon,
                    "delta": metadata.delta,
                    "error_bound": metadata.error_bound,
                    "construction": metadata.construction,
                    "num_nodes": compiled.num_nodes,
                    "num_patterns": compiled.num_stored_patterns,
                    "compiled_bytes": compiled.nbytes,
                }
            )
        return infos

    # ------------------------------------------------------------------
    # Counter views (kept as attributes-in-spirit for tests and loadtest)
    # ------------------------------------------------------------------
    @property
    def num_queries(self) -> int:
        return int(self._requests["query"].value)

    @property
    def num_batches(self) -> int:
        return int(self._requests["batch"].value)

    @property
    def num_batch_patterns(self) -> int:
        return int(self._batch_patterns.value)

    @property
    def num_mines(self) -> int:
        return int(self._requests["mine"].value)

    @property
    def num_deadline_exceeded(self) -> int:
        return int(self._deadline_exceeded.value)

    def note_deadline_exceeded(self) -> None:
        self._deadline_exceeded.inc()

    def health(self) -> dict:
        self._requests["healthz"].inc()
        with self._latency["healthz"].time():
            # Each counter is individually exact (per-metric locks); the
            # payload is no longer one atomic cross-counter snapshot, which
            # is fine for the consumers we have — the load test checks the
            # deltas at quiescence, and monitoring tolerates a batch
            # observed a beat before its patterns.
            payload = {
                "status": "ok",
                "uptime_seconds": time.time() - self.started_at,
                "releases": sorted(self._releases),
                "default_release": self.default_release,
                "queries": self.num_queries,
                "batches": self.num_batches,
                "batch_patterns": self.num_batch_patterns,
                "mines": self.num_mines,
            }
            if self._batcher is not None:
                payload["micro_batches_flushed"] = self._batcher.batches_flushed
                payload["micro_batched_requests"] = self._batcher.requests_batched
            return payload

    def close(self) -> None:
        if self._batcher is not None:
            self._batcher.close()
            self._batcher = None

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls,
        store: ReleaseStore,
        names: Sequence[str] | None = None,
        *,
        mmap: bool = True,
        versions: Mapping[str, int] | None = None,
        **kwargs,
    ) -> "QueryService":
        """Serve the pinned-or-latest version of each named release (all
        releases in the store when ``names`` is omitted).

        Loads go through :meth:`ReleaseStore.load_compiled`: binary
        (``.dpsb``) versions are mapped zero-copy — cold start is O(header)
        and concurrent server processes share one page-cache copy — while
        JSON versions are parsed into arrays.  ``mmap=False``
        forces private in-memory copies of binary payloads.  ``versions``
        pins an explicit version per name — how the cluster tier makes
        every worker of one generation serve the *same* snapshot even
        while a curator publishes new versions underneath.
        """
        selected = list(names) if names else sorted(versions) if versions else store.names()
        if not selected:
            raise ReleaseNotFoundError(f"store {store.root} holds no releases")
        releases = {
            name: store.load_compiled(
                name, versions.get(name) if versions else None, mmap=mmap
            )
            for name in selected
        }
        return cls(releases, **kwargs)


#: the ``/batch`` answer format a request asks for by naming it in
#: ``Accept``: the counts as little-endian float64 in request order, 8 bytes
#: per pattern.  Bit-identical to the JSON counts by construction, with no
#: float repr to write or parse.  The client asks for it; the router relays it.
F64_MEDIA_TYPE = "application/x-dpsc-f64"

#: the ``/batch`` request format a request names in ``Content-Type``: its
#: patterns in UTF-8 with one NUL byte between them (a lone surrogate as its
#: 3-byte form), so a body of k NULs is a batch of k + 1 patterns, and the
#: release in the query string (``/batch?release=NAME``).  The server hands
#: the decoded text to the trie kernel as it is; the client sends every
#: batch it can carry this way, and a batch it cannot (empty, or with a
#: pattern holding NUL) as JSON.
PATTERNS_MEDIA_TYPE = "application/x-dpsc-patterns"

#: the response header of a 200 ``/batch`` answer that carries its pattern
#: count, in either answer format, so the router counts patterns without
#: parsing a body.
PATTERNS_HEADER = "X-DPSC-Patterns"


def names_media(value: str | None, media_type: str) -> bool:
    """True when an ``Accept`` or ``Content-Type`` header value names
    ``media_type`` (parameters and case ignored)."""
    return value is not None and any(
        media.split(";", 1)[0].strip().lower() == media_type
        for media in value.split(",")
    )


def encode_patterns(patterns: list[str]) -> bytes | None:
    """The :data:`PATTERNS_MEDIA_TYPE` body of ``patterns``, or ``None``
    when that format cannot carry them: the batch is empty, a pattern
    holds NUL, or one is not a string."""
    try:
        joined = "\x00".join(patterns)
    except TypeError:
        return None
    if not patterns or joined.count("\x00") != len(patterns) - 1:
        return None
    return joined.encode("utf-8", "surrogatepass")


def encode_f64(counts: np.ndarray) -> bytes:
    """The body of the :data:`F64_MEDIA_TYPE` ``/batch`` answer of ``counts``."""
    return np.asarray(counts, dtype="<f8").tobytes()


def decode_f64(body: bytes, patterns: int) -> np.ndarray:
    """The counts of an :data:`F64_MEDIA_TYPE` answer to a batch of
    ``patterns`` patterns (a read-only view of ``body``); ``ValueError``
    unless the body holds exactly 8 bytes per pattern."""
    if len(body) != 8 * patterns:
        raise ValueError(
            f"an {F64_MEDIA_TYPE} body of {len(body)} bytes does not hold "
            f"{patterns} counts"
        )
    return np.frombuffer(body, dtype="<f8")


def _finite_number(value: object) -> float | None:
    """``value`` as a float when it is a finite JSON number, else ``None``.

    ``json.loads`` accepts ``NaN``, ``Infinity``, ``1e400`` and integers
    past the float range; none of them is a threshold, or valid JSON to
    answer with."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def _is_int(value: object) -> bool:
    """True for JSON integers only (bool is an int subclass in Python —
    ``true`` is not a length)."""
    return isinstance(value, int) and not isinstance(value, bool)


class JSONHandler(socketserver.StreamRequestHandler):
    """What the worker and router handlers share: one loop per connection
    over :mod:`repro.serving.wire`, JSON answers and errors, ``/metrics``
    as text or JSON, and one log line per answer when the server is
    verbose.

    Each pass reads one request (:func:`wire.read_request`), sets
    :attr:`command`, :attr:`path`, :attr:`headers` (lowercased names) and
    :attr:`body`, and calls ``do_GET`` or ``do_POST``, which answer through
    :meth:`_send`: status line, headers and body in one write.  A request
    outside the subset is answered with its JSON error and ends the
    connection, as does an HTTP/1.0 or ``Connection: close`` request.
    """

    #: the ``Server`` header of every answer
    server_version = "repro-dpsc"
    #: an answer is one write, but one larger than a segment would still
    #: wait for a keep-alive peer's delayed ACK (~40ms) under Nagle
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while True:
                try:
                    request = wire.read_request(self.rfile, self.wfile)
                except wire.ProtocolError as error:
                    self.requestline = "-"
                    self.close_connection = True
                    self._error(str(error), error.status)
                    return
                if request is None:
                    return
                self.command, self.path = request.method, request.target
                self.requestline = f"{request.method} {request.target} {request.version}"
                self.headers, self.body = request.headers, request.body
                self.close_connection = not request.keep_alive
                if request.method == "GET":
                    self.do_GET()
                else:
                    self.do_POST()
                if self.close_connection:
                    return
        except OSError:
            return  # the peer reset the connection or a write timed out

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        """One answer; ``headers`` adds e.g. ``Retry-After``.  An answer on
        a connection that ends after it says ``Connection: close``."""
        self.wfile.write(
            wire.encode_answer(
                status,
                body,
                content_type,
                headers,
                server=self.server_version,
                close=self.close_connection,
            )
        )
        if getattr(self.server, "verbose", False):  # pragma: no cover
            sys.stderr.write(
                f'{self.client_address[0]} - - [{time.strftime("%d/%b/%Y %H:%M:%S")}] '
                f'"{self.requestline}" {status} -\n'
            )

    def _respond(
        self, payload: dict, status: int = 200, headers: Mapping[str, str] | None = None
    ) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"), "application/json", headers)

    def _error(
        self, message: str, status: int, headers: Mapping[str, str] | None = None
    ) -> None:
        self._respond({"error": message}, status, headers)

    def _metrics(self, query: str, snapshot: Callable[[], dict]) -> None:
        """``/metrics``: ``snapshot()`` as Prometheus text, or as JSON when
        the query string asks for ``format=json``."""
        if parse_qs(query).get("format", [""])[0] == "json":
            self._respond(snapshot())
        else:
            body = render_snapshot(snapshot()).encode("utf-8")
            self._send(200, body, "text/plain; version=0.0.4; charset=utf-8")


class _Handler(JSONHandler):
    """Thin JSON shim over the server's :class:`QueryService`."""

    server_version = "repro-dpsc"

    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    def _refuse_or_inject(self) -> bool:
        """Deadline refusal + the ``worker.handle`` failpoint; ``True`` when
        the request was already answered (or the connection dropped).

        Called with the request body consumed, so an error response leaves
        the keep-alive connection in sync.  An expired ``X-DPSC-Deadline``
        means nobody is waiting for the answer anymore — refuse with 504
        instead of burning worker time (the client's retry, if any budget
        remains, carries a fresh deadline).
        """
        deadline = Deadline.from_header(self.headers.get(_DEADLINE))
        if deadline is not None and deadline.expired():
            self.service.note_deadline_exceeded()
            self._error("deadline expired before the server began handling", 504)
            return True
        try:
            _FP_HANDLE.hit()
        except faults.FaultDropConnection:
            # no response at all: the peer sees the socket close mid-request
            self.close_connection = True
            return True
        except faults.FaultInjected as fault:
            self._error(str(fault), 500)
            return True
        return False

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - the handler's method names
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/healthz":
                self._respond(self.service.health())
            elif parsed.path == "/metrics":
                # Scrape traffic is not request traffic: /metrics reads the
                # registry without touching the request counters.
                self._metrics(parsed.query, self.service.metrics.snapshot)
            elif parsed.path == "/releases":
                self._respond({"releases": self.service.releases_info()})
            elif parsed.path == "/query":
                if self._refuse_or_inject():
                    return
                query = parse_qs(parsed.query)
                pattern = query.get("pattern", [""])[0]
                release = query.get("release", [None])[0]
                self._respond(
                    {
                        "pattern": pattern,
                        "release": release or self.service.default_release,
                        "count": self.service.query(pattern, release),
                    }
                )
            else:
                self._error(f"unknown path {parsed.path!r}", 404)
        except ReleaseNotFoundError as error:
            self._error(str(error), 404)
        except ReproError as error:
            self._error(str(error), 400)
        except Exception as error:  # noqa: BLE001 - JSON 500, not a raw traceback
            self._error(f"internal error: {error}", 500)

    def _answer_counts(self, counts: np.ndarray, release: str | None) -> None:
        """A 200 ``/batch`` answer in the format ``Accept`` asks for."""
        counted = {PATTERNS_HEADER: str(counts.size)}
        if names_media(self.headers.get("accept"), F64_MEDIA_TYPE):
            self._send(200, encode_f64(counts), F64_MEDIA_TYPE, counted)
        else:
            self._respond(
                {
                    "release": release or self.service.default_release,
                    "counts": counts.tolist(),
                },
                headers=counted,
            )

    def do_POST(self) -> None:  # noqa: N802 - the handler's method names
        path, _, query = self.path.partition("?")
        joined = None  # the text of a binary /batch request
        if path == "/batch" and names_media(
            self.headers.get("content-type"), PATTERNS_MEDIA_TYPE
        ):
            try:
                joined = self.body.decode("utf-8", "surrogatepass")
            except UnicodeDecodeError:
                self._error("request body is not valid UTF-8", 400)
                return
            payload = {}
        else:
            try:
                payload = json.loads(self.body.decode("utf-8")) if self.body else {}
            except (ValueError, UnicodeDecodeError):
                self._error("request body is not valid JSON", 400)
                return
            if not isinstance(payload, dict):
                # Valid JSON but not an object (e.g. a bare list or string)
                # must be a JSON 400 too, not an unhandled AttributeError.
                self._error("request body must be a JSON object", 400)
                return
        if self._refuse_or_inject():
            return
        release = payload.get("release")
        if release is None and query:
            # a body that names no release takes the query string's
            release = parse_qs(query).get("release", [None])[0]
        elif release is not None and not isinstance(release, str):
            self._error("'release' must be a string or null", 400)
            return
        try:
            if path == "/query":
                pattern = payload.get("pattern")
                if not isinstance(pattern, str):
                    self._error("'pattern' must be a string", 400)
                    return
                self._respond(
                    {
                        "pattern": pattern,
                        "release": release or self.service.default_release,
                        "count": self.service.query(pattern, release),
                    }
                )
            elif joined is not None:
                self._answer_counts(
                    self.service.batch_joined_counts(joined, release), release
                )
            elif path == "/batch":
                patterns = payload.get("patterns")
                if not isinstance(patterns, list) or not all(
                    isinstance(p, str) for p in patterns
                ):
                    self._error("'patterns' must be a list of strings", 400)
                    return
                self._answer_counts(self.service.batch_counts(patterns, release), release)
            elif path == "/mine":
                threshold = _finite_number(payload.get("threshold"))
                if threshold is None:
                    self._error("'threshold' must be a finite number", 400)
                    return
                min_length = payload.get("min_length", 1)
                if not _is_int(min_length):
                    self._error("'min_length' must be an integer", 400)
                    return
                max_length = payload.get("max_length")
                if max_length is not None and not _is_int(max_length):
                    self._error("'max_length' must be an integer or null", 400)
                    return
                exact_length = payload.get("exact_length")
                if exact_length is not None and not _is_int(exact_length):
                    self._error("'exact_length' must be an integer or null", 400)
                    return
                patterns = self.service.mine(
                    threshold,
                    release,
                    min_length=int(min_length),
                    max_length=None if max_length is None else int(max_length),
                    exact_length=None if exact_length is None else int(exact_length),
                )
                self._respond(
                    {
                        "release": release or self.service.default_release,
                        "threshold": threshold,
                        "patterns": [[p, c] for p, c in patterns],
                    }
                )
            else:
                self._error(f"unknown path {path!r}", 404)
        except ReleaseNotFoundError as error:
            self._error(str(error), 404)
        except ReproError as error:
            self._error(str(error), 400)
        except Exception as error:  # noqa: BLE001 - JSON 500, not a raw traceback
            self._error(f"internal error: {error}", 500)


def create_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
) -> wire.Server:
    """A ready-to-run thread-per-connection server bound to ``host:port``
    (port 0 picks a free port; read it back from ``server.server_address``)."""
    server = wire.Server((host, port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server


def install_graceful_shutdown(
    drain: Callable[[], None],
    signals: Sequence[int] = (signal.SIGTERM, signal.SIGINT),
) -> Callable[[], None]:
    """Install SIGTERM/SIGINT handlers that call ``drain`` exactly once.

    ``drain`` must be fast and signal-safe — the convention here is to hand
    the actual draining to a daemon thread (``server.shutdown()`` blocks
    until ``serve_forever`` exits, which must not happen inside the signal
    handler running on the serving thread).  Returns a restore function
    that reinstates the previous handlers; a no-op pair outside the main
    thread, where CPython refuses ``signal.signal`` (tests, embedded use).
    """
    if threading.current_thread() is not threading.main_thread():
        return lambda: None
    fired = threading.Event()

    def handler(signum, frame):  # noqa: ARG001 - signal API
        if not fired.is_set():  # repeated signals must not re-drain
            fired.set()
            threading.Thread(
                target=drain, name="repro-graceful-drain", daemon=True
            ).start()

    previous = [(number, signal.getsignal(number)) for number in signals]
    for number in signals:
        signal.signal(number, handler)

    def restore() -> None:
        for number, old in previous:
            signal.signal(number, old)

    return restore


def serve_forever(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    verbose: bool = True,
) -> None:  # pragma: no cover - blocking entry point exercised via the CLI
    """Serve until SIGTERM/SIGINT (or KeyboardInterrupt), then drain.

    The drain order is the graceful-shutdown contract the cluster tier
    reuses: stop accepting (``shutdown``), close the listening socket
    (``server_close``), then flush the micro-batcher (``service.close``
    drains its queue before joining the worker).  Handler threads are
    daemon threads, so ``server_close`` joins none of them: idle keep-alive
    connections never hold the exit open, and a request still in flight
    when the process exits gets no answer.  On the tier the router retries
    requests in flight on a drained worker; the client's retry covers the
    rest.
    """
    server = create_server(service, host, port, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    print(f"dpsc serving {sorted(service.releases_info(), key=lambda r: r['name'])}")
    print(f"listening on http://{bound_host}:{bound_port}")
    restore = install_graceful_shutdown(server.shutdown)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        restore()
        server.shutdown()
        server.server_close()
        service.close()
