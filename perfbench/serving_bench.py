"""The ``single`` and ``tier`` workloads: ``dpsc serve`` (one process, or a
router over 2 workers) answering two sequential closed-loop phases.

* ``lookup``: ``ServingClient.query`` calls over a Zipf-ranked stream;
  almost all of the cost is per-request overhead.
* ``scan``: ``ServingClient.batch`` calls of uniform length-4 patterns;
  almost all of the cost is per-pattern work.

One client sends every request when the previous one returned.  The
phases alternate in short blocks and never overlap, so a faster lookup
path cannot take CPU from scans.  Every answer is compared float for float
with the oracle.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    OUT,
    SRC,
    WORK,
    Failures,
    Phase,
    Tracer,
    cpu_seconds,
    log,
    median,
    peak_rss_mb,
    phase_metrics,
    pss_mb,
    session_pids,
)
from reference import ReferenceServer
from repro.serving import QueryService, ReleaseStore, ServingClient
from synth import RELEASE_NAME, ServingInputs, ServingSizes, serving_inputs

SETUP_REPS = 3
BLOCK_SECONDS = 0.4
REFERENCE_BLOCK_SECONDS = 0.2
REPLAY_LOOKUPS = 200
REPLAY_BATCHES = 30
#: each replayed call is timed this many times and the fastest kept, so a
#: descheduled moment of the host does not land in one level's sample only
REPLAY_REPEATS = 3
_JSON = {"Content-Type": "application/json"}
_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


# ----------------------------------------------------------------------
# The server under test
# ----------------------------------------------------------------------
def _request(conn: http.client.HTTPConnection, method: str, path: str, body=None):
    conn.request(method, path, body=body, headers=_JSON if body is not None else {})
    response = conn.getresponse()
    return response.status, response.read()


class Server:
    """One ``dpsc serve`` process tree in its own session, so teardown
    reaches the router and every worker it spawned."""

    def __init__(self, workdir: Path, store: Path, workers: int, index: int) -> None:
        self.workdir = workdir
        self.store = store
        self.workers = workers
        self.log_path = workdir / f"server{index}.log"
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @staticmethod
    def environment() -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("DPSC_")}
        env.update(PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        return env

    def start(self) -> None:
        command = [sys.executable, "-m", "repro.cli", "serve", "--store", str(self.store), "--port", "0"]
        if self.workers > 1:
            command += ["--workers", str(self.workers)]
        env = self.environment()
        # the single-process server logs one stderr line per request: it
        # goes to a file, never to an undrained pipe
        with open(self.log_path, "wb") as output:
            self.proc = subprocess.Popen(
                command,
                stdin=subprocess.DEVNULL,
                stdout=output,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=self.workdir,
                start_new_session=True,
            )

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Until the bound port is printed and ``/healthz`` answers 200."""
        deadline = time.monotonic() + timeout
        while not self.port:
            if self.proc.poll() is not None:
                raise RuntimeError(f"dpsc serve exited with {self.proc.returncode}:\n{self.log_tail()}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"dpsc serve did not start:\n{self.log_tail()}")
            match = _LISTENING.search(self.log_path.read_text(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
            else:
                time.sleep(0.005)
        while True:
            try:
                if self.get("/healthz") is not None:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"dpsc serve never became healthy:\n{self.log_tail()}")
            time.sleep(0.005)

    def get(self, path: str, port: int | None = None) -> dict | None:
        conn = http.client.HTTPConnection(self.host, port or self.port, timeout=30)
        try:
            status, body = _request(conn, "GET", path)
        finally:
            conn.close()
        return json.loads(body) if status == 200 else None

    def pids(self) -> list[int]:
        return session_pids(self.proc.pid) if self.proc else []

    def stop(self) -> None:
        """SIGTERM the session (graceful drain), SIGKILL what is left after
        10 s, and wait until every process of the session has ended."""
        if self.proc is None:
            return
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(self.proc.pid, sig)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                self.proc.poll()  # reaps the leader, which is our child
                if not self.pids():
                    self.proc.wait()
                    self.proc = None
                    return
                time.sleep(0.01)
        raise RuntimeError(f"server processes {self.pids()} survived SIGKILL")


# ----------------------------------------------------------------------
# Server-side counters
# ----------------------------------------------------------------------
def _series(snapshot: dict, name: str, **match) -> list[tuple[dict, object]]:
    metric = snapshot.get(name) or {}
    return [
        (s["labels"], s["value"])
        for s in metric.get("series", ())
        if all(s["labels"].get(k) == v for k, v in match.items())
    ]


def _total(snapshot: dict, name: str, **match) -> float:
    return float(sum(value for _, value in _series(snapshot, name, **match)))


def _buckets(snapshot: dict, name: str, endpoints) -> dict[float, int]:
    merged: dict[float, int] = {}
    for labels, value in _series(snapshot, name):
        if labels.get("endpoint") in endpoints:
            for bound, count in value["buckets"]:
                merged[float(bound)] = merged.get(float(bound), 0) + int(count)
    return merged


@dataclass
class Counters:
    """What the program reports about itself, read between blocks."""

    health: dict
    metrics: dict
    #: each tier worker's own ``/healthz``, by worker id (the router's
    #: merged metrics sum counters across workers)
    workers: dict[str, dict]
    cpu: dict[int, float]
    client_cpu: float

    @classmethod
    def read(cls, server: Server) -> "Counters":
        cpu = {}
        for pid in server.pids():
            try:
                cpu[pid] = cpu_seconds(pid)
            except OSError:
                pass
        health = server.get("/healthz") or {}
        members = health.get("workers", {}).get("members", [])
        return cls(
            health=health,
            metrics=server.get("/metrics?format=json") or {},
            workers={m["id"]: server.get("/healthz", m["port"]) or {} for m in members},
            cpu=cpu,
            client_cpu=time.process_time(),
        )


@dataclass
class ServedPhase(Phase):
    """A phase against the server, with the counters read around each block."""

    retries: int = 0
    blocks: list[tuple[Counters, Counters]] = field(default_factory=list)

    def delta(self, read) -> float:
        """``read(after) - read(before)`` summed over the blocks."""
        return sum(read(after) - read(before) for before, after in self.blocks)

    def health(self, key: str) -> float:
        return self.delta(lambda c: c.health.get(key, 0))

    def counter(self, name: str, **match) -> float:
        return self.delta(lambda c: _total(c.metrics, name, **match))

    def cpu(self, pids=None) -> float:
        return sum(
            value - before.cpu.get(pid, 0.0)
            for before, after in self.blocks
            for pid, value in after.cpu.items()
            if pids is None or pid in pids
        )

    def histogram_p50(self, name: str, endpoints=("query", "batch")) -> tuple[float, int]:
        """Median of the program's own latency histogram over the blocks
        (a bucket upper bound, like the program's own percentiles)."""
        merged: dict[float, int] = {}
        for before, after in self.blocks:
            old = _buckets(before.metrics, name, endpoints)
            for bound, count in _buckets(after.metrics, name, endpoints).items():
                merged[bound] = merged.get(bound, 0) + count - old.get(bound, 0)
        cumulative = sorted(merged.items())
        total = cumulative[-1][1] if cumulative else 0
        for bound, count in cumulative:
            if total and count >= 0.5 * total:
                return bound, total
        return 0.0, total


# ----------------------------------------------------------------------
# Closed-loop phases
# ----------------------------------------------------------------------
def lookup_call(client: ServingClient, inputs: ServingInputs):
    stream = inputs.stream.tolist()
    universe, expected = inputs.universe, inputs.universe_expected
    n = len(stream)

    def call(k: int) -> str | None:
        j = stream[k % n]
        got = client.query(universe[j])
        return None if got == expected[j] else f"/query {universe[j]!r}: got {got!r}, expected {expected[j]!r}"

    return call


def scan_call(client: ServingClient, inputs: ServingInputs):
    batches, expected = inputs.batches, inputs.batches_expected
    n = len(batches)

    def call(k: int) -> str | None:
        b = k % n
        got = client.batch(batches[b])
        if got == expected[b]:
            return None
        wrong = sum(1 for x, y in zip(got, expected[b]) if x != y) + abs(len(got) - len(expected[b]))
        return f"/batch {b}: {wrong} of {len(expected[b])} counts differ"

    return call


def hit_share(inputs: ServingInputs, phase: Phase) -> tuple[float, int]:
    """Share of the lookups sent that asked for a stored pattern."""
    positions = np.arange(phase.calls) % len(inputs.stream)
    hits = int(inputs.universe_hit[inputs.stream[positions]].sum())
    return (hits / phase.calls if phase.calls else 0.0), phase.calls


def run_phases(server: Server, reference: ReferenceServer, inputs: ServingInputs, seconds: float, seed: int, failures: Failures, tracer: Tracer | None = None):
    """One warm-up block of each phase and of its reference exchange, then
    rounds of a lookup block, a reference lookup block, a scan block and a
    reference scan block until ``seconds`` have passed.

    The phases never run at the same time, and alternating them spreads
    each over the whole run, so slow spells of the host land on both."""
    client = ServingClient(server.url, seed=seed)
    batch = len(inputs.batches[0])
    lookup, scan = ServedPhase("lookup"), ServedPhase("scan", unit=batch)
    references = {"lookup": Phase("reference.lookup"), "scan": Phase("reference.scan", unit=batch)}
    calls = {"lookup": lookup_call(client, inputs), "scan": scan_call(client, inputs)}
    reference_calls = {
        "lookup": reference.lookup_call(inputs.universe, inputs.stream.tolist()),
        "scan": reference.scan_call(inputs.batches),
    }
    for name in calls:
        warm = Phase(name)
        warm.run_block(calls[name], BLOCK_SECONDS)
        failures.merge(warm.failures)
        Phase(name).run_block(reference_calls[name], REFERENCE_BLOCK_SECONDS)
    retries = client.num_retries
    started = time.perf_counter()
    counters = Counters.read(server)
    while time.perf_counter() - started < seconds:
        for phase in (lookup, scan):
            phase.run_block(calls[phase.name], BLOCK_SECONDS, tracer)
            after = Counters.read(server)
            phase.blocks.append((counters, after))
            phase.retries += client.num_retries - retries
            retries = client.num_retries
            references[phase.name].run_block(reference_calls[phase.name], REFERENCE_BLOCK_SECONDS)
            counters = Counters.read(server)
    for phase in references.values():
        if phase.failures.failed:
            failures.record(False, f"the reference exchange failed: {phase.failures.reasons[0]}")
    return (lookup, scan), references


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
@dataclass
class Setup:
    seconds: float
    save_s: float
    start_s: float
    warmup_s: float


def set_up(rep: int, workdir: Path, inputs: ServingInputs, workers: int, failures: Failures, tracer: Tracer) -> tuple[Server, Setup]:
    """From an empty store to a served release whose lazy views are built."""
    started = time.perf_counter()
    server = None
    try:
        with tracer.span("setup", rep=rep):
            store = ReleaseStore(workdir / f"store{rep}")
            with tracer.span("setup.store.save"):
                store.save(RELEASE_NAME, inputs.compiled, format="binary")
            saved = time.perf_counter()
            server = Server(workdir, store.root, workers, rep)
            with tracer.span("setup.server.start"):
                server.start()
                server.wait_ready()
            ready = time.perf_counter()
            with tracer.span("setup.warmup"):
                client = ServingClient(server.url)
                pattern = inputs.universe[0]
                try:
                    got = client.query(pattern)
                    failures.record(got == inputs.universe_expected[0], f"warm-up /query {pattern!r}: {got!r}")
                    got_batch = client.batch(inputs.batches[0])
                    failures.record(got_batch == inputs.batches_expected[0], "warm-up /batch: wrong counts")
                except Exception as error:  # noqa: BLE001 - counted as a failure
                    failures.record(False, f"warm-up: {type(error).__name__}: {error}")
    except BaseException:
        if server is not None:
            server.stop()
        raise
    ended = time.perf_counter()
    return server, Setup(ended - started, saved - started, ready - saved, ended - ready)


def account(phase: ServedPhase, tier: bool) -> str:
    """One line per phase: attempted, failed, and every retry or refusal
    the client and the server report."""
    line = (
        f"{phase.name}: attempted={phase.failures.attempted} failed={phase.failures.failed} "
        f"client_retries={phase.retries}"
    )
    if tier:
        for key in ("retries", "sheds", "deadline_exceeded"):
            line += f" router_{key}={phase.health(key):g}"
    return line + f" server_deadline_refusals={phase.counter('dpsc_deadline_exceeded_total'):g}"


def measure(server: Server, reference: ReferenceServer, inputs: ServingInputs, seconds: float, seed: int, tier: bool, failures: Failures, tracer: Tracer | None = None):
    """The loaded phases and their end-to-end metrics, one pass."""
    phases, references = run_phases(server, reference, inputs, seconds, seed, failures, tracer)
    pids = server.pids()
    metrics = phase_metrics(*phases, references)
    metrics["pss_mb"] = (pss_mb(pids), "MB", len(pids))
    metrics["peak_rss_mb"] = (peak_rss_mb(pids), "MB", len(pids))
    prefix = "traced " if tracer is not None else ""
    for phase in phases:
        log(prefix + account(phase, tier))
        failures.merge(phase.failures)
    return phases, metrics


def serve_and_measure(server: Server, inputs: ServingInputs, seconds: float, seed: int, trace: bool, tier: bool, failures: Failures, tracer: Tracer) -> dict:
    """Every metric of the phases against a running server: one untraced
    pass, or in a traced run an untraced and a traced pass that split the
    time, then the per-layer replay."""
    reference = ReferenceServer(Server.environment())
    try:
        passes = 2 if trace else 1
        phases, metrics = measure(server, reference, inputs, seconds / passes, seed, tier, failures)
        share, base = hit_share(inputs, phases[0])
        log(f"lookup stream: {share:.4f} of {base} lookups hit a stored pattern")
        if trace:
            traced_phases, traced = measure(server, reference, inputs, seconds / passes, seed, tier, failures, tracer)
            metrics.update(per_layer(server, inputs, traced_phases, tier, failures, tracer))
            for name, (value, unit, samples) in traced.items():
                metrics[f"trace_overhead.{name}"] = (value - metrics[name][0], unit, samples)
    finally:
        reference.stop()
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: ServingSizes = ServingSizes(), corrupt: bool = False) -> tuple[dict, Failures]:
    """Every metric the workload measured, by name, and the failures."""
    tier = workload == "tier"
    inputs = serving_inputs(seed, sizes)
    if corrupt:  # self-test: the checker must flag a wrong expected answer
        inputs.universe_expected[inputs.stream[0]] += 1.0
        inputs.batches_expected[0][0] += 1.0
    tracer = Tracer(trace)
    untraced_spans = Tracer(False)
    failures = Failures()
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    server = None
    try:
        # a traced run sets up untraced and traced in turn, for the overhead
        setups: dict[bool, list[Setup]] = {False: [], True: []}
        for rep in range(SETUP_REPS * (2 if trace else 1)):
            traced = trace and rep % 2 == 1
            if server is not None:
                server.stop()
            server, setup = set_up(rep, workdir, inputs, 2 if tier else 1, failures, tracer if traced else untraced_spans)
            setups[traced].append(setup)
        metrics = serve_and_measure(server, inputs, seconds, seed, trace, tier, failures, tracer)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    metrics["setup_s"] = (median([s.seconds for s in setups[False]]), "s", len(setups[False]))
    if trace:
        n = len(setups[True])
        metrics["trace_overhead.setup_s"] = (median([s.seconds for s in setups[True]]) - metrics["setup_s"][0], "s", n)
        metrics["setup.store.save_ms"] = (median([s.save_s for s in setups[True]]) * 1e3, "ms", n)
        metrics["setup.server.start_s"] = (median([s.start_s for s in setups[True]]), "s", n)
        metrics["setup.warmup_ms"] = (median([s.warmup_s for s in setups[True]]) * 1e3, "ms", n)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"{workload}-seed{seed}-trace.json")
    return metrics, failures


# ----------------------------------------------------------------------
# Per-layer metrics (traced run only)
# ----------------------------------------------------------------------
def per_layer(server: Server, inputs: ServingInputs, phases: tuple[ServedPhase, ServedPhase], tier: bool, failures: Failures, tracer: Tracer) -> dict:
    out = {}
    health = server.get("/healthz")
    members = health["workers"]["members"] if tier else []
    worker_pids = {m["pid"] for m in members}
    for phase in phases:
        p, requests = phase.name, phase.completed
        client_cpu = phase.delta(lambda c: c.client_cpu)
        out[f"{p}.cpu_ms"] = ((client_cpu + phase.cpu()) * 1e3 / requests, "ms", requests)
        out[f"{p}.client.cpu_ms"] = (client_cpu * 1e3 / requests, "ms", requests)
        out[f"{p}.client.retries"] = (phase.retries, "count", requests)
        out[f"{p}.server.cpu_ms"] = (phase.cpu() * 1e3 / requests, "ms", requests)
        handle, handled = phase.histogram_p50("dpsc_request_seconds")
        out[f"{p}.server.handle_p50_ms"] = (handle * 1e3, "ms", handled)
        if tier:
            out[f"{p}.router.cpu_ms"] = (phase.cpu({server.proc.pid}) * 1e3 / requests, "ms", requests)
            out[f"{p}.workers.cpu_ms"] = (phase.cpu(worker_pids) * 1e3 / requests, "ms", requests)
            handle, handled = phase.histogram_p50("dpsc_router_request_seconds")
            out[f"{p}.router.handle_p50_ms"] = (handle * 1e3, "ms", handled)
            out[f"{p}.router.retries"] = (phase.health("retries"), "count", requests)
            out[f"{p}.router.sheds"] = (phase.health("sheds"), "count", requests)
        if p == "lookup":
            flushed = phase.health("micro_batches_flushed")
            batched = phase.health("micro_batched_requests")
            name = "lookup.router.requests_per_flush" if tier else "lookup.service.requests_per_flush"
            out[name] = (batched / flushed if flushed else 0.0, "count", int(flushed))
            hits = phase.counter("dpsc_compiled_cache_hits")
            misses = phase.counter("dpsc_compiled_cache_misses")
            # the base is the LRU's own lookups: tier workers receive lookups
            # as router micro-batches, which bypass the LRU
            out["lookup.compiled.lru_hit_rate"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio", int(hits + misses))
        elif tier:
            splits = phase.health("split_batches")
            subrequests = phase.counter("dpsc_router_split_subrequests_total")
            out["scan.router.subrequests_per_split"] = (subrequests / splits if splits else 0.0, "count", int(splits))
            shares = [phase.delta(lambda c, w=m["id"]: c.workers.get(w, {}).get("batches", 0)) for m in members]
            out["scan.workers.max_share"] = (max(shares) / sum(shares) if sum(shares) else 0.0, "ratio", int(sum(shares)))
        out.update(replay(p, server, inputs, members, phase.ms(50), tier, failures, tracer))
    return out


def _timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - started, result


def replay(p: str, server: Server, inputs: ServingInputs, members: list[dict], loaded_p50: float, tier: bool, failures: Failures, tracer: Tracer) -> dict:
    """Replay a fixed sample serially through nested entry points; a
    layer's self time is the per-item difference of two nested calls."""
    compiled = inputs.compiled
    service = QueryService({RELEASE_NAME: compiled}, micro_batch=not tier)
    client = ServingClient(server.url)
    keepalive = http.client.HTTPConnection(server.host, server.port, timeout=60)
    direct = http.client.HTTPConnection(server.host, members[0]["port"], timeout=60) if tier else None
    if p == "lookup":
        sample = inputs.stream[:REPLAY_LOOKUPS].tolist()
        items = [(inputs.universe[j], inputs.universe_expected[j]) for j in sample]
        path, key = "/query", "count"

        def payload(item):
            return {"pattern": item[0]}

        levels = {
            "client": lambda item: client.query(item[0]),
            "service": lambda item: service.query(item[0]),
            "compiled": lambda item: compiled.query(item[0]),
        }
        for pattern, _ in items:  # the server's LRU is warm from the phases
            compiled.query(pattern)
    else:
        items = [(inputs.batches[b % len(inputs.batches)], inputs.batches_expected[b % len(inputs.batches)]) for b in range(REPLAY_BATCHES)]
        path, key = "/batch", "counts"

        def payload(item):
            return {"patterns": item[0]}

        levels = {
            "client": lambda item: client.batch(item[0]),
            "service": lambda item: service.batch(item[0]),
            "compiled": lambda item: compiled.batch_query(item[0]).tolist(),
        }

    def fresh(item):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            status, body = _request(conn, "POST", path, json.dumps(payload(item)).encode())
        finally:
            conn.close()
        return json.loads(body)[key] if status == 200 else None

    def over(conn):
        def call(item):
            status, body = _request(conn, "POST", path, json.dumps(payload(item)).encode())
            return json.loads(body)[key] if status == 200 else None

        return call

    chain = [("client", levels["client"]), ("fresh", fresh), ("keepalive", over(keepalive))]
    if tier:
        chain.append(("direct", over(direct)))
    chain += [("service", levels["service"]), ("compiled", levels["compiled"])]
    times: dict[str, list[float]] = {name: [] for name, _ in chain}
    times.update(decode=[], encode=[])
    try:
        for _, call in chain:  # warm every connection and lazy view once
            call(items[0])
        for index, item in enumerate(items):
            for name, call in chain:
                fastest = float("inf")
                for _ in range(REPLAY_REPEATS):
                    started = time.perf_counter()
                    got = call(item)
                    ended = time.perf_counter()
                    fastest = min(fastest, ended - started)
                    tracer.add(f"replay.{p}.{name}", started, ended, item=index)
                    failures.record(got == item[1], f"replay {p} via {name}: wrong answer")
                times[name].append(fastest)
            if p == "scan":
                body = json.dumps(payload(item)).encode()
                elapsed, _ = _timed(json.loads, body)
                times["decode"].append(elapsed)
                elapsed, _ = _timed(json.dumps, {"release": RELEASE_NAME, "counts": item[1]})
                times["encode"].append(elapsed)
    finally:
        keepalive.close()
        if direct is not None:
            direct.close()
        service.close()

    def self_ms(outer: str, inner: str) -> float:
        return median(np.asarray(times[outer]) - np.asarray(times[inner])) * 1e3

    n = len(items)
    out = {
        f"{p}.client.self_ms": (self_ms("client", "fresh"), "ms", n),
        f"{p}.connect_ms": (self_ms("fresh", "keepalive"), "ms", n),
        f"{p}.http.self_ms": (self_ms("direct" if tier else "keepalive", "service"), "ms", n),
        f"{p}.service.self_ms": (self_ms("service", "compiled"), "ms", n),
        f"{p}.wait_ms": (loaded_p50 - median(times["client"]) * 1e3, "ms", n),
    }
    if tier:
        out[f"{p}.router.self_ms"] = (self_ms("keepalive", "direct"), "ms", n)
    if p == "lookup":
        out["lookup.compiled.query_us"] = (median(times["compiled"]) * 1e6, "us", n)
    else:
        out["scan.compiled.batch_ms"] = (median(times["compiled"]) * 1e3, "ms", n)
        out["scan.http.decode_ms"] = (median(times["decode"]) * 1e3, "ms", n)
        out["scan.http.encode_ms"] = (median(times["encode"]) * 1e3, "ms", n)
    return out
