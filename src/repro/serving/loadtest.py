"""A deterministic load-test harness for the query-serving stack.

The serving layer's concurrency claim — any number of handler threads may
hammer a released structure and every answer is still exact post-processing
— is only as good as the harness that can falsify it.  This module
generates a *seeded* mixed workload (``query`` / ``batch`` / ``mine`` /
``healthz`` operations), replays it once serially to fix the expected
answers, then replays it again from ``N`` barrier-started threads and
checks three properties:

1. **bit-identical results** — every concurrent answer equals the serial
   replay's, float-for-float (queries are deterministic post-processing,
   so any divergence is a concurrency bug, e.g. a lazy view read before it
   was fully built);
2. **no errors** — no operation may raise (shared state corrupted by a
   race typically surfaces as ``KeyError``/``RuntimeError`` under load);
3. **consistent counters** — the service's ``/healthz`` counters advance by
   exactly the workload's operation totals (exact, not best-effort).

The harness drives either a :class:`~repro.serving.server.QueryService`
directly (in-process, what ``tests/serving/test_concurrency.py`` and E23
use) or a :class:`~repro.serving.client.ServingClient` pointed at a live
HTTP server (``dpsc bench-load --url``).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import ReproError
from repro.obs import Histogram

__all__ = [
    "Operation",
    "LoadTestError",
    "LoadTestResult",
    "generate_workload",
    "expected_counter_deltas",
    "execute_operation",
    "run_load_test",
    "run_load_test_processes",
]

#: client processes are spawned (same rationale as the serving workers: no
#: inherited locks, and identical behaviour across platforms).
_SPAWN = multiprocessing.get_context("spawn")

#: the traffic mix: (query, batch, mine, healthz) probabilities.
MIX = (0.62, 0.25, 0.03, 0.10)
#: how long a client process may take to start, and to replay its slice.
SPAWN_TIMEOUT = 120.0
RUN_TIMEOUT = 600.0


class LoadTestError(ReproError):
    """The concurrent replay diverged from the serial replay."""


@dataclass(frozen=True)
class Operation:
    """One operation of a load-test workload (hashable, replayable)."""

    kind: str  # "query" | "batch" | "mine" | "healthz"
    release: str | None = None
    pattern: str = ""
    patterns: tuple[str, ...] = ()
    threshold: float = 0.0
    min_length: int = 1


@dataclass
class LoadTestResult:
    """Outcome of one concurrent replay (see :func:`run_load_test`)."""

    threads: int
    operations: int
    seconds: float
    num_queries: int
    num_batches: int
    num_batch_patterns: int
    num_mines: int
    num_healthz: int
    mismatches: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    counters_consistent: bool = True
    #: client *processes* driving the replay (0 for the threaded harness).
    processes: int = 0
    #: per-operation-kind latency percentiles observed *during the
    #: concurrent replay*, e.g. ``{"query": {"p50": ..., "p95": ...,
    #: "p99": ...}}`` (seconds; kinds with no operations are absent).
    percentiles: dict = field(default_factory=dict)

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.seconds if self.seconds else float("inf")

    @property
    def queries_per_second(self) -> float:
        """Throughput in *pattern lookups* (batch patterns each count)."""
        total = self.num_queries + self.num_batch_patterns
        return total / self.seconds if self.seconds else float("inf")

    @property
    def bit_identical(self) -> bool:
        return not self.mismatches and not self.errors

    def row(self) -> dict:
        """A flat JSON-friendly summary (experiment/benchmark rows)."""
        row = {
            "threads": self.threads,
            "processes": self.processes,
            "operations": self.operations,
            "seconds": self.seconds,
            "ops_per_second": self.ops_per_second,
            "queries_per_second": self.queries_per_second,
            "bit_identical": self.bit_identical,
            "counters_consistent": self.counters_consistent,
            "errors": len(self.errors),
        }
        for kind in sorted(self.percentiles):
            for quantile, value in self.percentiles[kind].items():
                row[f"{kind}_{quantile}_seconds"] = value
        return row


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------
def generate_workload(
    service,
    num_operations: int,
    *,
    seed: int = 0,
    max_batch: int = 64,
    releases: Sequence[str] | None = None,
) -> list[Operation]:
    """A seeded list of mixed operations against ``service``'s releases.

    Patterns are drawn from each release's stored patterns (the traffic
    analysts actually send), their prefixes/extensions, and misses, so both
    the stored-count and the dead-state paths get exercised, in the
    proportions of :data:`MIX`.  The same ``(service releases,
    num_operations, seed)`` always produce the same workload — the
    determinism the bit-identical check rests on.
    """
    rng = np.random.default_rng(seed)
    names = sorted(releases) if releases else _release_names(service)
    pools: dict[str, list[str]] = {}
    for name in names:
        stored = _stored_patterns(service, name)
        pool = list(stored) or [""]
        pool += [p[:-1] for p in stored if len(p) > 1]
        pool += [p + p[0] for p in stored[:64]]
        pool += ["", "\x00", "zzz-miss", "…"]
        pools[name] = pool
    probabilities = np.asarray(MIX, dtype=float)
    probabilities = probabilities / probabilities.sum()
    kinds = ("query", "batch", "mine", "healthz")
    operations: list[Operation] = []
    for _ in range(num_operations):
        kind = kinds[int(rng.choice(4, p=probabilities))]
        name = names[int(rng.integers(len(names)))]
        pool = pools[name]
        if kind == "query":
            operations.append(
                Operation(
                    kind="query",
                    release=name,
                    pattern=pool[int(rng.integers(len(pool)))],
                )
            )
        elif kind == "batch":
            size = int(rng.integers(1, max_batch + 1))
            patterns = tuple(
                pool[int(index)] for index in rng.integers(len(pool), size=size)
            )
            operations.append(Operation(kind="batch", release=name, patterns=patterns))
        elif kind == "mine":
            operations.append(
                Operation(
                    kind="mine",
                    release=name,
                    threshold=float(rng.uniform(0.0, 10.0)),
                    min_length=int(rng.integers(1, 4)),
                )
            )
        else:
            operations.append(Operation(kind="healthz"))
    return operations


def expected_counter_deltas(workload: Sequence[Operation]) -> dict[str, int]:
    """How much each ``/healthz`` counter must advance after one replay."""
    deltas = {"queries": 0, "batches": 0, "batch_patterns": 0, "mines": 0}
    for operation in workload:
        if operation.kind == "query":
            deltas["queries"] += 1
        elif operation.kind == "batch":
            deltas["batches"] += 1
            deltas["batch_patterns"] += len(operation.patterns)
        elif operation.kind == "mine":
            deltas["mines"] += 1
    return deltas


def _release_names(target) -> list[str]:
    # QueryService spells it releases_info(); ServingClient releases().
    info = getattr(target, "releases_info", None) or target.releases
    return sorted(entry["name"] for entry in info())


def _stored_patterns(target, name: str) -> list[str]:
    release = getattr(target, "release", None)
    if release is not None:  # in-process QueryService
        return sorted(pattern for pattern, _ in release(name).items())
    # Over HTTP: a bottomless mine threshold lists every stored pattern.
    return sorted(pattern for pattern, _ in target.mine(-1e18, name))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _health(target) -> dict:
    # QueryService spells it health(); ServingClient spells it healthz().
    probe = getattr(target, "health", None)
    if probe is None:
        probe = target.healthz
    return probe()


def execute_operation(target, operation: Operation):
    """Run one operation; the return value is what gets compared."""
    if operation.kind == "query":
        return float(target.query(operation.pattern, operation.release))
    if operation.kind == "batch":
        return [float(c) for c in target.batch(list(operation.patterns), operation.release)]
    if operation.kind == "mine":
        return target.mine(
            operation.threshold,
            operation.release,
            min_length=operation.min_length,
        )
    if operation.kind == "healthz":
        # Counters move during the run; only liveness is comparable.
        return _health(target)["status"]
    raise ReproError(f"unknown load-test operation kind {operation.kind!r}")


def run_load_test(
    target,
    workload: Sequence[Operation],
    *,
    threads: int = 8,
    expected: Sequence[object] | None = None,
    check: bool = False,
    verify_counters: bool = True,
) -> LoadTestResult:
    """Replay ``workload`` from ``threads`` barrier-started threads and
    compare every answer against a serial replay.

    ``target`` is a :class:`QueryService` or a :class:`ServingClient`.
    ``expected`` lets the caller reuse one serial replay across several
    thread counts; otherwise it is computed here (serially, before any
    thread starts).  With ``check=True`` a divergence raises
    :class:`LoadTestError` instead of only being recorded in the result.
    ``verify_counters`` snapshots the target's health counters around the
    concurrent replay and requires them to advance by exactly the
    workload's totals (turn it off when other traffic shares the target).

    Thread ``t`` executes operations ``t, t + threads, t + 2*threads, ...``
    — a deterministic round-robin partition, so the same workload and
    thread count replay identically (modulo scheduling, which must not
    matter: that is the property under test).
    """
    workload = list(workload)
    if expected is None:
        expected = [execute_operation(target, operation) for operation in workload]
    expected = list(expected)
    if len(expected) != len(workload):
        raise ReproError("expected results and workload differ in length")

    results: list[object] = [None] * len(workload)
    errors: list[str] = []
    errors_lock = threading.Lock()
    barrier = threading.Barrier(threads + 1)
    # Per-thread latency samples (merged after the join — no shared-state
    # contention while the clock is running).
    samples: list[list[tuple[str, float]]] = [[] for _ in range(threads)]

    def worker(offset: int) -> None:
        mine = samples[offset]
        barrier.wait()
        for index in range(offset, len(workload), threads):
            operation = workload[index]
            began = time.perf_counter()
            try:
                results[index] = execute_operation(target, operation)
            except Exception as error:  # noqa: BLE001 - recorded, re-raised below
                with errors_lock:
                    errors.append(f"op {index} ({operation.kind}): {error!r}")
            else:
                mine.append((operation.kind, time.perf_counter() - began))

    pool = [
        threading.Thread(target=worker, args=(offset,), name=f"loadtest-{offset}")
        for offset in range(threads)
    ]
    before = _health(target) if verify_counters else None
    for thread in pool:
        thread.start()
    barrier.wait()  # every worker released at once
    started = time.perf_counter()
    for thread in pool:
        thread.join()
    seconds = time.perf_counter() - started
    after = _health(target) if verify_counters else None

    return _result(
        workload,
        expected,
        results,
        errors,
        [sample for thread_samples in samples for sample in thread_samples],
        seconds,
        before,
        after,
        check=check,
        replay=f"concurrent replay with {threads} threads",
        threads=threads,
    )


def _result(
    workload: list[Operation],
    expected: list[object],
    results: list[object],
    errors: list[str],
    samples: list[tuple[str, float]],
    seconds: float,
    before: dict | None,
    after: dict | None,
    *,
    check: bool,
    replay: str,
    threads: int = 0,
    processes: int = 0,
) -> LoadTestResult:
    """Judge one concurrent ``replay`` against the serial one: mismatches,
    ``/healthz`` counter deltas (unless ``before`` is ``None``: counters not
    verified) and per-kind latency histograms; with ``check`` a divergence
    raises :class:`LoadTestError`."""
    mismatches = [
        index
        for index in range(len(workload))
        if workload[index].kind != "healthz" and results[index] != expected[index]
    ]
    deltas = expected_counter_deltas(workload)
    counters_consistent = before is None or all(
        after[key] - before[key] == deltas[key] for key in deltas
    )
    # ungated histograms: the load test *is* the measurement, so it records
    # regardless of the global telemetry switch.
    histograms: dict[str, Histogram] = {}
    for kind, latency in samples:
        histogram = histograms.get(kind)
        if histogram is None:
            histogram = histograms[kind] = Histogram(gated=False)
        histogram.observe(latency)
    result = LoadTestResult(
        threads=threads,
        operations=len(workload),
        seconds=seconds,
        num_queries=deltas["queries"],
        num_batches=deltas["batches"],
        num_batch_patterns=deltas["batch_patterns"],
        num_mines=deltas["mines"],
        num_healthz=sum(1 for op in workload if op.kind == "healthz"),
        mismatches=mismatches,
        errors=errors,
        counters_consistent=counters_consistent,
        processes=processes,
        percentiles={
            kind: histogram.percentiles() for kind, histogram in histograms.items()
        },
    )
    if check and not (result.bit_identical and result.counters_consistent):
        detail = "; ".join(errors[:3]) or (
            f"ops {mismatches[:10]} diverged"
            if mismatches
            else "health counters drifted from the workload totals"
        )
        raise LoadTestError(
            f"{replay} diverged from the serial replay ({len(mismatches)} "
            f"mismatches, {len(errors)} errors): {detail}"
        )
    return result


# ----------------------------------------------------------------------
# Multi-process clients
# ----------------------------------------------------------------------
def _client_process_main(base_url: str, tasks, go, conn) -> None:
    """One spawned client process: replay its slice against ``base_url``.

    ``tasks`` is a list of ``(index, Operation)`` pairs; results travel back
    over ``conn`` as ``(indices, results, samples, errors)``.  The process
    signals readiness, then blocks on the shared ``go`` event so every
    client starts hammering at once (the cross-process analogue of the
    thread barrier above).
    """
    from repro.serving.client import ServingClient

    indices: list[int] = []
    results: list[object] = []
    samples: list[tuple[str, float]] = []
    errors: list[str] = []
    with ServingClient(base_url) as client:
        conn.send("ready")
        go.wait()
        for index, operation in tasks:
            began = time.perf_counter()
            try:
                outcome = execute_operation(client, operation)
            except Exception as error:  # noqa: BLE001 - recorded and compared
                errors.append(f"op {index} ({operation.kind}): {error!r}")
            else:
                indices.append(index)
                results.append(outcome)
                samples.append((operation.kind, time.perf_counter() - began))
    conn.send((indices, results, samples, errors))
    conn.close()


def run_load_test_processes(
    base_url: str,
    workload: Sequence[Operation],
    *,
    processes: int = 2,
    expected: Sequence[object] | None = None,
    check: bool = False,
    verify_counters: bool = True,
) -> LoadTestResult:
    """Replay ``workload`` from ``processes`` spawned *client processes*.

    The multi-process twin of :func:`run_load_test` for HTTP targets: a
    single client process is itself GIL-bound, so it cannot saturate the
    multi-process serving tier — here each client is a real OS process with its
    own interpreter, released simultaneously by a shared event.  Process
    ``p`` executes operations ``p, p + P, p + 2*P, ...`` (the same
    deterministic round-robin rule as the threaded harness), every answer
    is compared against a serial replay, and the target's ``/healthz``
    counters must advance by exactly the workload totals — seeded
    determinism and the exactness checks survive the extra process layer.
    """
    from repro.serving.client import ServingClient

    if processes < 1:
        raise ReproError("run_load_test_processes needs at least one process")
    workload = list(workload)
    client = ServingClient(base_url)
    go = _SPAWN.Event()
    members = []
    try:
        if expected is None:
            expected = [execute_operation(client, operation) for operation in workload]
        expected = list(expected)
        if len(expected) != len(workload):
            raise ReproError("expected results and workload differ in length")
        for offset in range(processes):
            tasks = [
                (index, workload[index])
                for index in range(offset, len(workload), processes)
            ]
            parent_conn, child_conn = _SPAWN.Pipe(duplex=False)
            process = _SPAWN.Process(
                target=_client_process_main,
                args=(base_url, tasks, go, child_conn),
                name=f"loadtest-client-{offset}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            members.append((process, parent_conn))
        for offset, (process, parent_conn) in enumerate(members):
            if not parent_conn.poll(SPAWN_TIMEOUT):
                raise LoadTestError(
                    f"client process {offset} not ready within {SPAWN_TIMEOUT:.0f}s"
                )
            parent_conn.recv()  # "ready"

        before = _health(client) if verify_counters else None
        go.set()
        started = time.perf_counter()
        results: list[object] = [None] * len(workload)
        errors: list[str] = []
        samples: list[tuple[str, float]] = []
        for offset, (process, parent_conn) in enumerate(members):
            if not parent_conn.poll(RUN_TIMEOUT):
                raise LoadTestError(
                    f"client process {offset} produced no results within "
                    f"{RUN_TIMEOUT:.0f}s"
                )
            indices, outcomes, member_samples, member_errors = parent_conn.recv()
            for index, outcome in zip(indices, outcomes):
                results[index] = outcome
            samples.extend(member_samples)
            errors.extend(member_errors)
        seconds = time.perf_counter() - started
        after = _health(client) if verify_counters else None
    finally:
        client.close()
        for process, parent_conn in members:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - hung client
                process.terminate()
                process.join(2.0)
            try:
                parent_conn.close()
            except OSError:  # pragma: no cover
                pass

    return _result(
        workload,
        expected,
        results,
        errors,
        samples,
        seconds,
        before,
        after,
        check=check,
        replay=f"multi-process replay with {processes} clients",
        processes=processes,
    )
