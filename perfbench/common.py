"""Helpers shared by the workloads: statistics, process inspection, spans
and the result line."""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: working space of a run (stores, ledgers, server logs); removed afterwards
WORK = ROOT / ".perfbench_work"
#: traced runs leave their Chrome trace and per-layer table here
OUT = ROOT / ".perfbench_out"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def log(message: str) -> None:
    print(message, flush=True)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ----------------------------------------------------------------------
# Host and processes
# ----------------------------------------------------------------------
def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes: a host-speed diagnostic."""
    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - started


def pin_to_one_cpu() -> int:
    """Run this process and every process it starts on one CPU.

    On a shared 2-vCPU virtual machine, client and server on one CPU
    served lookups faster and steadier than on two: over
    5 alternating runs each, the spread of the median lookup latency
    between the quartiles fell from 35% to 14% of its median."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment() -> dict:
    return {
        "available_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def cpu_ticks() -> tuple[int, int]:
    """Steal and total CPU ticks of the host since boot, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def _stat_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    # the command name may hold spaces and parentheses: split after the last ')'
    return text[text.rindex(")") + 2 :].split()


def session_pids(session: int) -> list[int]:
    """Every live process of a session: a server started as a session
    leader, with every process it spawned."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except (OSError, ValueError):
            continue
        if int(fields[3]) == session and fields[0] not in ("Z", "X"):
            pids.append(int(entry))
    return pids


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of one process, from ``/proc/<pid>/stat``."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pids) -> float:
    """The largest peak resident set (``VmHWM``) among ``pids``."""
    peak_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    peak_kb = max(peak_kb, int(line.split()[1]))
                    break
    return peak_kb / 1024.0


def pss_mb(pids) -> float:
    """Proportional set size summed over ``pids``."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """The benchmark's own spans, kept in memory and written once at the end
    in the Chrome trace-event format ``BuildProfile.chrome_trace`` emits."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.events: list[dict] = []

    def add(self, name: str, start: float, end: float, *, tid: int = 0, **args) -> None:
        if self.enabled:
            self.events.append(
                {
                    "name": name,
                    "cat": "perfbench",
                    "ph": "X",
                    "ts": (start - self.origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": os.getpid(),
                    "tid": tid,
                    "args": args,
                }
            )

    @contextmanager
    def span(self, name: str, **args):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, started, time.perf_counter(), **args)

    def add_events(self, events: list[dict], shift_us: float) -> None:
        """Append events recorded elsewhere, moved onto this trace's clock."""
        for event in events:
            self.events.append(dict(event, ts=event["ts"] + shift_us))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": self.events, "displayTimeUnit": "ms"}))


# ----------------------------------------------------------------------
# Timed phases
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """One phase's timed blocks, pooled.

    A single caller sends each operation when the previous one returned
    (a closed loop of one); the phase runs in blocks so that another phase
    can run between them."""

    name: str
    #: patterns per operation (a scan's batch size)
    unit: int = 1
    seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    #: the median latency of each block
    block_p50: list[float] = field(default_factory=list)
    failures: "Failures" = field(default_factory=lambda: Failures())
    #: operations sent so far, so the next block continues the stream
    calls: int = 0

    def run_block(self, call, seconds: float, tracer: "Tracer | None" = None) -> None:
        """Send operations until ``seconds`` have passed.  ``call(k)`` sends
        operation ``k`` and returns ``None`` when the answer is right, else
        why it is wrong; an exception is a failed operation too."""
        clock = time.perf_counter
        started = clock()
        deadline = started + seconds
        first = len(self.latencies)
        k = self.calls
        while True:
            begin = clock()
            if begin >= deadline:
                break
            try:
                reason = call(k)
            except Exception as error:  # noqa: BLE001 - every failure is counted
                reason = f"{type(error).__name__}: {error}"
            end = clock()
            self.latencies.append(end - begin)
            self.failures.record(reason is None, reason or "")
            if tracer is not None:
                tracer.add(f"{self.name}.request", begin, end, k=k)
            k += 1
        self.calls = k
        self.seconds += clock() - started
        if len(self.latencies) > first:
            self.block_p50.append(median(self.latencies[first:]))

    @property
    def completed(self) -> int:
        """Operations that returned, right or wrong."""
        return len(self.latencies)

    @property
    def succeeded(self) -> int:
        return self.failures.attempted - self.failures.failed

    def ms(self, q: float) -> float:
        return percentile(self.latencies, q) * 1e3


def phase_metrics(lookup: Phase, scan: Phase, references: dict[str, Phase]) -> dict[str, tuple[float, str, int]]:
    """The loaded-phase metrics every workload reports.  ``<p>.p50_rel`` is
    the median over rounds of the phase's block median latency over its
    reference exchange's block median in the same round (see reference.py)."""
    metrics = {}
    for phase in (lookup, scan):
        reference = references[phase.name]
        ratios = [p / r for p, r in zip(phase.block_p50, reference.block_p50)]
        metrics[f"{phase.name}.p50_rel"] = (median(ratios), "x", len(ratios))
        metrics[f"reference.{phase.name}.p50_ms"] = (reference.ms(50), "ms", len(reference.latencies))
    return metrics | {
        "lookup.req_per_s": (lookup.succeeded / lookup.seconds, "1/s", lookup.completed),
        "lookup.p50_ms": (lookup.ms(50), "ms", len(lookup.latencies)),
        "lookup.p90_ms": (lookup.ms(90), "ms", len(lookup.latencies)),
        "lookup.p99_ms": (lookup.ms(99), "ms", len(lookup.latencies)),
        "scan.patterns_per_s": (scan.succeeded * scan.unit / scan.seconds, "1/s", scan.completed),
        "scan.p50_ms": (scan.ms(50), "ms", len(scan.latencies)),
        "scan.p90_ms": (scan.ms(90), "ms", len(scan.latencies)),
        "scan.p99_ms": (scan.ms(99), "ms", len(scan.latencies)),
    }


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
class Report:
    """Named metrics with unit and sample count, printed as a table and as
    the final JSON line."""

    def __init__(self, metrics: dict[str, tuple[float, str, int]]) -> None:
        self.metrics = {name: (float(v), unit, int(n)) for name, (v, unit, n) in metrics.items()}

    def table(self) -> str:
        width = max((len(name) for name in self.metrics), default=0)
        return "\n".join(
            f"  {name:<{width}}  {value:>14.6g} {unit:<6} n={samples}"
            for name, (value, unit, samples) in sorted(self.metrics.items())
        )

    def result_line(self, names, *, attempted: int, failed: int, correct: bool) -> str:
        """The result with exactly ``names``, the metrics the manifest registers."""
        return json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": self.metrics[name][0], "unit": self.metrics[name][1]}
                    for name in names
                },
            }
        )


class Failures:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)
        return ok

    def merge(self, other: "Failures") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[: max(0, 10 - len(self.reasons))])
