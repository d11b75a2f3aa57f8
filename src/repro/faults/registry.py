"""Seeded, deterministic failpoints for chaos drills.

A *failpoint* is a named injection site registered at module level::

    from repro import faults

    _FP_WRITE = faults.failpoint("fsio.write", "Entry of every atomic write.")

    def atomic_write_text(path, text):
        _FP_WRITE.hit()          # no-op unless armed
        ...

Disabled cost is one module-flag check (the same discipline as
:func:`repro.obs.set_enabled`): production code keeps its failpoints
compiled in, and the chaos harness proves the disarmed overhead is ≤1% of
batch throughput (E29).

Armed behaviour is a **pure function of the seed**.  Every site keeps a
per-process hit counter; whether hit ``index`` fires is
``random.Random(f"{seed}|{scope}|{site}|{index}")`` (string seeding, so the
decision stream is independent of ``PYTHONHASHSEED`` and identical across
processes), optionally gated by ``after`` / ``every`` / ``times``.  Each
fire appends ``{"scope", "pid", "site", "index", "action"}`` to the
in-process injection log and, when a sink path is armed, to a shared JSONL
file (``O_APPEND`` single-write lines, multi-process safe).  Because the
decision stream is pure, :func:`verify_log` can *replay* any log — from any
process, in any interleaving — bit-identically from the seed alone; that
replay check is part of the E29 chaos-drill gate.

Actions (see :class:`FaultSpec`):

``raise``
    raise an exception at the site — ``exc`` picks :class:`FaultInjected`
    (surfaces as a JSON 500 from a worker), ``OSError`` (a failed disk or
    socket) or ``ConnectionResetError`` (a peer vanishing mid-request).
``delay``
    sleep ``delay_ms`` milliseconds — a slow disk or a GC-paused worker.
``drop``
    raise :class:`FaultDropConnection`, which HTTP handlers translate into
    closing the socket without a response.
``corrupt``
    deterministically flip one byte of the payload passed through
    :meth:`Failpoint.corrupt` (only sites that move bytes support it —
    ``binfmt.read`` feeds the flipped bytes to its checksum checks).

Worker processes arm from environment variables (:func:`arm_from_env`;
see :func:`env_for`): their supervisor's environment when it started
them, which travels in the worker config.  This module is stdlib-only and
sits below every other layer, like ``repro.obs``.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

__all__ = [
    "FaultInjected",
    "FaultDropConnection",
    "FaultSpec",
    "Failpoint",
    "failpoint",
    "list_failpoints",
    "arm",
    "arm_from_env",
    "armed",
    "active",
    "disarm_all",
    "env_for",
    "injection_log",
    "clear_log",
    "read_log",
    "replay_decisions",
    "verify_log",
    "ENV_SPECS",
    "ENV_SEED",
    "ENV_SCOPE",
    "ENV_LOG",
]

ENV_SPECS = "DPSC_FAULTS"
ENV_SEED = "DPSC_FAULTS_SEED"
ENV_SCOPE = "DPSC_FAULTS_SCOPE"
ENV_LOG = "DPSC_FAULTS_LOG"

_ACTIONS = ("raise", "delay", "drop", "corrupt")
_EXC_KINDS = ("fault", "os", "connection")


class FaultInjected(Exception):
    """An injected application-level fault (HTTP handlers answer 500)."""


class FaultDropConnection(Exception):
    """An injected connection drop (HTTP handlers close without responding)."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed site's behaviour; everything needed to replay it.

    ``probability`` draws per hit from the seeded stream; ``every`` replaces
    the draw with a deterministic cycle (fire every Nth eligible hit);
    ``after`` skips the first N hits; ``times`` caps total fires.
    """

    site: str
    action: str
    probability: float = 1.0
    times: int | None = None
    after: int = 0
    every: int | None = None
    delay_ms: float = 10.0
    exc: str = "fault"

    def __post_init__(self) -> None:
        if not self.site or not isinstance(self.site, str):
            raise ValueError("a fault spec needs a non-empty 'site'")
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown action {self.action!r} (one of {_ACTIONS})"
            )
        if not 0.0 <= float(self.probability) <= 1.0:
            raise ValueError("'probability' must be within [0, 1]")
        if self.times is not None and int(self.times) < 0:
            raise ValueError("'times' must be >= 0")
        if int(self.after) < 0:
            raise ValueError("'after' must be >= 0")
        if self.every is not None and int(self.every) < 1:
            raise ValueError("'every' must be >= 1")
        if float(self.delay_ms) < 0:
            raise ValueError("'delay_ms' must be >= 0")
        if self.exc not in _EXC_KINDS:
            raise ValueError(f"unknown exc kind {self.exc!r} (one of {_EXC_KINDS})")

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultSpec":
        if not isinstance(payload, Mapping):
            raise ValueError(f"a fault spec must be a JSON object, got {payload!r}")
        known = {
            "site", "action", "probability", "times", "after", "every",
            "delay_ms", "exc",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown fault-spec field(s) {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        if "site" not in payload or "action" not in payload:
            raise ValueError("a fault spec needs 'site' and 'action'")
        return cls(**dict(payload))

    def to_dict(self) -> dict:
        payload: dict = {"site": self.site, "action": self.action}
        if self.probability != 1.0:
            payload["probability"] = self.probability
        if self.times is not None:
            payload["times"] = self.times
        if self.after:
            payload["after"] = self.after
        if self.every is not None:
            payload["every"] = self.every
        if self.action == "delay":
            payload["delay_ms"] = self.delay_ms
        if self.action == "raise" and self.exc != "fault":
            payload["exc"] = self.exc
        return payload


def _eligible(spec: FaultSpec, seed: object, scope: str, index: int) -> bool:
    """Whether hit ``index`` fires, ignoring the ``times`` cap — pure."""
    if index < spec.after:
        return False
    if spec.every is not None:
        return (index - spec.after) % spec.every == 0
    if spec.probability >= 1.0:
        return True
    draw = random.Random(f"{seed}|{scope}|{spec.site}|{index}").random()
    return draw < spec.probability


def _corrupt_offset(spec: FaultSpec, seed: object, scope: str, index: int, size: int) -> int:
    return random.Random(
        f"{seed}|{scope}|{spec.site}|{index}|offset"
    ).randrange(size)


def replay_decisions(
    spec: FaultSpec, *, seed: object, scope: str, count: int
) -> list[int]:
    """The hit indices that fire over ``count`` hits — pure recomputation.

    This is exactly the decision stream an armed site walks at runtime
    (same seeding, same ``times`` accounting), so comparing it against an
    observed injection log proves the log replays from the seed alone.
    """
    fired: list[int] = []
    for index in range(count):
        if spec.times is not None and len(fired) >= spec.times:
            break
        if _eligible(spec, seed, scope, index):
            fired.append(index)
    return fired


class _ArmedSite:
    """Runtime state of one armed failpoint (hit/fire counters + lock)."""

    __slots__ = ("spec", "seed", "scope", "hits", "fires", "_lock")

    def __init__(self, spec: FaultSpec, seed: object, scope: str) -> None:
        self.spec = spec
        self.seed = seed
        self.scope = scope
        self.hits = 0
        self.fires = 0
        self._lock = threading.Lock()

    def advance(self) -> tuple[bool, int]:
        """Consume one hit index; return ``(fires, index)``."""
        with self._lock:
            index = self.hits
            self.hits += 1
            if self.spec.times is not None and self.fires >= self.spec.times:
                return False, index
            fires = _eligible(self.spec, self.seed, self.scope, index)
            if fires:
                self.fires += 1
            return fires, index


class Failpoint:
    """One named injection site; a no-op until armed."""

    __slots__ = ("name", "description", "_armed")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._armed: _ArmedSite | None = None

    def hit(self) -> None:
        """Run this site's armed action, if any (raise / delay / drop)."""
        if not _ACTIVE:
            return
        site = self._armed
        if site is None or site.spec.action == "corrupt":
            return
        fires, index = site.advance()
        if not fires:
            return
        spec = site.spec
        _record(site, self.name, index, spec.action)
        if spec.action == "delay":
            time.sleep(spec.delay_ms / 1000.0)
            return
        if spec.action == "drop":
            raise FaultDropConnection(
                f"injected connection drop at {self.name} (hit {index})"
            )
        message = f"injected fault at {self.name} (hit {index})"
        if spec.exc == "os":
            raise OSError(message)
        if spec.exc == "connection":
            raise ConnectionResetError(message)
        raise FaultInjected(message)

    def corrupt(self, data: bytes) -> bytes:
        """``data`` with one deterministically chosen byte flipped when a
        ``corrupt`` action fires at this site; ``data`` unchanged otherwise."""
        if not _ACTIVE:
            return data
        site = self._armed
        if site is None or site.spec.action != "corrupt" or not data:
            return data
        fires, index = site.advance()
        if not fires:
            return data
        _record(site, self.name, index, "corrupt")
        offset = _corrupt_offset(site.spec, site.seed, site.scope, index, len(data))
        mutated = bytearray(data)
        mutated[offset] ^= 0xFF
        return bytes(mutated)

    @property
    def armed_spec(self) -> FaultSpec | None:
        site = self._armed
        return site.spec if site is not None else None

    def stats(self) -> dict:
        site = self._armed
        if site is None:
            return {"site": self.name, "armed": False, "hits": 0, "fires": 0}
        return {
            "site": self.name,
            "armed": True,
            "scope": site.scope,
            "hits": site.hits,
            "fires": site.fires,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "armed" if self._armed is not None else "disarmed"
        return f"Failpoint({self.name!r}, {state})"


# ----------------------------------------------------------------------
# Module state: the registry, the single active flag, the injection log
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Failpoint] = {}
_REGISTRY_LOCK = threading.Lock()
#: the single disabled-path flag — ``Failpoint.hit`` reads only this before
#: returning when no chaos schedule is armed.
_ACTIVE = False
_LOG: list[dict] = []
_LOG_LOCK = threading.Lock()
_LOG_PATH: str | None = None


def failpoint(name: str, description: str = "") -> Failpoint:
    """Get-or-create the failpoint called ``name`` (idempotent, so module
    registration and early env arming can happen in either order)."""
    with _REGISTRY_LOCK:
        point = _REGISTRY.get(name)
        if point is None:
            point = Failpoint(name, description)
            _REGISTRY[name] = point
        elif description and not point.description:
            point.description = description
        return point


def list_failpoints() -> list[Failpoint]:
    """Every registered failpoint, sorted by name."""
    with _REGISTRY_LOCK:
        return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def active() -> bool:
    """Whether any chaos schedule is currently armed in this process."""
    return _ACTIVE


def _record(site: _ArmedSite, name: str, index: int, action: str) -> None:
    entry = {
        "scope": site.scope,
        "pid": os.getpid(),
        "site": name,
        "index": index,
        "action": action,
    }
    with _LOG_LOCK:
        _LOG.append(entry)
        path = _LOG_PATH
    if path is not None:
        _append_line(path, entry)


def _append_line(path: str, entry: dict) -> None:
    """One ``O_APPEND`` write per entry: atomic between processes for lines
    this short, and independent of ``repro.serving._fsio`` (whose writers
    carry failpoints themselves — the sink must never recurse into one)."""
    line = json.dumps(entry, separators=(",", ":")) + "\n"
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    except OSError:  # pragma: no cover - sink directory vanished
        return
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


def arm(
    specs: Iterable[FaultSpec | Mapping],
    *,
    seed: object = 0,
    scope: str | None = None,
    log_path: str | os.PathLike | None = None,
) -> list[FaultSpec]:
    """Arm a chaos schedule in this process.

    ``specs`` may be :class:`FaultSpec` instances or plain dicts (the JSON
    spec format of ``dpsc faults arm``).  Sites not yet registered are
    created lazily — arming can precede the importing of the module that
    owns the site.  Returns the parsed specs.
    """
    global _ACTIVE, _LOG_PATH
    parsed = [
        spec if isinstance(spec, FaultSpec) else FaultSpec.from_dict(spec)
        for spec in specs
    ]
    resolved_scope = scope if scope else "main"
    for spec in parsed:
        point = failpoint(spec.site)
        point._armed = _ArmedSite(spec, seed, resolved_scope)
    with _LOG_LOCK:
        if log_path is not None:
            _LOG_PATH = str(log_path)
    _ACTIVE = True
    return parsed


def disarm_all() -> None:
    """Disarm every site and drop back to the single-flag disabled path.

    The in-process injection log survives (read it with
    :func:`injection_log`, reset it with :func:`clear_log`)."""
    global _ACTIVE, _LOG_PATH
    _ACTIVE = False
    with _REGISTRY_LOCK:
        for point in _REGISTRY.values():
            point._armed = None
    with _LOG_LOCK:
        _LOG_PATH = None


class armed:
    """Context manager: :func:`arm` on entry, :func:`disarm_all` on exit."""

    def __init__(self, specs, **kwargs) -> None:
        self._specs = specs
        self._kwargs = kwargs

    def __enter__(self) -> list[FaultSpec]:
        return arm(self._specs, **self._kwargs)

    def __exit__(self, *exc_info) -> None:
        disarm_all()


def injection_log() -> list[dict]:
    """This process's injection log (one entry per fire, in fire order)."""
    with _LOG_LOCK:
        return [dict(entry) for entry in _LOG]


def clear_log() -> None:
    with _LOG_LOCK:
        _LOG.clear()


def read_log(path: str | os.PathLike) -> list[dict]:
    """Every well-formed entry of a JSONL injection sink (missing -> [])."""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            text = handle.read()
    except FileNotFoundError:
        return []
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


def verify_log(
    entries: Sequence[Mapping],
    specs: Iterable[FaultSpec | Mapping],
    *,
    seed: object,
) -> list[str]:
    """Replay-check an injection log against its schedule; [] means clean.

    For every ``(scope, pid, site)`` decision stream in ``entries``, the
    fired indices are recomputed purely from ``seed`` via
    :func:`replay_decisions` and compared exactly: a log passes iff it is
    bit-identical to the replay (same sites, same indices, same actions,
    fires in index order).  Returns human-readable mismatch descriptions.
    """
    parsed = {
        spec.site: spec
        for spec in (
            s if isinstance(s, FaultSpec) else FaultSpec.from_dict(s)
            for s in specs
        )
    }
    streams: dict[tuple, list[Mapping]] = {}
    problems: list[str] = []
    for entry in entries:
        site = entry.get("site")
        if site not in parsed:
            problems.append(f"log entry for unarmed site {site!r}: {entry}")
            continue
        key = (entry.get("scope"), entry.get("pid"), site)
        streams.setdefault(key, []).append(entry)
    for (scope, pid, site), stream in sorted(
        streams.items(), key=lambda item: (str(item[0][0]), str(item[0][1]), item[0][2])
    ):
        spec = parsed[site]
        indices = [entry.get("index") for entry in stream]
        if indices != sorted(indices):
            problems.append(
                f"{scope}/pid{pid}/{site}: fires out of index order: {indices}"
            )
        expected_action = spec.action
        for entry in stream:
            if entry.get("action") != expected_action:
                problems.append(
                    f"{scope}/pid{pid}/{site}: logged action "
                    f"{entry.get('action')!r} != armed {expected_action!r}"
                )
        count = max(indices) + 1 if indices else 0
        expected = replay_decisions(spec, seed=seed, scope=str(scope), count=count)
        if sorted(indices) != expected:
            problems.append(
                f"{scope}/pid{pid}/{site}: logged fire indices "
                f"{sorted(indices)} != replayed {expected}"
            )
    return problems


# ----------------------------------------------------------------------
# Environment arming (workers start with their supervisor's os.environ)
# ----------------------------------------------------------------------
def env_for(
    specs: Iterable[FaultSpec | Mapping],
    *,
    seed: object = 0,
    scope: str | None = None,
    log_path: str | os.PathLike | None = None,
) -> dict[str, str]:
    """The environment variables that make a child process arm ``specs``
    via :func:`arm_from_env` (validates the specs on the way)."""
    parsed = [
        spec if isinstance(spec, FaultSpec) else FaultSpec.from_dict(spec)
        for spec in specs
    ]
    env = {
        ENV_SPECS: json.dumps([spec.to_dict() for spec in parsed]),
        ENV_SEED: str(seed),
    }
    if scope:
        env[ENV_SCOPE] = scope
    if log_path is not None:
        env[ENV_LOG] = str(log_path)
    return env


def arm_from_env(environ: Mapping[str, str] | None = None) -> bool:
    """Arm from ``DPSC_FAULTS`` / ``DPSC_FAULTS_SEED`` / ``DPSC_FAULTS_SCOPE``
    / ``DPSC_FAULTS_LOG``; returns whether a schedule was armed.

    Called by every cluster worker (and ``dpsc serve``) at startup; a
    malformed spec raises rather than silently running without chaos."""
    environ = os.environ if environ is None else environ
    raw = environ.get(ENV_SPECS)
    if not raw:
        return False
    specs = json.loads(raw)
    if not isinstance(specs, list):
        raise ValueError(f"{ENV_SPECS} must be a JSON list of fault specs")
    arm(
        specs,
        seed=environ.get(ENV_SEED, "0"),
        scope=environ.get(ENV_SCOPE),
        log_path=environ.get(ENV_LOG),
    )
    return True
