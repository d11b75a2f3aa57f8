"""Resilience primitives: backoff, deadlines, admission.

Three small, independently testable pieces the serving stack composes into
its failure-handling story (``docs/RESILIENCE.md``):

:class:`BackoffPolicy`
    Exponential backoff with *decorrelated jitter*: each delay is drawn
    uniformly from ``[base, prev * multiplier]`` and clamped to ``cap``, so
    retry storms decorrelate across clients while every schedule stays
    within ``[base, cap]``.  Seeded — a fixed seed replays the exact delay
    sequence (the chaos drill and the hypothesis suite both rely on this).
:class:`Deadline`
    An absolute wall-clock budget carried end to end: the client stamps
    ``X-DPSC-Deadline`` (:data:`DEADLINE_HEADER`) with ``time.time() +
    timeout``, the router refuses or stops retrying past it, and workers
    refuse already-expired work with 504 instead of computing answers
    nobody is waiting for.  Wall clock, not monotonic, because the value
    crosses process boundaries (localhost tiers share one clock; see
    docs/RESILIENCE.md for the skew caveat).
:class:`AdmissionGate`
    A bounded in-flight counter for load shedding: ``try_enter`` fails once
    ``limit`` requests are in flight, and the router turns that into
    ``503 + Retry-After`` instead of queueing unboundedly.

:func:`call_with_retries` is the retry loop the scheduler (and anything
else with a transient-exception contract) reuses: seeded backoff between
attempts, never retrying exception types outside ``transient`` —
:class:`~repro.exceptions.BudgetExceededError` in particular must always
propagate, a refused privacy charge is not a transient fault.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Iterator

__all__ = [
    "DEADLINE_HEADER",
    "BackoffPolicy",
    "Deadline",
    "AdmissionGate",
    "call_with_retries",
]

#: the deadline header: an absolute ``time.time()`` float, stamped by the
#: client and propagated router -> worker.
DEADLINE_HEADER = "X-DPSC-Deadline"


class BackoffPolicy:
    """Decorrelated-jitter exponential backoff (seeded, replayable)."""

    def __init__(
        self,
        base: float = 0.05,
        cap: float = 2.0,
        multiplier: float = 3.0,
    ) -> None:
        if base <= 0:
            raise ValueError("backoff 'base' must be > 0")
        if cap < base:
            raise ValueError("backoff 'cap' must be >= 'base'")
        if multiplier < 1.0:
            raise ValueError("backoff 'multiplier' must be >= 1")
        self.base = float(base)
        self.cap = float(cap)
        self.multiplier = float(multiplier)

    def iter_delays(self, seed: object) -> Iterator[float]:
        """An endless delay sequence for one request, deterministic in
        ``seed``.  Every delay lies in ``[base, cap]`` and the running cap
        grows at most geometrically (``prev * multiplier``)."""
        rng = random.Random(f"backoff|{seed}")
        prev = self.base
        while True:
            delay = min(self.cap, rng.uniform(self.base, max(self.base, prev * self.multiplier)))
            prev = delay
            yield delay

    def schedule(self, seed: object, attempts: int) -> list[float]:
        """The first ``attempts`` delays of :meth:`iter_delays`."""
        delays = self.iter_delays(seed)
        return [next(delays) for _ in range(attempts)]


class Deadline:
    """An absolute wall-clock instant a request must finish by."""

    __slots__ = ("at",)

    def __init__(self, at: float) -> None:
        self.at = float(at)

    @classmethod
    def after(cls, seconds: float, *, clock: Callable[[], float] = time.time) -> "Deadline":
        return cls(clock() + float(seconds))

    def remaining(self, *, clock: Callable[[], float] = time.time) -> float:
        return self.at - clock()

    def expired(self, *, clock: Callable[[], float] = time.time) -> bool:
        return self.remaining(clock=clock) <= 0.0

    def header_value(self) -> str:
        """The wire form for :data:`DEADLINE_HEADER` (``repr`` round-trips
        the float exactly)."""
        return repr(self.at)

    @classmethod
    def from_header(cls, value: str | None) -> "Deadline | None":
        """Parse a deadline header; ``None`` for absent or garbage values
        (an unparseable deadline must never fail the request itself)."""
        if value is None:
            return None
        try:
            at = float(value)
        except (TypeError, ValueError):
            return None
        if at != at or at in (float("inf"), float("-inf")):
            return None
        return cls(at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(at={self.at!r}, remaining={self.remaining():.3f}s)"


class AdmissionGate:
    """A bounded in-flight counter (the router's load-shedding primitive)."""

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("admission 'limit' must be >= 1")
        self.limit = int(limit)
        self._lock = threading.Lock()
        self._inflight = 0

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def try_enter(self) -> bool:
        with self._lock:
            if self._inflight >= self.limit:
                return False
            self._inflight += 1
            return True

    def leave(self) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)


def call_with_retries(
    fn: Callable[[], object],
    *,
    retries: int,
    transient: tuple[type[BaseException], ...],
    backoff: BackoffPolicy | None = None,
    seed: object = 0,
    deadline: Deadline | None = None,
    on_retry: Callable[[BaseException], None] | None = None,
    sleep: Callable[[float], None] = time.sleep,
):
    """``fn()`` with up to ``retries`` retries on ``transient`` exceptions.

    Non-transient exceptions propagate immediately.  Delays come from a
    seeded :class:`BackoffPolicy` (deterministic per ``seed``); an expired
    ``deadline`` stops retrying even with attempts left.
    """
    policy = backoff if backoff is not None else BackoffPolicy()
    delays = policy.iter_delays(seed)
    attempt = 0
    while True:
        try:
            return fn()
        except transient as error:
            attempt += 1
            if attempt > retries:
                raise
            if deadline is not None and deadline.expired():
                raise
            if on_retry is not None:
                on_retry(error)
            sleep(next(delays))
