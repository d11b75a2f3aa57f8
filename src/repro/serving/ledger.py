"""Cumulative privacy accounting across multiple releases of one database.

A single :class:`~repro.core.private_trie.PrivateCountingTrie` can be queried
forever at no extra privacy cost, but every *new release built from the same
database* composes: by simple composition (Lemma 1, implemented in
:mod:`repro.dp.composition`), publishing structures with budgets
``(epsilon_i, delta_i)`` costs ``(sum epsilon_i, sum delta_i)`` in total.

:class:`BudgetLedger` enforces a global cap on that total, per database id.
:func:`build_release` is the guarded entry point the serving layer uses: it
*refuses before touching the data* when the requested budget would exceed
the cap, otherwise builds the structure and records the expenditure.  The
ledger optionally persists itself to JSON so the accounting survives curator
restarts.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.core.private_trie import PrivateCountingTrie
from repro.dp.composition import CompositionRecord, PrivacyAccountant, PrivacyBudget
from repro.exceptions import BudgetExceededError, PrivacyParameterError
from repro.serving._fsio import (
    FileLock,
    append_jsonl,
    atomic_write_json,
    file_signature,
    read_jsonl,
)

__all__ = ["BudgetLedger", "build_release"]


class BudgetLedger:
    """Tracks privacy spent per database and refuses over-cap charges.

    Parameters
    ----------
    cap:
        The global ``(epsilon, delta)`` budget no database may exceed across
        all of its releases combined.  When a persisted ledger file records
        a *stricter* cap than the one passed here, the stricter value wins
        component-wise — re-opening a ledger can never silently relax a
        previously configured policy.
    path:
        Optional JSON file the ledger loads on construction and rewrites
        after every charge, so accounting is durable across curator runs.
        A persistent ledger also appends one record per accounting *event*
        — every successful charge, every refusal, every published release
        version (:meth:`record_release`) — with timestamp, curator pid and
        the running totals at that moment to ``<path stem>.audit.jsonl``
        next to ``path`` (:attr:`audit_path`); in-memory ledgers keep no
        trail.  The audit log is the *who-did-what-when* trail; ``path``
        stays the authoritative record of the balances themselves.

    Durability and concurrency
    --------------------------
    The file is rewritten atomically (tmp file + fsync + ``os.replace``)
    after every charge, so a crash mid-write can never truncate or lose
    accounting: readers observe either the pre-charge or the post-charge
    ledger, both complete.  Charges from threads of one process serialize
    on an internal lock; charges from *different* curator processes
    serialize on an advisory ``<path>.lock`` file, and every charge first
    re-reads the file when its on-disk signature changed — so two curators
    sharing one ledger file can no longer both pass the affordability check
    and double-spend the cap.
    """

    def __init__(self, cap: PrivacyBudget, path: str | Path | None = None) -> None:
        self.cap = cap
        self._path = Path(path) if path is not None else None
        self._audit_path = (
            self._path.with_name(self._path.stem + ".audit.jsonl")
            if self._path is not None
            else None
        )
        self._accountants: dict[str, PrivacyAccountant] = {}
        self._epochs: dict[str, list[dict]] = {}
        self._lock = threading.Lock()
        self._file_lock = (
            FileLock(self._path.with_name(self._path.name + ".lock"))
            if self._path is not None
            else contextlib.nullcontext()
        )
        self._signature: tuple[int, int] | None = None
        if self._path is not None and self._path.exists():
            with self._file_lock:
                self._load()
                # Persist the *effective* (component-wise min) cap right
                # away: a reopen that tightened the policy must be durable
                # even if this process never charges anything.
                if self._loaded_cap != (self.cap.epsilon, self.cap.delta):
                    self._save()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def spent(self, database_id: str) -> PrivacyBudget:
        """Composed budget of everything charged to ``database_id`` so far."""
        with self._lock:
            self._refresh_if_stale()
            return self._accountant(database_id).total()

    def remaining(self, database_id: str) -> tuple[float, float]:
        """``(epsilon, delta)`` still available under the cap (clamped at 0)."""
        with self._lock:
            self._refresh_if_stale()
            accountant = self._accountant(database_id)
            return (
                max(0.0, self.cap.epsilon - accountant.total_epsilon),
                max(0.0, self.cap.delta - accountant.total_delta),
            )

    def can_afford(self, database_id: str, budget: PrivacyBudget) -> bool:
        """Would charging ``budget`` stay within the cap?"""
        with self._lock:
            self._refresh_if_stale()
            return self._can_afford(database_id, budget.epsilon, budget.delta)

    def _can_afford(self, database_id: str, epsilon: float, delta: float) -> bool:
        """Affordability over raw floats — epoch charges may be exactly zero
        (non-power-of-two epochs of the tree schedule), which
        :class:`PrivacyBudget` cannot represent."""
        accountant = self._accountant(database_id)
        tolerance = 1e-9
        return (
            accountant.total_epsilon + epsilon <= self.cap.epsilon + tolerance
            and accountant.total_delta + delta <= self.cap.delta + tolerance
        )

    def charge(
        self, database_id: str, budget: PrivacyBudget, label: str = "release"
    ) -> None:
        """Record an expenditure, or raise :class:`BudgetExceededError`
        without recording anything when it would breach the cap.

        With a persistence path the charge runs as one atomic
        check-spend-save critical section: under the in-process lock *and*
        the advisory file lock, against freshly re-read accounting whenever
        another process changed the file since we last saw it.
        """
        self._book(database_id, budget.epsilon, budget.delta, label)

    def entries(self, database_id: str | None = None) -> list[tuple[str, CompositionRecord]]:
        """``(database_id, record)`` pairs, optionally for one database."""
        with self._lock:
            self._refresh_if_stale()
            return self._entries(database_id)

    # ------------------------------------------------------------------
    # Epoch accounting (continual release)
    # ------------------------------------------------------------------
    def charge_epoch(
        self,
        database_id: str,
        epoch: int,
        epsilon: float,
        delta: float = 0.0,
        *,
        label: str = "epoch",
    ) -> None:
        """Record one epoch's *marginal* charge under a continual-release
        schedule (see :class:`repro.dp.ContinualAccountant`).

        Unlike :meth:`charge`, the amounts are raw floats because the tree
        schedule's marginal is exactly zero at non-power-of-two epochs —
        those epochs still get a durable ledger entry and an audit record,
        so the trail shows every release, not just the charged ones.
        Epochs must arrive in order (1, 2, 3, ...) per database; the charge
        runs through the same locked, atomic step as :meth:`charge`, so a
        crash mid-epoch can never lose or double-book accounting.
        """
        if epsilon < 0 or delta < 0:
            raise PrivacyParameterError("cannot charge a negative epoch budget")
        self._book(database_id, epsilon, delta, label, epoch)

    def _book(
        self,
        database_id: str,
        epsilon: float,
        delta: float,
        label: str,
        epoch: int | None = None,
    ) -> None:
        """The one check-refuse-spend-audit-save step behind :meth:`charge`
        and (with ``epoch``) :meth:`charge_epoch`, under the in-process lock
        and, for a persistent ledger, the advisory file lock."""
        with self._lock, self._file_lock:
            self._refresh_if_stale()
            amount = {"epsilon": epsilon, "delta": delta}
            if epoch is not None:
                recorded = self._epochs.setdefault(database_id, [])
                expected = len(recorded) + 1
                if epoch != expected:
                    raise PrivacyParameterError(
                        f"epochs must be charged in order for {database_id!r}: "
                        f"expected epoch {expected}, got {epoch}"
                    )
                amount = {"epoch": epoch, **amount}
            accountant = self._accountant(database_id)
            if not self._can_afford(database_id, epsilon, delta):
                self._audit("refusal", database_id, label=label, extra=amount)
                what = "" if epoch is None else f"epoch {epoch} "
                raise BudgetExceededError(
                    f"charging {what}({epsilon:g}, {delta:g}) to "
                    f"{database_id!r} would exceed the global cap "
                    f"({self.cap.epsilon:g}, {self.cap.delta:g}); already spent "
                    f"({accountant.total_epsilon:g}, {accountant.total_delta:g})",
                    requested=(epsilon, delta),
                    spent=(accountant.total_epsilon, accountant.total_delta),
                    cap=(self.cap.epsilon, self.cap.delta),
                )
            accountant.spend(label, epsilon, delta)
            if epoch is not None:
                recorded.append({**amount, "label": label})
            # Audit before the balance save: if the curator dies between the
            # two, the trail shows a charge the ledger never booked (a
            # visible, privacy-safe over-report), never a booked charge with
            # no trail.
            event = "charge" if epoch is None else "charge_epoch"
            try:
                self._audit(event, database_id, label=label, extra=amount)
                self._save()
            except BaseException:
                # A charge the file does not hold is not booked in memory
                # either, so this handle and a reopened one agree on it.
                accountant.records.pop()
                if epoch is not None:
                    recorded.pop()
                raise

    def epoch_entries(self, database_id: str | None = None) -> list[dict]:
        """The durable per-epoch records, in charge order.

        Each entry carries ``epoch``, ``epsilon``, ``delta`` and ``label``;
        with ``database_id=None`` every database's entries are returned with
        a ``database_id`` key added.
        """
        with self._lock:
            self._refresh_if_stale()
            if database_id is not None:
                return [dict(entry) for entry in self._epochs.get(database_id, [])]
            return [
                {"database_id": name, **entry}
                for name in sorted(self._epochs)
                for entry in self._epochs[name]
            ]

    def next_epoch(self, database_id: str) -> int:
        """The epoch number the next :meth:`charge_epoch` must carry —
        how a restarted scheduler resumes a persisted schedule."""
        with self._lock:
            self._refresh_if_stale()
            return len(self._epochs.get(database_id, ())) + 1

    def _entries(
        self, database_id: str | None = None
    ) -> list[tuple[str, CompositionRecord]]:
        names = [database_id] if database_id is not None else sorted(self._accountants)
        return [
            (name, record)
            for name in names
            for record in self._accountant(name).records
        ]

    # ------------------------------------------------------------------
    # Audit trail
    # ------------------------------------------------------------------
    @property
    def audit_path(self) -> Path | None:
        """Where the JSONL audit trail is written (``None`` = no trail)."""
        return self._audit_path

    def _audit(
        self,
        event: str,
        database_id: str,
        *,
        label: str | None = None,
        extra: dict | None = None,
    ) -> None:
        """Append one audit record; called with the ledger lock held."""
        if self._audit_path is None:
            return
        accountant = self._accountant(database_id)
        record: dict = {
            "ts": time.time(),
            "pid": os.getpid(),
            "event": event,
            "database_id": database_id,
            "spent_epsilon": accountant.total_epsilon,
            "spent_delta": accountant.total_delta,
            "cap_epsilon": self.cap.epsilon,
            "cap_delta": self.cap.delta,
        }
        if label is not None:
            record["label"] = label
        if extra:
            record.update(extra)
        append_jsonl(self._audit_path, record)

    def record_release(
        self,
        database_id: str,
        *,
        version: int,
        digest: str,
        label: str = "release",
        format: str | None = None,
    ) -> None:
        """Audit that a built structure was actually *published*.

        A ``charge`` records budget leaving the cap; this records the
        artifact it paid for — the store version, content digest and (when
        known) payload format — so the trail links every expenditure to a
        verifiable release artifact.
        """
        extra: dict = {"version": version, "digest": digest}
        if format is not None:
            extra["format"] = format
        with self._lock:
            self._audit(
                "release",
                database_id,
                label=label,
                extra=extra,
            )

    def audit_entries(self, database_id: str | None = None) -> list[dict]:
        """The surviving audit records, oldest first (malformed lines are
        skipped — see :func:`repro.serving._fsio.read_jsonl`)."""
        if self._audit_path is None:
            return []
        records = read_jsonl(self._audit_path)
        if database_id is not None:
            records = [r for r in records if r.get("database_id") == database_id]
        return records

    def database_ids(self) -> list[str]:
        with self._lock:
            self._refresh_if_stale()
            return sorted(self._accountants)

    def summary(self) -> str:
        """Human-readable per-database accounting breakdown."""
        with self._lock:
            self._refresh_if_stale()
            lines = [f"cap: epsilon={self.cap.epsilon:g}, delta={self.cap.delta:g}"]
            for name in sorted(self._accountants):
                lines.append(f"database {name!r}:")
                lines.append(self._accountant(name).summary())
            return "\n".join(lines)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _accountant(self, database_id: str) -> PrivacyAccountant:
        return self._accountants.setdefault(database_id, PrivacyAccountant())

    def _refresh_if_stale(self) -> None:
        """Re-read the ledger file when another process replaced it.

        Every mutation goes through :meth:`_save`, so an *existing* file is
        always a superset of what this process wrote; dropping the
        in-memory state and reloading can only *add* other curators'
        charges.  A *vanished* file is the opposite case — memory is then
        the only copy of the accounting — so it is kept (and re-persisted
        by the next charge) rather than forgotten, which would let a
        curator double-spend against an empty ledger.
        """
        if self._path is None:
            return
        signature = file_signature(self._path)
        if signature == self._signature:
            return
        if signature is None:
            self._signature = None
            return
        self._accountants = {}
        self._epochs = {}
        self._load()

    def _save(self) -> None:
        if self._path is None:
            return
        cap = (self.cap.epsilon, self.cap.delta)
        payload = {
            "cap": {"epsilon": cap[0], "delta": cap[1]},
            "entries": [
                {
                    "database_id": name,
                    "label": record.label,
                    "epsilon": record.epsilon,
                    "delta": record.delta,
                }
                for name, record in self._entries()
            ],
        }
        if self._epochs:
            # Continual-release schedules persist their per-epoch records too
            # (absent for single-shot ledgers, so pre-epoch files keep their
            # exact shape).
            payload["epochs"] = {
                name: [dict(entry) for entry in entries]
                for name, entries in sorted(self._epochs.items())
                if entries
            }
        # Atomic + fsynced: a crash mid-save leaves the previous complete
        # ledger in place — privacy accounting is never lost or truncated.
        atomic_write_json(self._path, payload, indent=2)
        self._signature = file_signature(self._path)
        self._loaded_cap = cap

    def _load(self) -> None:
        signature = file_signature(self._path)
        payload = json.loads(self._path.read_text())
        stored_cap = payload.get("cap")
        self._loaded_cap = (
            (stored_cap["epsilon"], stored_cap["delta"])
            if stored_cap is not None
            else None
        )
        if stored_cap is not None:
            # Never let a default-capped reopen weaken the recorded policy.
            self.cap = PrivacyBudget(
                min(self.cap.epsilon, stored_cap["epsilon"]),
                min(self.cap.delta, stored_cap["delta"]),
            )
        for entry in payload.get("entries", []):
            self._accountant(entry["database_id"]).spend(
                entry["label"], entry["epsilon"], entry["delta"]
            )
        for name, entries in payload.get("epochs", {}).items():
            self._epochs[name] = [dict(entry) for entry in entries]
        self._signature = signature


def build_release(
    database: StringDatabase,
    params: ConstructionParams,
    *,
    ledger: BudgetLedger,
    database_id: str,
    label: str = "release",
    rng: np.random.Generator | None = None,
    kind: str = "heavy-path",
    registry=None,
    store=None,
    release_format: str | None = None,
    **build_kwargs,
) -> PrivateCountingTrie:
    """Build a private structure only if the ledger authorizes its budget.

    The construction is dispatched through the :mod:`repro.api` structure
    registry (``registry``, default the process-wide one): ``kind`` names
    any registered structure kind and ``build_kwargs`` are forwarded to its
    builder (e.g. ``q=4`` for the q-gram kinds), so every kind — including
    ones registered by downstream scenarios — gets ledger-guarded releases.

    The affordability check runs *before* the construction, so a refused
    build never touches the sensitive database; the charge is recorded only
    after the construction succeeds (an aborted construction that released
    nothing costs nothing under the paper's fail semantics, whose abort
    decision is itself privately computed).

    When ``store`` (a :class:`repro.serving.ReleaseStore`) is given, the
    built structure is additionally saved as the next version of the
    release named ``database_id`` in ``release_format`` (``"json"`` /
    ``"binary"`` / ``None`` for the store default) and the publication —
    version, digest *and* payload format — is audited via
    :meth:`BudgetLedger.record_release`, so build + persist + audit is one
    atomic-enough step for CLI and api callers.
    """
    budget = params.budget
    if not ledger.can_afford(database_id, budget):
        # Re-raise through charge() for the detailed error message.
        ledger.charge(database_id, budget, label)
    if registry is None:
        # Imported lazily: repro.api sits above serving in the layer
        # diagram, so the ledger only reaches for it at call time.
        from repro.api.registry import default_registry

        registry = default_registry()
    structure = registry.build(kind, database, params, rng=rng, **build_kwargs)
    ledger.charge(database_id, budget, label)
    if store is not None:
        record = store.save(database_id, structure, format=release_format)
        ledger.record_release(
            database_id,
            version=record.version,
            digest=record.digest,
            label=label,
            format=record.format,
        )
    return structure
