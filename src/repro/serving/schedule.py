"""The epoch scheduler: stream -> build -> ledger -> store -> hot reload.

:class:`EpochScheduler` owns the serving side of the continual-release
pipeline.  For every epoch an append-only :class:`~repro.api.CorpusStream`
has grown past the last release, :meth:`EpochScheduler.run_epoch`:

1. pre-checks the epoch's *marginal* budget (the dyadic-tree schedule of
   :class:`~repro.dp.ContinualAccountant`: the full epoch budget at
   power-of-two epochs, zero otherwise) against the
   :class:`~repro.serving.BudgetLedger` cap — a refused epoch never touches
   the documents;
2. builds the epoch's combined ``heavy-path-continual`` release, reusing
   cached per-interval structures so only the one newly-completed interval
   is constructed;
3. charges the marginal via :meth:`BudgetLedger.charge_epoch` (durable,
   audited) and publishes the structure as the next store version, tagged
   with the epoch and its parent version;
4. triggers :meth:`Cluster.reload` — the atomic generation swap of the
   sharded tier, under which no request is dropped and no client observes a
   version mix — or hands single-process callers a fresh pinned
   :class:`~repro.serving.QueryService` via :meth:`current_service`.

The ledger is the schedule's one record: the scheduler keeps no count of
its own, so every handle on one ledger file — a restarted process, or a
second scheduler running beside the first — reads the same position.

Version pinning: every published version records its epoch, so
:meth:`version_for_epoch` lets an in-flight client keep querying its epoch's
snapshot (``QueryService.from_store(..., versions=...)``) while the tier
moves on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.params import ConstructionParams
from repro.dp.composition import ContinualAccountant, PrivacyBudget
from repro.exceptions import ReleaseNotFoundError, ReproError
from repro.serving.ledger import BudgetLedger
from repro.serving.resilience import BackoffPolicy, call_with_retries
from repro.serving.store import ReleaseStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.stream import CorpusStream
    from repro.serving.cluster import Cluster
    from repro.serving.server import QueryService

__all__ = ["EpochScheduler", "EpochRelease"]

#: schedule horizon: ample for any realistic stream, and irrelevant to the
#: marginal charges (which depend only on the epoch number).
HORIZON = 1 << 20
#: the ledger label of every epoch charge; a release is audited as
#: ``epoch-<n>``.
LABEL = "epoch"
#: re-attempts of a failed cluster hot reload, and the backoff between them.
RELOAD_RETRIES = 3
RELOAD_BACKOFF = BackoffPolicy(base=0.02, cap=0.5)


@dataclass(frozen=True)
class EpochRelease:
    """What one scheduler step produced."""

    epoch: int
    version: int
    digest: str
    #: marginal budget this epoch charged (zero off the power-of-two grid).
    epsilon: float
    delta: float
    #: cumulative ledger spend after the charge.
    spent_epsilon: float
    spent_delta: float
    num_patterns: int
    #: whether a cluster generation swap was performed for this release.
    reloaded: bool


class EpochScheduler:
    """Builds, accounts and publishes one release per stream epoch.

    Parameters
    ----------
    stream / store / ledger:
        The corpus stream released, the release store published into, and
        the budget ledger charged (cap enforcement + audit trail).  The
        stream's name is both the store release name and the ledger
        database id.
    params:
        Per-epoch construction parameters; ``params.budget`` is the *epoch
        budget* of the tree schedule, so a ledger cap of
        ``levels * epoch_budget`` funds the whole horizon.
    seed:
        Base seed of the per-interval RNGs — replaying the same stream with
        the same seed reproduces every release digest exactly.
    cluster:
        Optional :class:`~repro.serving.Cluster` to hot-reload after every
        publish.  Single-process servers instead swap in
        :meth:`current_service` output.
    build_kwargs:
        Forwarded to :func:`~repro.api.continual.build_continual_structure`
        (e.g. ``base_kind`` and its ``q``).

    The schedule's position is the ledger's (:meth:`BudgetLedger.next_epoch`):
    a restarted scheduler resumes where the ledger says the schedule
    stopped, and epochs already charged are never re-charged.
    """

    def __init__(
        self,
        stream: "CorpusStream",
        store: ReleaseStore,
        ledger: BudgetLedger,
        *,
        params: ConstructionParams,
        seed: int = 0,
        cluster: "Cluster | None" = None,
        **build_kwargs,
    ) -> None:
        self.stream = stream
        self.store = store
        self.ledger = ledger
        self.params = params
        self.seed = int(seed)
        self.cluster = cluster
        self.build_kwargs = dict(build_kwargs)
        #: the schedule's closed form (marginals and the tree bound); it is
        #: never charged, since the ledger records what was released.
        self.continual = ContinualAccountant(params.budget, horizon=HORIZON)
        #: per-interval structure cache: one fresh build per epoch.
        self._cache: dict[tuple[int, int], object] = {}
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        """The store release name and ledger database id: the stream's."""
        return self.stream.name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def released_epochs(self) -> int:
        """Epochs released so far: the ledger's schedule position."""
        return self.ledger.next_epoch(self.name) - 1

    def pending_epochs(self) -> list[int]:
        """Stream epochs that arrived but have not been released yet."""
        return list(range(self.released_epochs + 1, self.stream.num_epochs + 1))

    def version_for_epoch(self, epoch: int) -> int:
        """The store version serving ``epoch``'s snapshot — what a pinned
        client passes to ``QueryService.from_store(versions=...)``."""
        for record in self.store.list_releases():
            if record.name == self.name and record.epoch == epoch:
                return record.version
        raise ReleaseNotFoundError(
            f"release {self.name!r} has no version for epoch {epoch}"
        )

    def status(self) -> dict:
        """JSON-friendly schedule state (``dpsc epochs status``), read from
        one view of the ledger's epoch records."""
        spent = (
            self.ledger.spent(self.name).epsilon
            if self.name in self.ledger.database_ids()
            else 0.0
        )
        epochs = self.ledger.epoch_entries(self.name)
        released = len(epochs)
        tree_epsilon, tree_delta = self.continual.spent_through(released)
        return {
            "release": self.name,
            "database_id": self.name,
            "stream_epochs": self.stream.num_epochs,
            "released_epochs": released,
            "pending_epochs": list(range(released + 1, self.stream.num_epochs + 1)),
            "spent_epsilon": spent,
            "cap_epsilon": self.ledger.cap.epsilon,
            "cap_delta": self.ledger.cap.delta,
            "tree_bound_epsilon": tree_epsilon,
            "tree_bound_delta": tree_delta,
            "naive_epsilon": released * self.params.budget.epsilon,
            "epoch_budget_epsilon": self.params.budget.epsilon,
            "epoch_budget_delta": self.params.budget.delta,
            "epochs": epochs,
        }

    # ------------------------------------------------------------------
    # The step: one epoch end to end
    # ------------------------------------------------------------------
    def run_epoch(self, epoch: int | None = None) -> EpochRelease:
        """Release the next pending epoch (``epoch`` must match it when
        given) and return the publication record."""
        # Imported lazily: repro.api sits above serving in the layer diagram.
        from repro.api.continual import build_continual_structure

        with self._lock:
            expected = self.released_epochs + 1
            if epoch is None:
                epoch = expected
            if epoch != expected:
                raise ReproError(
                    f"epochs release in order: expected {expected}, got {epoch}"
                )
            if epoch > self.stream.num_epochs:
                raise ReproError(
                    f"epoch {epoch} has not arrived in stream "
                    f"{self.stream.name!r} ({self.stream.num_epochs} epoch(s))"
                )
            # Refuse-before-build: when this epoch carries a real marginal
            # charge, an unaffordable schedule must not touch the documents.
            epsilon, delta = self.continual.marginal(epoch)
            if (epsilon > 0 or delta > 0) and not self.ledger.can_afford(
                self.name, PrivacyBudget(epsilon, delta)
            ):
                # charge_epoch raises the detailed BudgetExceededError and
                # audits the refusal; nothing is recorded.
                self.ledger.charge_epoch(self.name, epoch, epsilon, delta, label=LABEL)
            structure = build_continual_structure(
                self.stream,
                self.params,
                epoch=epoch,
                seed=self.seed,
                cache=self._cache,
                **self.build_kwargs,
            )
            # Durable accounting first (audited, crash-safe), then the
            # artifact: a crash in between leaves a charge whose release
            # never published — visible in the trail, re-publishable free
            # of charge (combination is post-processing).
            self.ledger.charge_epoch(self.name, epoch, epsilon, delta, label=LABEL)
            record = self.store.save(self.name, structure, epoch=epoch)
            self.ledger.record_release(
                self.name,
                version=record.version,
                digest=record.digest,
                label=f"{LABEL}-{epoch}",
                format=record.format,
            )
            spent = self.ledger.spent(self.name)
            return EpochRelease(
                epoch=epoch,
                version=record.version,
                digest=record.digest,
                epsilon=epsilon,
                delta=delta,
                spent_epsilon=spent.epsilon,
                spent_delta=spent.delta,
                num_patterns=record.num_patterns,
                reloaded=self._trigger_reload(),
            )

    def run_pending(self) -> list[EpochRelease]:
        """Release every epoch the stream holds but the store does not."""
        return [self.run_epoch() for _ in self.pending_epochs()]

    # ------------------------------------------------------------------
    # Serving integration
    # ------------------------------------------------------------------
    def _trigger_reload(self) -> bool:
        if self.cluster is None:
            return False
        try:
            summary = call_with_retries(
                self.cluster.reload,
                retries=RELOAD_RETRIES,
                transient=(ReproError, OSError),
                backoff=RELOAD_BACKOFF,
                seed=f"{self.seed}:reload",
            )
        except (ReproError, OSError):
            # The release is already published and accounted; a failed swap
            # only delays serving it — the next epoch's reload (or a manual
            # /admin/reload) picks it up.  Swallowing is safe, losing the
            # already-charged release would not be.
            return False
        return bool(summary.get("reloaded"))

    def current_service(self, **kwargs) -> "QueryService":
        """A fresh single-process :class:`QueryService` pinned to the latest
        published version — the swap path for non-cluster servers (build the
        new service, exchange the handle, ``close()`` the old one)."""
        from repro.serving.server import QueryService

        version = self.store.resolve_version(self.name)
        return QueryService.from_store(
            self.store,
            [self.name],
            versions={self.name: version},
            **kwargs,
        )
