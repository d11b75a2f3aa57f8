"""The fluent entry point: documents -> budget -> counter -> release.

:class:`Dataset` is the one-stop public way to build any registered
structure kind::

    from repro import Dataset
    from repro.serving import ReleaseStore

    counter = (
        Dataset.from_documents(["GATTACA", "ACGTACGT", ...])
        .with_budget(epsilon=20.0)
        .build("heavy-path")
    )
    counter.query("ACG")                 # noisy count, post-processing
    counter.query_many(["ACG", "GAT"])   # vectorized batch
    counter.release(ReleaseStore("./rel"), "genome")

Each ``with_*`` method returns a **new** dataset (the object is immutable),
so partially configured datasets can be shared and forked freely.  Attaching
a :class:`~repro.serving.BudgetLedger` with :meth:`with_ledger` routes every
build through :func:`repro.serving.build_release`, which refuses — before
touching the data — any build whose budget no longer fits under the ledger's
global cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.api.protocol import PrivateCounter
from repro.api.registry import StructureRegistry, default_registry
from repro.api.stream import CorpusStream
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.dp.composition import PrivacyBudget
from repro.exceptions import PrivacyParameterError
from repro.strings.alphabet import Alphabet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.ledger import BudgetLedger

__all__ = ["Dataset"]

#: Kind built when :meth:`Dataset.build` is called without one.
DEFAULT_KIND = "heavy-path"


@dataclass(frozen=True)
class Dataset:
    """An immutable (database, construction parameters) pair with a fluent
    builder interface over the structure-kind registry."""

    database: StringDatabase
    params: ConstructionParams = field(
        default_factory=lambda: ConstructionParams.pure(1.0)
    )
    registry: StructureRegistry = field(default_factory=default_registry)
    ledger: "BudgetLedger | None" = None
    ledger_database_id: str | None = None
    ledger_label: str = "release"
    #: the append-only stream behind a continual dataset (None for the
    #: single-shot case); build() forwards it to kinds that require one.
    stream: CorpusStream | None = None
    #: privacy budgets are never implicit: set by with_budget/with_params,
    #: checked by build().
    budget_configured: bool = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_documents(
        cls,
        documents: Sequence[str],
        *,
        alphabet: Alphabet | None = None,
        max_length: int | None = None,
    ) -> "Dataset":
        """Wrap raw documents (see :class:`~repro.core.database.StringDatabase`
        for the alphabet / declared-length contract)."""
        return cls(StringDatabase(documents, alphabet, max_length))

    @classmethod
    def from_database(cls, database: StringDatabase) -> "Dataset":
        """Wrap an existing :class:`~repro.core.database.StringDatabase`."""
        return cls(database)

    @classmethod
    def from_stream(cls, stream: CorpusStream) -> "Dataset":
        """Wrap an append-only :class:`~repro.api.CorpusStream`.

        ``build("heavy-path-continual")`` then releases the stream's latest
        epoch under the tree schedule without the ``stream=`` keyword; the
        stream must already hold at least one epoch (the single-shot kinds
        see a snapshot of every document appended so far).
        """
        return cls(stream.full_database(), stream=stream)

    # ------------------------------------------------------------------
    # Fluent configuration (each returns a new Dataset)
    # ------------------------------------------------------------------
    def with_budget(self, epsilon: float, delta: float = 0.0) -> "Dataset":
        """Set the ``(epsilon, delta)`` privacy budget (``delta = 0`` selects
        the pure-DP constructions)."""
        return replace(
            self,
            params=replace(self.params, budget=PrivacyBudget(epsilon, delta)),
            budget_configured=True,
        )

    def with_beta(self, beta: float) -> "Dataset":
        """Set the failure probability of the accuracy guarantee."""
        return replace(self, params=replace(self.params, beta=beta))

    def with_contribution_cap(self, delta_cap: int | None) -> "Dataset":
        """Set the cap ``Delta`` of ``count_Delta`` (``1`` = Document Count,
        ``None`` = Substring Count)."""
        return replace(self, params=replace(self.params, delta_cap=delta_cap))

    def with_threshold(self, threshold: float | None) -> "Dataset":
        """Override the pruning / candidate threshold (post-processing;
        affects accuracy only, never privacy)."""
        return replace(self, params=replace(self.params, threshold=threshold))

    def noiseless(self, enabled: bool = True) -> "Dataset":
        """Run constructions without noise — **not private**; for tests and
        the paper's illustrative figures."""
        return replace(self, params=replace(self.params, noiseless=enabled))

    def with_params(self, params: ConstructionParams) -> "Dataset":
        """Replace the construction parameters wholesale (the explicit
        budget they carry counts as configuring the budget)."""
        return replace(self, params=params, budget_configured=True)

    def with_registry(self, registry: StructureRegistry) -> "Dataset":
        """Build kinds from a custom registry instead of the default one."""
        return replace(self, registry=registry)

    def with_ledger(
        self,
        ledger: "BudgetLedger",
        database_id: str | None = None,
        *,
        label: str = "release",
    ) -> "Dataset":
        """Route builds through the ledger's cumulative budget accounting.

        ``database_id`` names this dataset in the ledger (defaults to
        ``"default"``); every successful build charges its budget there and
        an unaffordable build is refused before touching the documents.
        """
        return replace(
            self,
            ledger=ledger,
            ledger_database_id=database_id,
            ledger_label=label,
        )

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def build(
        self,
        kind: str = DEFAULT_KIND,
        *,
        rng: np.random.Generator | None = None,
        **kwargs,
    ) -> PrivateCounter:
        """Build a counter of the registered ``kind``.

        ``kwargs`` go to the kind's builder (e.g. ``q=4`` for the q-gram
        kinds, ``candidate_set=...`` for ablations).  This is the only
        dataset operation that touches the documents and therefore the only
        one that spends privacy budget — which is why the budget must have
        been set explicitly (a forgotten ``with_budget`` must not silently
        spend a default).
        """
        if not self.budget_configured:
            raise PrivacyParameterError(
                "no privacy budget configured for this dataset; call "
                ".with_budget(epsilon, delta) (or .with_params(...)) before "
                ".build() — budgets are never spent implicitly"
            )
        if (
            self.stream is not None
            and "stream" not in kwargs
            and "stream" in self.registry.get(kind).requires
        ):
            kwargs["stream"] = self.stream
        if self.ledger is not None:
            from repro.serving.ledger import build_release

            return build_release(
                self.database,
                self.params,
                ledger=self.ledger,
                database_id=self.ledger_database_id or "default",
                label=self.ledger_label,
                rng=rng,
                kind=kind,
                registry=self.registry,
                **kwargs,
            )
        return self.registry.build(
            kind, self.database, self.params, rng=rng, **kwargs
        )
