"""Parameter objects for the private counting constructions.

:class:`ConstructionParams` bundles everything a construction algorithm needs
besides the database itself: the privacy budget, the failure probability of
the accuracy guarantee, the contribution cap ``Delta`` and a handful of
engineering knobs (threshold override, noiseless testing mode).  None of
them selects how a build runs: every construction takes one code path, so
its release depends only on the data, these parameters and the RNG.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.dp.composition import PrivacyBudget
from repro.exceptions import PrivacyParameterError

__all__ = [
    "ConstructionParams",
    "DOCUMENT_COUNT",
    "SUBSTRING_COUNT",
]

#: Contribution cap selecting Document Count semantics (``Delta = 1``).
DOCUMENT_COUNT = 1

#: Sentinel meaning "cap at the maximum document length" (Substring Count).
SUBSTRING_COUNT = None


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters of a private counting-structure construction.

    Attributes
    ----------
    budget:
        Overall ``(epsilon, delta)`` privacy budget of the construction.
        ``delta = 0`` selects the pure-DP algorithms (Theorems 1 and 3);
        ``delta > 0`` selects the approximate-DP algorithms (Theorems 2
        and 4).
    beta:
        Failure probability of the accuracy guarantee (the error bound holds
        with probability at least ``1 - beta``).
    delta_cap:
        The contribution cap ``Delta`` of ``count_Delta``.  ``1`` gives
        Document Count, ``None`` gives Substring Count (``Delta = ell``).
    max_length:
        Declared maximum document length ``ell``.  When ``None`` the maximum
        length observed in the database is used.  For a formally correct
        privacy guarantee ``ell`` should be a public, data-independent bound.
    threshold:
        Optional override of the pruning / candidate threshold ``tau``.  The
        default is ``2 * alpha`` as in the paper.  Overriding the threshold
        does **not** affect privacy (it is post-processing of noisy values),
        only the accuracy guarantees.
    noiseless:
        Run the construction without noise.  **Not private**; intended for
        tests and for regenerating the paper's exact illustrative figures.
    candidate_budget_fraction:
        Fraction of the budget spent on the candidate-set stage; the
        remainder is split evenly between heavy-path roots and prefix sums.
        The paper uses 1/3.
    """

    budget: PrivacyBudget
    beta: float = 0.05
    delta_cap: int | None = SUBSTRING_COUNT
    max_length: int | None = None
    threshold: float | None = None
    noiseless: bool = False
    candidate_budget_fraction: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        if not 0 < self.beta < 1:
            raise PrivacyParameterError("beta must lie in (0, 1)")
        if self.delta_cap is not None and self.delta_cap < 1:
            raise PrivacyParameterError("delta_cap must be at least 1 (or None)")
        if self.max_length is not None and self.max_length < 1:
            raise PrivacyParameterError("max_length must be at least 1 (or None)")
        if not 0 < self.candidate_budget_fraction < 1:
            raise PrivacyParameterError(
                "candidate_budget_fraction must lie in (0, 1)"
            )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def pure(cls, epsilon: float, **kwargs) -> "ConstructionParams":
        """Parameters for an epsilon-DP construction."""
        return cls(budget=PrivacyBudget(epsilon, 0.0), **kwargs)

    @classmethod
    def approximate(cls, epsilon: float, delta: float, **kwargs) -> "ConstructionParams":
        """Parameters for an (epsilon, delta)-DP construction."""
        return cls(budget=PrivacyBudget(epsilon, delta), **kwargs)

    def for_document_count(self) -> "ConstructionParams":
        """Same parameters with Document Count semantics (``Delta = 1``)."""
        return replace(self, delta_cap=DOCUMENT_COUNT)

    def for_substring_count(self) -> "ConstructionParams":
        """Same parameters with Substring Count semantics (``Delta = ell``)."""
        return replace(self, delta_cap=SUBSTRING_COUNT)

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    def resolve_max_length(self, observed_max_length: int) -> int:
        """The ``ell`` to use for a database whose longest document has the
        given length."""
        if self.max_length is not None:
            if observed_max_length > self.max_length:
                raise PrivacyParameterError(
                    "a document exceeds the declared maximum length"
                )
            return self.max_length
        return max(1, observed_max_length)

    def resolve_delta_cap(self, ell: int) -> int:
        """The numeric contribution cap ``Delta`` for documents of length at
        most ``ell``."""
        if self.delta_cap is None:
            return ell
        return min(self.delta_cap, ell) if ell >= 1 else 1

    @property
    def is_pure(self) -> bool:
        return self.budget.is_pure
