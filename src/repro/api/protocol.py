"""The :class:`PrivateCounter` protocol — one query surface for every kind.

The paper gives four constructions (the heavy-path trie of Theorems 1-2, the
two q-gram structures of Theorems 3-4) plus baselines, and all of them answer
the same question: a noisy ``count_Delta(pattern)``.  This module pins down
the contract they share, so serving, experiments and the CLI can treat any
structure — current or future — uniformly:

``query(pattern)``
    One pattern's noisy count (0.0 when absent).  Post-processing.
``query_many(patterns)``
    The whole batch vectorized, bit-for-bit equal to the per-pattern loop
    but advanced through the trie arrays one character per numpy round.
``mine(threshold, ...)``
    alpha-approximate frequent-pattern mining (Definition 2), any number of
    times at any thresholds, with no further privacy cost.
``metadata``
    The public :class:`~repro.core.private_trie.StructureMetadata` — budget,
    error bound, threshold, construction name.
``to_payload()`` / ``from_payload(payload)``
    The JSON-serializable release form every kind round-trips through (the
    exact schema :class:`~repro.serving.ReleaseStore` persists).

One class implements it today: :class:`~repro.core.private_trie.
PrivateCountingTrie`, the output of every registered kind and the form the
server answers from (:class:`repro.serving.CompiledTrie` is the same class
object).  A plug-in kind may return any other class that satisfies the
protocol; ``isinstance(obj, PrivateCounter)`` checks it at runtime.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.private_trie import StructureMetadata

__all__ = ["PrivateCounter"]


@runtime_checkable
class PrivateCounter(Protocol):
    """Anything that answers noisy pattern counts built under a DP budget.

    Every method is post-processing of the released noisy values: once a
    counter exists, querying, batching, mining and serializing it are free
    of further privacy cost.
    """

    @property
    def metadata(self) -> StructureMetadata:
        """Public metadata of the construction that produced the counter."""
        ...

    def query(self, pattern: str) -> float:
        """Noisy ``count_Delta(pattern, D)`` estimate (0.0 when absent)."""
        ...

    def query_many(self, patterns: Sequence[str]) -> np.ndarray:
        """Vectorized noisy counts, bit-for-bit equal to
        ``[self.query(p) for p in patterns]``."""
        ...

    def mine(
        self,
        threshold: float,
        *,
        min_length: int = 1,
        max_length: int | None = None,
        exact_length: int | None = None,
    ) -> list[tuple[str, float]]:
        """All stored patterns whose noisy count reaches ``threshold``."""
        ...

    def to_payload(self) -> dict:
        """The JSON-serializable release form (counts + public metadata)."""
        ...

    @classmethod
    def from_payload(cls, payload: dict) -> "PrivateCounter":
        """Rebuild a counter from :meth:`to_payload` output."""
        ...
