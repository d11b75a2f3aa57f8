"""Step 1 of the construction: differentially private candidate sets.

The construction algorithm first reduces the pattern universe from
``|Sigma|^ell`` to at most ``n^2 ell^3`` strings by computing a *candidate
set* ``C`` (Lemma 6 for pure DP, Lemma 15 for approximate DP):

1. Build sets ``P_1, P_2, P_4, ..., P_{2^j}`` (``j = floor(log2 ell)``) by
   length doubling: ``P_1`` keeps the letters whose noisy count reaches the
   threshold ``tau = 2 alpha``; ``P_{2^k}`` keeps the concatenations of two
   strings of ``P_{2^{k-1}}`` whose noisy count reaches ``tau``.  Crucially
   the noisy counts are computed for **all** concatenations — including
   strings that never occur in the database — which is what makes the
   released candidate set differentially private.
2. For every length ``m`` that is not a power of two, ``C_m`` contains every
   string of length ``m`` whose length-``2^k`` prefix and suffix
   (``k = floor(log2 m)``) both belong to ``P_{2^k}``.  These strings are
   found through suffix/prefix overlaps and require no further access to the
   database (post-processing).

The algorithm aborts with the paper's explicit *fail* outcome when a noisy
set grows beyond ``n * ell`` (this happens with negligible probability under
the accuracy event).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro import obs
from repro.core.array_build import PackedKeys, SortJoinCounter, decode_rows
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.dp.composition import PrivacyAccountant, PrivacyBudget
from repro.dp.mechanisms import CountingMechanism, per_level_mechanism
from repro.exceptions import ConstructionAborted

__all__ = ["CandidateSet", "build_candidate_set", "candidate_alpha"]


class _DecodedLengths(Mapping):
    """``levels`` and ``by_length`` of an array-built :class:`CandidateSet`:
    each length's strings are decoded from its code matrix on first access,
    so a build that only reads the matrices never decodes them."""

    def __init__(self, matrices: dict[int, np.ndarray]) -> None:
        self._matrices = matrices
        self._decoded: dict[int, list[str]] = {}

    def __getitem__(self, length: int) -> list[str]:
        strings = self._decoded.get(length)
        if strings is None:
            strings = decode_rows(self._matrices[length])
            self._decoded[length] = strings
        return strings

    def __iter__(self) -> Iterator[int]:
        return iter(self._matrices)

    def __len__(self) -> int:
        return len(self._matrices)


@dataclass
class CandidateSet:
    """The candidate set ``C`` together with its construction metadata.

    Attributes
    ----------
    levels:
        ``levels[2**k]`` is the pruned set ``P_{2^k}`` (sorted lists for
        determinism).  A set built by :func:`build_candidate_set` decodes
        each level from its code matrix on first access.
    by_length:
        ``by_length[m]`` is ``C_m`` for every length ``m`` that was completed
        (powers of two map to the corresponding ``P`` set).  A set built by
        :func:`build_candidate_set` decodes each length on first access.
    alpha:
        The per-level noisy-count error bound used to set the threshold.
    threshold:
        The pruning threshold ``tau`` (``2 * alpha`` unless overridden).
    accountant:
        Privacy expenditure of the doubling phase.
    matrices:
        Optional int32 code-matrix form of ``by_length`` (one sorted
        ``(k, m)`` matrix per completed length), populated by
        :func:`build_candidate_set` so downstream stages can keep working
        on arrays without re-encoding the string lists.  ``None`` for sets
        built from strings (the reference pipeline, the one-step ablation).
    """

    levels: Mapping[int, list[str]]
    by_length: Mapping[int, list[str]]
    alpha: float
    threshold: float
    accountant: PrivacyAccountant = field(default_factory=PrivacyAccountant)
    matrices: "dict[int, np.ndarray] | None" = field(
        default=None, compare=False, repr=False
    )

    def all_strings(self) -> set[str]:
        """The full candidate set ``C`` (union over all lengths)."""
        result: set[str] = set()
        for strings in self.by_length.values():
            result.update(strings)
        return result

    @property
    def size(self) -> int:
        """``|C|``, summed over the per-length lists (or matrices): every
        producer deduplicates each length, and strings of different
        lengths are never equal, so no union set is needed."""
        if self.matrices is not None:
            return sum(block.shape[0] for block in self.matrices.values())
        return sum(len(strings) for strings in self.by_length.values())


def candidate_alpha(
    database_size: int,
    ell: int,
    alphabet_size: int,
    mechanism: CountingMechanism,
    beta_per_level: float,
    delta_cap: int,
) -> float:
    """The per-level error bound ``alpha`` of the noisy counts.

    The number of counts released at any level is at most
    ``max(ell^2 n^2, |Sigma|)``; the counts of fixed-length patterns have L1
    sensitivity ``2 ell`` (Corollary 3) and L2 sensitivity
    ``sqrt(2 ell Delta)`` (Corollary 6).
    """
    num_queries = max(ell * ell * database_size * database_size, alphabet_size, 1)
    l1 = 2.0 * ell
    l2 = math.sqrt(2.0 * ell * delta_cap)
    return mechanism.sup_error_bound(
        num_queries, beta_per_level, l1_sensitivity=l1, l2_sensitivity=l2
    )


@dataclass(frozen=True)
class _Calibration:
    """What the candidate stage fixes before its first noisy release."""

    ell: int
    delta_cap: int
    #: the ``n * ell`` size past which a level aborts the construction
    capacity: int
    #: the longest doubling level
    limit: int
    mechanism: CountingMechanism
    alpha: float
    threshold: float


def _calibrate(
    database: StringDatabase,
    params: ConstructionParams,
    budget: PrivacyBudget | None,
    doubling_limit: int | None,
) -> _Calibration:
    """The per-level mechanism, error bound and threshold of the candidate
    stage (shared with :func:`repro.core.reference.reference_candidate_set`)."""
    stage_budget = budget if budget is not None else params.budget
    ell = params.resolve_max_length(database.max_length)
    delta_cap = params.resolve_delta_cap(ell)
    n = database.num_documents
    limit = ell if doubling_limit is None else min(doubling_limit, ell)
    num_levels = int(math.floor(math.log2(max(1, limit)))) + 1
    mechanism = per_level_mechanism(stage_budget, num_levels, params.noiseless)
    alpha = candidate_alpha(
        n, ell, database.alphabet_size, mechanism, params.beta / num_levels, delta_cap
    )
    return _Calibration(
        ell=ell,
        delta_cap=delta_cap,
        capacity=n * ell,
        limit=limit,
        mechanism=mechanism,
        alpha=alpha,
        threshold=params.threshold if params.threshold is not None else 2.0 * alpha,
    )


def build_candidate_set(
    database: StringDatabase,
    params: ConstructionParams,
    *,
    budget: PrivacyBudget | None = None,
    rng: np.random.Generator | None = None,
    doubling_limit: int | None = None,
    lengths: Sequence[int] | None = None,
) -> CandidateSet:
    """Run the differentially private candidate-set construction.

    The concatenation batch of a doubling level is indexed ``i * k + j``
    over the previous (sorted) level, whose row-major order *is*
    ``sorted(set(left + right))`` because all strings of a level share one
    length.  :meth:`~repro.core.array_build.SortJoinCounter.pair_counts`
    fills that ``k^2`` vector from the pairs that occur, so each level
    feeds one exact-count vector to a single ``randomize`` call, and rows
    are materialized only for the pairs that clear the threshold.
    :func:`repro.core.reference.reference_candidate_set` is the string
    pipeline this must match bit for bit.

    Parameters
    ----------
    database:
        The database ``D``.
    params:
        Construction parameters (the contribution cap, ``beta``, threshold
        override and noiseless flag are taken from here).
    budget:
        The budget for this stage.  Defaults to ``params.budget`` — callers
        that embed the candidate stage in a larger pipeline (Theorem 1/2
        constructions) pass the stage's share explicitly.
    rng:
        Randomness source.
    doubling_limit:
        Stop the doubling once strings of this length have been built
        (defaults to ``ell``; the q-gram constructions pass ``q``).
    lengths:
        Which candidate lengths ``C_m`` to complete (defaults to every
        ``m in [1, ell]``; the q-gram constructions pass ``[q]``).
    """
    if rng is None:
        rng = np.random.default_rng()
    stage = _calibrate(database, params, budget, doubling_limit)
    mechanism, threshold, capacity = stage.mechanism, stage.threshold, stage.capacity
    counter = SortJoinCounter.shared(database)
    l1 = 2.0 * stage.ell
    l2 = math.sqrt(2.0 * stage.ell * stage.delta_cap)

    accountant = PrivacyAccountant()
    matrices: dict[int, np.ndarray] = {}

    # Level 0: one noisy count per alphabet letter (present or not).
    letters = np.array(
        [ord(letter) for letter in database.alphabet], dtype=np.int32
    ).reshape(-1, 1)
    with obs.span("level", length=1):
        with obs.span("count", patterns=letters.shape[0]):
            exact = counter.counts(letters, stage.delta_cap)
        noisy = mechanism.randomize(
            np.asarray(exact, dtype=np.float64),
            l1_sensitivity=l1,
            l2_sensitivity=l2,
            rng=rng,
        )
        keep = np.flatnonzero(noisy >= threshold)
    accountant.spend("candidates level 1", mechanism.epsilon, mechanism.delta)
    if keep.size > capacity:
        raise ConstructionAborted(
            f"candidate set P_1 grew to {keep.size} > n*ell = {capacity}", level=1
        )
    matrices[1] = np.sort(letters[keep], axis=0)

    length = 1
    while length * 2 <= stage.limit:
        length *= 2
        previous = matrices[length // 2]
        k = previous.shape[0]
        with obs.span("level", length=length):
            if k:
                with obs.span("count", patterns=k * k):
                    exact = counter.pair_counts(previous, stage.delta_cap)
                noisy = mechanism.randomize(
                    exact.astype(np.float64),
                    l1_sensitivity=l1,
                    l2_sensitivity=l2,
                    rng=rng,
                )
                keep = np.flatnonzero(noisy >= threshold)
            else:
                keep = np.zeros(0, dtype=np.int64)
        accountant.spend(
            f"candidates level {length}", mechanism.epsilon, mechanism.delta
        )
        if keep.size > capacity:
            raise ConstructionAborted(
                f"candidate set P_{length} grew to {keep.size} "
                f"> n*ell = {capacity}",
                level=length,
            )
        matrices[length] = _pair_rows(previous, keep)

    with obs.span("completion"):
        completed = _complete_lengths(matrices, lengths, stage.ell, counter.codec)
    return CandidateSet(
        levels=_DecodedLengths(matrices),
        by_length=_DecodedLengths(completed),
        alpha=stage.alpha,
        threshold=threshold,
        accountant=accountant,
        matrices=completed,
    )


def _pair_rows(level: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The rows ``level[i] + level[j]`` of the pair indices ``i * k + j``."""
    left, right = np.divmod(pairs, max(level.shape[0], 1))
    return np.concatenate([level[left], level[right]], axis=1)


def _complete_lengths(
    matrices: dict[int, np.ndarray],
    lengths: Sequence[int] | None,
    ell: int,
    codec: PackedKeys,
) -> dict[int, np.ndarray]:
    """Completion step shared with the reference pipeline: the sorted code matrix of
    ``C_m`` for every requested length, joined from the doubling levels.

    Pure post-processing of the released ``P_{2^k}`` sets (Lemma 7, Step 2):
    a length-``m`` candidate is ``left + right[overlap:]`` for every pair
    of level rows whose length-``overlap`` suffix and prefix agree.  The
    level is sorted, so its prefix keys already are: each suffix key finds
    its matching rows by binary search, the equivalent of the LCE probe
    loop.  For ``power < m < 2 * power`` a joined row determines its pair
    (its first and last ``power`` positions), so the join's ``i``-major,
    ``j``-ascending output is duplicate-free and already sorted.
    """
    if lengths is None:
        lengths = list(range(1, ell + 1))
    completed: dict[int, np.ndarray] = {}
    for m in sorted(set(lengths)):
        if m < 1 or m > ell:
            continue
        power = 1 << int(math.floor(math.log2(m)))
        base = matrices.get(power)
        if base is None or not base.shape[0]:
            completed[m] = np.zeros((0, m), dtype=np.int32)
            continue
        if m == power:
            completed[m] = base
            continue
        overlap = 2 * power - m
        prefix_keys = codec.keys(base[:, :overlap])
        suffix_keys = codec.keys(base[:, power - overlap :])
        lo = np.searchsorted(prefix_keys, suffix_keys, side="left")
        matches = np.searchsorted(prefix_keys, suffix_keys, side="right") - lo
        left = np.repeat(np.arange(base.shape[0]), matches)
        within = np.arange(left.size) - np.repeat(np.cumsum(matches) - matches, matches)
        right = np.repeat(lo, matches) + within
        completed[m] = np.concatenate([base[left], base[right, overlap:]], axis=1)
    return completed
