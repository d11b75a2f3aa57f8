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
from repro.core.array_build import (
    PackedKeys,
    SortJoinCounter,
    decode_rows,
    pack_strings,
)
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.counting import AUTO_BACKEND
from repro.dp.composition import PrivacyAccountant, PrivacyBudget
from repro.dp.mechanisms import CountingMechanism, per_level_mechanism
from repro.exceptions import ConstructionAborted

__all__ = ["CandidateSet", "build_candidate_set", "candidate_alpha"]


class _DecodedLengths(Mapping):
    """``by_length`` of an array-built :class:`CandidateSet`: each length's
    strings are decoded from its code matrix on first access, so a build
    that only reads the matrices never decodes them."""

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
        determinism).
    by_length:
        ``by_length[m]`` is ``C_m`` for every length ``m`` that was completed
        (powers of two map to the corresponding ``P`` set).  An array-built
        set decodes each length on first access.
    alpha:
        The per-level noisy-count error bound used to set the threshold.
    threshold:
        The pruning threshold ``tau`` (``2 * alpha`` unless overridden).
    noisy_counts:
        Noisy counts of the strings that were *kept* during the doubling
        phase (useful for inspection; not needed by later stages).
    accountant:
        Privacy expenditure of the doubling phase.
    matrices:
        Optional int32 code-matrix form of ``by_length`` (one sorted
        ``(k, m)`` matrix per completed length), populated by the array
        construction pipeline so downstream stages can keep working on
        arrays without re-encoding the string lists.  ``None`` when the
        object pipeline built the set.
    """

    levels: dict[int, list[str]]
    by_length: Mapping[int, list[str]]
    alpha: float
    threshold: float
    noisy_counts: dict[str, float] = field(default_factory=dict)
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

    def max_level_length(self) -> int:
        return max(self.levels, default=0)


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


def _prune_by_noisy_count(
    patterns: Sequence[str],
    exact_counts: Sequence[float],
    mechanism: CountingMechanism,
    ell: int,
    delta_cap: int,
    threshold: float,
    rng: np.random.Generator,
) -> tuple[list[str], dict[str, float]]:
    """Add calibrated noise to the exact counts and keep the patterns whose
    noisy count reaches the threshold."""
    if not patterns:
        return [], {}
    values = np.asarray(exact_counts, dtype=np.float64)
    noisy = mechanism.randomize(
        values,
        l1_sensitivity=2.0 * ell,
        l2_sensitivity=math.sqrt(2.0 * ell * delta_cap),
        rng=rng,
    )
    kept: list[str] = []
    kept_counts: dict[str, float] = {}
    for pattern, value in zip(patterns, noisy):
        if value >= threshold:
            kept.append(pattern)
            kept_counts[pattern] = float(value)
    return kept, kept_counts


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
    stage_budget = budget if budget is not None else params.budget
    ell = params.resolve_max_length(database.max_length)
    delta_cap = params.resolve_delta_cap(ell)
    n = database.num_documents
    capacity = n * ell

    limit = ell if doubling_limit is None else min(doubling_limit, ell)
    num_levels = int(math.floor(math.log2(max(1, limit)))) + 1
    mechanism = per_level_mechanism(stage_budget, num_levels, params.noiseless)
    beta_per_level = params.beta / num_levels
    alpha = candidate_alpha(
        n, ell, database.alphabet_size, mechanism, beta_per_level, delta_cap
    )
    threshold = params.threshold if params.threshold is not None else 2.0 * alpha

    if params.resolve_build_backend() == "array":
        return _build_candidate_set_array(
            database,
            params,
            rng,
            mechanism=mechanism,
            ell=ell,
            delta_cap=delta_cap,
            capacity=capacity,
            limit=limit,
            alpha=alpha,
            threshold=threshold,
            lengths=lengths,
        )

    accountant = PrivacyAccountant()
    levels: dict[int, list[str]] = {}
    noisy_counts: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Level 0: single letters.  Every letter of the (public) alphabet gets a
    # noisy count, including letters that never occur.
    # ------------------------------------------------------------------
    letters = list(database.alphabet)
    with obs.span("level", length=1):
        with obs.span("count", patterns=len(letters)):
            exact = database.count_many(
                letters, delta_cap, backend=params.count_backend
            )
        kept, kept_counts = _prune_by_noisy_count(
            letters, exact, mechanism, ell, delta_cap, threshold, rng
        )
    accountant.spend("candidates level 1", mechanism.epsilon, mechanism.delta)
    if len(kept) > capacity:
        raise ConstructionAborted(
            f"candidate set P_1 grew to {len(kept)} > n*ell = {capacity}", level=1
        )
    levels[1] = sorted(kept)
    noisy_counts.update(kept_counts)

    # ------------------------------------------------------------------
    # Doubling levels: P_{2^k} from P_{2^{k-1}} o P_{2^{k-1}}.
    # ------------------------------------------------------------------
    length = 1
    while length * 2 <= limit:
        length *= 2
        previous = levels[length // 2]
        with obs.span("level", length=length):
            pairs = [left + right for left in previous for right in previous]
            # Deduplicate while keeping order deterministic.
            pairs = sorted(set(pairs))
            # One batched engine call per level: the whole |P|^2 concatenation
            # batch is counted in one corpus pass under the Aho-Corasick
            # backend.
            with obs.span("count", patterns=len(pairs)):
                exact = database.count_many(
                    pairs, delta_cap, backend=params.count_backend
                )
            kept, kept_counts = _prune_by_noisy_count(
                pairs, exact, mechanism, ell, delta_cap, threshold, rng
            )
        accountant.spend(
            f"candidates level {length}", mechanism.epsilon, mechanism.delta
        )
        if len(kept) > capacity:
            raise ConstructionAborted(
                f"candidate set P_{length} grew to {len(kept)} > n*ell = {capacity}",
                level=length,
            )
        levels[length] = sorted(kept)
        noisy_counts.update(kept_counts)

    with obs.span("completion"):
        completed = _complete_lengths(
            {power: pack_strings(level)[0] for power, level in levels.items()},
            lengths,
            ell,
            PackedKeys.of_symbols(database.alphabet),
        )
        by_length = {m: decode_rows(block) for m, block in completed.items()}
    return CandidateSet(
        levels=levels,
        by_length=by_length,
        alpha=alpha,
        threshold=threshold,
        noisy_counts=noisy_counts,
        accountant=accountant,
    )


def _build_candidate_set_array(
    database: StringDatabase,
    params: ConstructionParams,
    rng: np.random.Generator,
    *,
    mechanism: CountingMechanism,
    ell: int,
    delta_cap: int,
    capacity: int,
    limit: int,
    alpha: float,
    threshold: float,
    lengths: Sequence[int] | None,
) -> CandidateSet:
    """The ``build_backend="array"`` body of :func:`build_candidate_set`.

    Bit-identical to the object body.  The concatenation batch of a
    doubling level is indexed ``i * k + j`` over the previous (sorted)
    level — whose row-major order *is* ``sorted(set(left + right))``,
    because all strings of a level share one length — and
    :meth:`~repro.core.array_build.SortJoinCounter.pair_counts` fills that
    ``k^2`` vector from the pairs that occur, so each level feeds the same
    exact-count vector to the same single ``randomize`` call.  Rows are
    materialized only for the pairs that survive the threshold.  An
    explicit counting backend recounts the occurring pairs through
    ``count_many`` (every other pair counts 0 under any engine).
    """
    counter = SortJoinCounter.shared(database)
    use_sortjoin = params.count_backend == AUTO_BACKEND
    l1 = 2.0 * ell
    l2 = math.sqrt(2.0 * ell * delta_cap)

    accountant = PrivacyAccountant()
    levels: dict[int, list[str]] = {}
    matrices: dict[int, np.ndarray] = {}
    noisy_counts: dict[str, float] = {}

    # Level 0: one noisy count per alphabet letter (present or not).
    letters = list(database.alphabet)
    letters_matrix = np.array([[ord(letter)] for letter in letters], dtype=np.int32)
    with obs.span("level", length=1):
        with obs.span("count", patterns=len(letters)):
            if use_sortjoin:
                exact = counter.counts(letters_matrix, delta_cap)
            else:
                exact = database.count_many(
                    letters, delta_cap, backend=params.count_backend
                )
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
    noisy_counts.update(
        (letters[int(i)], float(noisy[i])) for i in keep
    )
    levels[1] = sorted(letters[int(i)] for i in keep)
    matrices[1] = np.array(
        [ord(letter) for letter in levels[1]], dtype=np.int32
    ).reshape(-1, 1)

    length = 1
    while length * 2 <= limit:
        length *= 2
        previous = matrices[length // 2]
        k = previous.shape[0]
        with obs.span("level", length=length):
            if k:
                with obs.span("count", patterns=k * k):
                    exact = counter.pair_counts(previous, delta_cap)
                    if not use_sortjoin:
                        occurring = np.flatnonzero(exact)
                        exact[occurring] = database.count_many(
                            decode_rows(_pair_rows(previous, occurring)),
                            delta_cap,
                            backend=params.count_backend,
                        )
                noisy = mechanism.randomize(
                    exact.astype(np.float64),
                    l1_sensitivity=l1,
                    l2_sensitivity=l2,
                    rng=rng,
                )
                keep = np.flatnonzero(noisy >= threshold)
            else:
                noisy = np.zeros(0, dtype=np.float64)
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
        levels[length] = decode_rows(matrices[length])
        noisy_counts.update(
            zip(levels[length], (float(value) for value in noisy[keep]))
        )

    with obs.span("completion"):
        completed = _complete_lengths(matrices, lengths, ell, counter.codec)
    return CandidateSet(
        levels=levels,
        by_length=_DecodedLengths(completed),
        alpha=alpha,
        threshold=threshold,
        noisy_counts=noisy_counts,
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
    """Completion step shared by both pipelines: the sorted code matrix of
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
