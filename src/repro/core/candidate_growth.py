"""Alternative candidate-growth strategies (ablation of Step 1).

The paper's candidate construction (Lemma 6 / Lemma 15) *doubles* the pattern
length at every round, so only ``floor(log2 ell) + 1`` noisy releases are
needed and the per-release budget is ``epsilon / (floor(log2 ell) + 1)``.
Prior applied work (Chen et al. [18], Kim et al. [51]) instead grows
candidates one letter at a time: the frequent ``(m-1)``-grams are extended by
the frequent ``1``-grams, which requires ``ell`` noisy releases and therefore
a per-release budget of only ``epsilon / ell``.

This module implements the one-letter-extension strategy with exactly the
same interface and privacy accounting as
:func:`repro.core.candidate_set.build_candidate_set`, so the two can be
compared head to head: same database, same total budget, same threshold rule
``tau = 2 alpha``.  The ablation (experiment E19) shows how the per-level
error ``alpha`` — and with it the smallest count a pattern needs in order to
survive the pruning — degrades from ``O(ell log ell)`` to ``O(ell^2)`` when
the doubling is replaced by one-letter extension.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.candidate_set import CandidateSet
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.dp.composition import PrivacyAccountant, PrivacyBudget
from repro.dp.mechanisms import CountingMechanism, per_level_mechanism
from repro.exceptions import ConstructionAborted

__all__ = ["build_onestep_candidate_set", "onestep_candidate_alpha"]


def _prune_by_noisy_count(
    patterns: Sequence[str],
    exact_counts: Sequence[float],
    mechanism: CountingMechanism,
    ell: int,
    delta_cap: int,
    threshold: float,
    rng: np.random.Generator,
) -> list[str]:
    """Add calibrated noise to the exact counts and keep the patterns whose
    noisy count reaches the threshold (one level of a string-built
    candidate stage: this one and :func:`repro.core.reference.
    reference_candidate_set`)."""
    if not patterns:
        return []
    values = np.asarray(exact_counts, dtype=np.float64)
    noisy = mechanism.randomize(
        values,
        l1_sensitivity=2.0 * ell,
        l2_sensitivity=math.sqrt(2.0 * ell * delta_cap),
        rng=rng,
    )
    return [pattern for pattern, value in zip(patterns, noisy) if value >= threshold]


def onestep_candidate_alpha(
    database_size: int,
    ell: int,
    alphabet_size: int,
    mechanism: CountingMechanism,
    beta_per_level: float,
    delta_cap: int,
) -> float:
    """Per-level error bound of the one-letter-extension strategy.

    The sensitivity of the counts released at one level is the same as in the
    doubling strategy (Corollaries 3 and 6: L1 at most ``2 ell``, L2 at most
    ``sqrt(2 ell Delta)``); only the number of levels — and hence the
    per-level budget baked into ``mechanism`` — differs.
    """
    num_queries = max(ell * database_size * alphabet_size, alphabet_size, 1)
    l1 = 2.0 * ell
    l2 = math.sqrt(2.0 * ell * delta_cap)
    return mechanism.sup_error_bound(
        num_queries, beta_per_level, l1_sensitivity=l1, l2_sensitivity=l2
    )


def build_onestep_candidate_set(
    database: StringDatabase,
    params: ConstructionParams,
    *,
    budget: PrivacyBudget | None = None,
    rng: np.random.Generator | None = None,
    max_pattern_length: int | None = None,
    lengths: Sequence[int] | None = None,
) -> CandidateSet:
    """Grow a candidate set one letter at a time (prior-work strategy).

    Parameters
    ----------
    database:
        The database ``D``.
    params:
        Construction parameters; the contribution cap, ``beta``, threshold
        override and noiseless flag are taken from here.
    budget:
        Budget for this stage (defaults to ``params.budget``).
    rng:
        Randomness source.
    max_pattern_length:
        Longest candidate length to grow (defaults to ``ell``).
    lengths:
        Which lengths to expose in ``by_length`` (defaults to every grown
        length).

    Returns
    -------
    CandidateSet
        Same container as the doubling construction; ``levels`` is keyed by
        every grown length (not just powers of two).
    """
    if rng is None:
        rng = np.random.default_rng()
    stage_budget = budget if budget is not None else params.budget
    ell = params.resolve_max_length(database.max_length)
    delta_cap = params.resolve_delta_cap(ell)
    n = database.num_documents
    capacity = n * ell

    limit = ell if max_pattern_length is None else min(max_pattern_length, ell)
    num_levels = max(1, limit)
    mechanism = per_level_mechanism(stage_budget, num_levels, params.noiseless)
    beta_per_level = params.beta / num_levels
    alpha = onestep_candidate_alpha(
        n, ell, database.alphabet_size, mechanism, beta_per_level, delta_cap
    )
    threshold = params.threshold if params.threshold is not None else 2.0 * alpha

    accountant = PrivacyAccountant()
    levels: dict[int, list[str]] = {}

    # ------------------------------------------------------------------
    # Length 1: every letter of the public alphabet gets a noisy count.
    # ------------------------------------------------------------------
    letters = list(database.alphabet)
    exact = database.count_many(letters, delta_cap)
    kept = _prune_by_noisy_count(
        letters, exact, mechanism, ell, delta_cap, threshold, rng
    )
    accountant.spend("one-step candidates length 1", mechanism.epsilon, mechanism.delta)
    if len(kept) > capacity:
        raise ConstructionAborted(
            f"candidate set P_1 grew to {len(kept)} > n*ell = {capacity}", level=1
        )
    levels[1] = sorted(kept)

    # ------------------------------------------------------------------
    # Lengths 2..limit: extend every surviving (m-1)-gram by every surviving
    # letter.  Every extension — including strings that never occur in D —
    # receives a noisy count, which is what keeps the release private.
    # ------------------------------------------------------------------
    for length in range(2, limit + 1):
        previous = levels[length - 1]
        extensions = sorted({left + letter for left in previous for letter in levels[1]})
        exact = database.count_many(extensions, delta_cap)
        kept = _prune_by_noisy_count(
            extensions, exact, mechanism, ell, delta_cap, threshold, rng
        )
        accountant.spend(
            f"one-step candidates length {length}", mechanism.epsilon, mechanism.delta
        )
        if len(kept) > capacity:
            raise ConstructionAborted(
                f"candidate set P_{length} grew to {len(kept)} > n*ell = {capacity}",
                level=length,
            )
        levels[length] = sorted(kept)
        if not kept:
            # Nothing survives at this length, so nothing can survive at any
            # longer length either; stop early (post-processing).
            break

    if lengths is None:
        exposed = sorted(levels)
    else:
        exposed = sorted(set(lengths))
    by_length = {m: list(levels.get(m, [])) for m in exposed if 1 <= m <= ell}

    return CandidateSet(
        levels=levels,
        by_length=by_length,
        alpha=alpha,
        threshold=threshold,
        accountant=accountant,
    )
