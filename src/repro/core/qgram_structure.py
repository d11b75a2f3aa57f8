"""Fixed-length (q-gram) counting structures (Theorems 3 and 4).

When only patterns of one fixed length ``q`` matter, the construction
simplifies considerably:

* **Theorem 3 (pure DP).**  Run the doubling candidate construction only up
  to length ``2^{floor(log2 q)}`` with half the budget, complete to candidate
  q-grams ``C_q`` through suffix/prefix overlaps (post-processing), release a
  noisy count for every candidate q-gram with the other half of the budget,
  and keep the q-grams whose noisy count reaches ``2 alpha``.

* **Theorem 4 (approximate DP).**  Under approximate DP the algorithm may
  skip strings whose true count is zero (Lemma 19), which removes the
  blow-up caused by strings outside the database.  The efficient algorithm
  (Lemma 21) walks the suffix tree of the concatenation: in phase ``k`` it
  visits the ``2^k``-minimal nodes, checks with weighted-ancestor queries
  that both halves of the corresponding string were marked in the previous
  phase, and marks the node if its noisy count reaches the threshold.  The
  final phase handles the ``q``-minimal nodes and emits the output trie.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.core.array_build import SortJoinCounter, pack_strings
from repro.core.candidate_set import build_candidate_set, candidate_alpha
from repro.core.database import StringDatabase
from repro.counting import AUTO_BACKEND
from repro.core.params import ConstructionParams
from repro.core.private_trie import PrivateCountingTrie, StructureMetadata
from repro.dp.composition import PrivacyAccountant
from repro.dp.mechanisms import (
    CountingMechanism,
    GaussianMechanism,
    LaplaceMechanism,
    NoiselessMechanism,
)
from repro.exceptions import ConstructionAborted, PrivacyParameterError

__all__ = [
    "qgram_counting_structure",
    "theorem3_qgram_structure",
    "theorem4_qgram_structure",
]


def qgram_counting_structure(
    database: StringDatabase,
    q: int,
    params: ConstructionParams,
    *,
    rng: np.random.Generator | None = None,
    **kwargs,
) -> PrivateCountingTrie:
    """Dispatch to the pure-DP (Theorem 3) or approximate-DP (Theorem 4)
    q-gram construction depending on the budget.

    This is the canonical q-gram entry point; the
    :mod:`repro.api` registry exposes the two constructions explicitly as
    the ``"qgram-t3"`` and ``"qgram-t4"`` structure kinds.
    """
    if params.is_pure:
        return theorem3_qgram_structure(database, q, params, rng=rng, **kwargs)
    return theorem4_qgram_structure(database, q, params, rng=rng, **kwargs)


# ----------------------------------------------------------------------
# Theorem 3: pure DP.
# ----------------------------------------------------------------------
def theorem3_qgram_structure(
    database: StringDatabase,
    q: int,
    params: ConstructionParams,
    *,
    rng: np.random.Generator | None = None,
    candidate_qgrams: list[str] | None = None,
) -> PrivateCountingTrie:
    """The epsilon-differentially private q-gram counting structure
    (registry kind ``"qgram-t3"``).

    ``candidate_qgrams`` lets callers supply a pre-built candidate set, in
    which case the candidate stage (and its budget) is skipped; the caller is
    responsible for having built it privately (used by ablation experiments).
    """
    if rng is None:
        rng = np.random.default_rng()
    ell = params.resolve_max_length(database.max_length)
    if not 1 <= q <= ell:
        raise PrivacyParameterError("q must lie in [1, ell]")
    delta_cap = params.resolve_delta_cap(ell)
    n = database.num_documents
    accountant = PrivacyAccountant()

    half_budget = params.budget.split(2)
    build_backend = params.resolve_build_backend()

    with obs.trace("construction", build_backend=build_backend, q=q) as trace_root:
        # Phase 1: doubling candidate sets up to 2^{floor(log2 q)}, then
        # complete to candidate q-grams C_q (the completion is
        # post-processing).
        if candidate_qgrams is None:
            with obs.span("candidates"):
                candidates = build_candidate_set(
                    database,
                    params,
                    budget=half_budget,
                    rng=rng,
                    doubling_limit=q,
                    lengths=[q],
                )
            for record in candidates.accountant.records:
                accountant.spend(record.label, record.epsilon, record.delta)
            candidate_qgrams = candidates.by_length.get(q, [])
            candidate_alpha_value = candidates.alpha
        else:
            candidate_qgrams = list(candidate_qgrams)
            candidate_alpha_value = 0.0

        # Phase 2: noisy counts of every candidate q-gram with the second half
        # of the budget, keeping those above 2 alpha.
        mechanism: CountingMechanism
        if params.noiseless:
            mechanism = NoiselessMechanism()
        else:
            mechanism = LaplaceMechanism(half_budget.epsilon)
        alpha = candidate_alpha(
            n, ell, database.alphabet_size, mechanism, params.beta / 2.0, delta_cap
        )
        threshold = params.threshold if params.threshold is not None else 2.0 * alpha

        with obs.span("counts", patterns=len(candidate_qgrams)):
            exact = _candidate_qgram_counts(
                database, params, candidate_qgrams, delta_cap
            )
        with obs.span("noise"):
            if len(candidate_qgrams):
                noisy = mechanism.randomize(
                    exact,
                    l1_sensitivity=2.0 * ell,
                    l2_sensitivity=math.sqrt(2.0 * ell * delta_cap),
                    rng=rng,
                )
            else:
                noisy = exact
        accountant.spend(
            "q-gram counts", mechanism.epsilon if not params.noiseless else 0.0, 0.0
        )

        with obs.span("trie_build"):
            stored: dict[str, float] = {}
            kept = 0
            for pattern, value in zip(candidate_qgrams, noisy):
                if value >= threshold:
                    stored[pattern] = float(value)
                    kept += 1
        if kept > n * ell:
            raise ConstructionAborted(
                f"q-gram set grew to {kept} > n*ell = {n * ell}", level=q
            )

    metadata = StructureMetadata(
        epsilon=params.budget.epsilon,
        delta=0.0,
        beta=params.beta,
        delta_cap=delta_cap,
        max_length=ell,
        num_documents=n,
        alphabet_size=database.alphabet_size,
        error_bound=alpha,
        threshold=threshold,
        qgram_length=q,
        construction="theorem-3 (pure DP q-grams)",
        count_backend=params.count_backend,
    )
    report = {
        "candidate_size": len(candidate_qgrams),
        "candidate_alpha": candidate_alpha_value,
        "stored_qgrams": kept,
        "privacy_spent_epsilon": accountant.total_epsilon,
        "privacy_spent_delta": accountant.total_delta,
        "absent_pattern_bound": max(3.0 * candidate_alpha_value, threshold + alpha),
    }
    structure = PrivateCountingTrie.from_counts(stored, metadata, report)
    if trace_root is not None:
        structure.profile = obs.BuildProfile(trace_root)
    return structure


def _candidate_qgram_counts(
    database: StringDatabase,
    params: ConstructionParams,
    candidate_qgrams: list[str],
    delta_cap: int,
) -> np.ndarray:
    """Exact counts of the candidate q-grams as a float64 vector.

    The array pipeline with an ``"auto"`` counting backend routes the
    uniform-length batch through the sort-join counter (one window sort
    instead of a per-batch automaton); every other combination keeps the
    engine-layer ``count_many``.  Counts are integers either way, so the
    choice never changes a released value.
    """
    if (
        candidate_qgrams
        and params.resolve_build_backend() == "array"
        and params.count_backend == AUTO_BACKEND
    ):
        matrix, lengths = pack_strings(candidate_qgrams)
        if (lengths == lengths[0]).all():
            counter = SortJoinCounter.shared(database)
            return counter.counts(matrix, delta_cap).astype(np.float64)
    return database.count_many(
        candidate_qgrams, delta_cap, backend=params.count_backend
    ).astype(np.float64)


# ----------------------------------------------------------------------
# Theorem 4: approximate DP via the suffix tree (Lemma 21).
# ----------------------------------------------------------------------
def theorem4_qgram_structure(
    database: StringDatabase,
    q: int,
    params: ConstructionParams,
    *,
    rng: np.random.Generator | None = None,
) -> PrivateCountingTrie:
    """The (epsilon, delta)-differentially private q-gram structure with
    near-linear construction time (registry kind ``"qgram-t4"``).

    Only strings with a non-zero true count ever receive a noisy count
    (Lemma 19 shows this preserves approximate DP), which is why the
    algorithm can restrict itself to nodes of the suffix tree of the
    database.
    """
    if rng is None:
        rng = np.random.default_rng()
    ell = params.resolve_max_length(database.max_length)
    if not 1 <= q <= ell:
        raise PrivacyParameterError("q must lie in [1, ell]")
    if params.budget.is_pure and not params.noiseless:
        raise PrivacyParameterError(
            "the Theorem 4 construction requires delta > 0 (use Theorem 3 for pure DP)"
        )
    delta_cap = params.resolve_delta_cap(ell)
    n = database.num_documents
    epsilon, delta = params.budget.epsilon, params.budget.delta
    num_phases = int(math.floor(math.log2(max(1, q)))) + 2
    epsilon_phase = epsilon / num_phases
    if params.noiseless:
        beta_phase = params.beta / num_phases
        mechanism: CountingMechanism = NoiselessMechanism()
    else:
        beta_phase = min(
            params.beta / num_phases, delta / (3.0 * math.exp(epsilon) * num_phases)
        )
        delta_phase = beta_phase
        mechanism = GaussianMechanism(epsilon_phase, delta_phase)
    accountant = PrivacyAccountant()

    alpha = candidate_alpha(
        n, ell, database.alphabet_size, mechanism, beta_phase, delta_cap
    )
    threshold = params.threshold if params.threshold is not None else 2.0 * alpha

    index = database.index
    tree = index.suffix_tree

    def valid_prefix(position: int, length: int) -> bool:
        return index.is_within_document(position, length)

    def noisy_count_of(node_id: int) -> float:
        node = tree.nodes[node_id]
        exact = float(index.count_of_interval(node.sa_lo, node.sa_hi, delta_cap))
        value = mechanism.randomize(
            np.array([exact]),
            l1_sensitivity=2.0 * ell,
            l2_sensitivity=math.sqrt(2.0 * ell * delta_cap),
            rng=rng,
        )
        return float(value[0])

    # The suffix-tree walk has no array/object split; "object" keeps the
    # profile's backend attribute uniform across structure kinds.
    with obs.trace("construction", build_backend="object", q=q) as trace_root:
        # Phase 0: mark the 1-minimal nodes whose noisy count reaches the
        # threshold.
        marked: set[int] = set()
        with obs.span("phase", length=1):
            for node_id in tree.minimal_nodes_at_depth(1, valid_prefix):
                if noisy_count_of(node_id) >= threshold:
                    marked.add(node_id)
        accountant.spend("q-gram phase 1", mechanism.epsilon, mechanism.delta)
        if len(marked) > n * ell:
            raise ConstructionAborted("phase 1 marking exceeded n*ell", level=1)

        # Doubling phases.
        j = int(math.floor(math.log2(max(1, q))))
        length = 1
        for _ in range(1, j + 1):
            length *= 2
            half = length // 2
            new_marked: set[int] = set()
            with obs.span("phase", length=length):
                for node_id in tree.minimal_nodes_at_depth(length, valid_prefix):
                    witness = tree.node_prefix_start(node_id)
                    first = tree.weighted_ancestor(
                        tree.leaf_for_position(witness), half
                    )
                    second_leaf = tree.leaf_for_position(witness + half)
                    second = tree.weighted_ancestor(second_leaf, half)
                    if first in marked and second in marked:
                        if noisy_count_of(node_id) >= threshold:
                            new_marked.add(node_id)
            accountant.spend(
                f"q-gram phase {length}", mechanism.epsilon, mechanism.delta
            )
            if len(new_marked) > n * ell:
                raise ConstructionAborted(
                    f"phase {length} marking exceeded n*ell", level=length
                )
            marked = new_marked

        # Final phase: q-minimal nodes whose length-2^j prefix and suffix were
        # both marked.
        power = 1 << j
        stored: dict[str, float] = {}
        kept = 0
        with obs.span("final_phase", length=q):
            for node_id in tree.minimal_nodes_at_depth(q, valid_prefix):
                witness = tree.node_prefix_start(node_id)
                first = tree.weighted_ancestor(tree.leaf_for_position(witness), power)
                second_leaf = tree.leaf_for_position(witness + q - power)
                second = tree.weighted_ancestor(second_leaf, power)
                if first in marked and second in marked:
                    value = noisy_count_of(node_id)
                    if value >= threshold:
                        stored[index.decode_prefix(witness, q)] = value
                        kept += 1
        accountant.spend("q-gram final phase", mechanism.epsilon, mechanism.delta)

    metadata = StructureMetadata(
        epsilon=epsilon,
        delta=delta,
        beta=params.beta,
        delta_cap=delta_cap,
        max_length=ell,
        num_documents=n,
        alphabet_size=database.alphabet_size,
        error_bound=alpha,
        threshold=threshold,
        qgram_length=q,
        construction="theorem-4 (approx DP q-grams)",
        # The Lemma 21 walk reads counts straight off suffix-tree intervals;
        # it never goes through a per-pattern engine batch.
        count_backend="suffix-array",
    )
    report = {
        "stored_qgrams": kept,
        "num_phases": num_phases,
        "privacy_spent_epsilon": accountant.total_epsilon,
        "privacy_spent_delta": accountant.total_delta,
        "absent_pattern_bound": threshold + alpha,
    }
    structure = PrivateCountingTrie.from_counts(stored, metadata, report)
    if trace_root is not None:
        structure.profile = obs.BuildProfile(trace_root)
    return structure
