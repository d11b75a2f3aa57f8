"""The main construction algorithms (Theorems 1 and 2).

Given a database ``D`` and a privacy budget, the construction produces a
:class:`~repro.core.private_trie.PrivateCountingTrie` for ``count_Delta`` with
additive error ``O(ell polylog)`` under pure DP (Theorem 1) and
``O(sqrt(ell Delta) polylog)`` under approximate DP (Theorem 2).  The six
steps follow Section 3 of the paper:

1. **Candidate set** — :func:`repro.core.candidate_set.build_candidate_set`
   reduces the universe to at most ``n^2 ell^3`` strings (Lemmas 6/15).
2. **Trie + heavy paths** — the candidates are arranged in a trie ``T_C``
   whose heavy path decomposition bounds, for any single document, the number
   of heavy paths whose counts it can influence (Lemmas 9/10).
3. **Noisy heavy-path roots** — the counts of all heavy-path roots are
   released with one Laplace/Gaussian mechanism invocation (Corollaries 4/7).
4. **Noisy prefix sums of difference sequences** — along every heavy path the
   binary-tree mechanism releases all prefix sums of the count differences
   (Corollaries 5/8).
5. **Combine** — every node's noisy count is its path root's noisy count plus
   the noisy prefix sum at its offset.
6. **Prune** — subtrees whose noisy count falls below ``2 alpha`` are
   removed, which bounds the stored size by ``O(n ell^2)`` nodes with high
   probability.

The same code serves both privacy flavours: the mechanisms are selected from
the budget (``delta = 0`` -> Laplace, ``delta > 0`` -> Gaussian).

Steps 2-6 run on one of two **bit-identical pipelines** selected by
``ConstructionParams.build_backend``: the linked-object reference pipeline
(``"object"``) and the array-native fast path (``"array"``, the default via
``"auto"``), which keeps the candidate trie, heavy paths, difference
sequences and noise application in flat numpy arrays until the final
structure is materialized.  Identical means identical: same exact counts,
same RNG draw order, same noisy values, same prune set, same
``content_digest()`` — see docs/PERFORMANCE.md and
``tests/core/test_build_backends.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.core.array_build import (
    PAD,
    PackedKeys,
    SortJoinCounter,
    annotate_counts_array,
    build_array_trie,
    counter_columns,
    pack_strings,
)
from repro.core.candidate_set import CandidateSet, build_candidate_set
from repro.core.database import StringDatabase
from repro.counting import resolve_backend
from repro.core.params import ConstructionParams
from repro.core.private_trie import PrivateCountingTrie, StructureMetadata
from repro.dp.composition import PrivacyAccountant, PrivacyBudget
from repro.dp.mechanisms import (
    CountingMechanism,
    GaussianMechanism,
    LaplaceMechanism,
    NoiselessMechanism,
)
from repro.dp.prefix_sums import PrefixSumMechanism
from repro.strings.trie import Trie, TrieNode
from repro.trees.heavy_path import FlatHeavyPathDecomposition, HeavyPathDecomposition

__all__ = [
    "build_private_counting_structure",
    "annotate_trie_with_exact_counts",
]

#: trie nodes per block of the array pipeline's root + prefix-sum combine.
COMBINE_BLOCK = 1 << 16


def _stage_mechanism(
    budget: PrivacyBudget, noiseless: bool
) -> CountingMechanism:
    if noiseless:
        return NoiselessMechanism()
    if budget.is_pure:
        return LaplaceMechanism(budget.epsilon)
    return GaussianMechanism(budget.epsilon, budget.delta)


def annotate_trie_with_exact_counts(
    trie: Trie, database: StringDatabase, delta_cap: int, *, backend: str = "auto"
) -> None:
    """Store ``count_Delta(str(v), D)`` in ``node.count`` for every node of
    the candidate trie, using the requested :mod:`repro.counting` backend.

    The trie's node set is prefix-closed, so the suffix-array backend has a
    batch strategy of its own: the counts of all prefixes of a candidate
    string are computed incrementally by narrowing the SA interval one
    character at a time, annotating the whole trie in
    ``O(num_nodes * (log N + cost of a capped count))``.  Every other
    backend receives the node strings as one ``count_many`` batch; the
    strings are collected incrementally during one DFS (extending the
    parent's prefix by one character), never via the ``O(depth)``
    parent-pointer walk of ``node.string()`` — so the batch assembly is
    linear in total characters instead of quadratic on deep tries.
    """
    # The empty pattern occurs min(len(S), delta) times per document; computing
    # it from the lengths keeps the non-suffix-array backends from forcing the
    # O(N log N) index build.
    trie.root.count = float(
        sum(min(len(document), delta_cap) for document in database.documents)
    )
    num_nodes = trie.num_nodes - 1
    name = resolve_backend(backend, num_nodes, database.total_length)
    if name == "suffix-array":
        index = database.index
        root_interval = (0, len(index.suffix_array))
        stack: list[tuple[TrieNode, tuple[int, int]]] = [(trie.root, root_interval)]
        while stack:
            node, (lo, hi) = stack.pop()
            for char, child in node.children.items():
                child_lo, child_hi = index.extend_interval(lo, hi, node.depth, char)
                child.count = float(
                    index.count_of_interval(child_lo, child_hi, delta_cap)
                )
                stack.append((child, (child_lo, child_hi)))
        return
    nodes: list[TrieNode] = []
    patterns: list[str] = []
    prefix_stack: list[tuple[TrieNode, str]] = [(trie.root, "")]
    while prefix_stack:
        node, prefix = prefix_stack.pop()
        if node is not trie.root:
            nodes.append(node)
            patterns.append(prefix)
        for char, child in node.children.items():
            prefix_stack.append((child, prefix + char))
    counts = database.engine(name).count_many(patterns, delta_cap)
    for node, count in zip(nodes, counts):
        node.count = float(count)


def build_private_counting_structure(
    database: StringDatabase,
    params: ConstructionParams,
    *,
    rng: np.random.Generator | None = None,
    candidate_set: CandidateSet | None = None,
) -> PrivateCountingTrie:
    """Build the differentially private counting structure of Theorem 1
    (pure budgets) or Theorem 2 (approximate budgets).

    Parameters
    ----------
    database:
        The database ``D``.
    params:
        Privacy budget, failure probability, contribution cap and knobs
        (including ``build_backend``, which selects the object or array
        pipeline — bit-identical outputs, different speeds).
    rng:
        Randomness source (fresh default generator when omitted).
    candidate_set:
        Pre-built candidate set.  When supplied, the candidate stage is
        skipped entirely and its budget is **not** consumed — callers are
        responsible for having built it privately (used by ablation
        benchmarks and tests).
    """
    if rng is None:
        rng = np.random.default_rng()
    backend = params.resolve_build_backend()

    ell = params.resolve_max_length(database.max_length)
    delta_cap = params.resolve_delta_cap(ell)
    beta_stage = params.beta / 3.0
    accountant = PrivacyAccountant()

    # ------------------------------------------------------------------
    # Budget split: candidate stage gets `candidate_budget_fraction`, the
    # remaining budget is shared evenly by the roots and prefix-sum stages.
    # When the caller supplies a pre-built candidate set, the candidate stage
    # consumes nothing here and the whole budget goes to the two counting
    # stages.
    # ------------------------------------------------------------------
    if candidate_set is None:
        candidate_budget = params.budget.scaled(params.candidate_budget_fraction)
        remaining_fraction = (1.0 - params.candidate_budget_fraction) / 2.0
    else:
        candidate_budget = None
        remaining_fraction = 0.5
    stage_budget = params.budget.scaled(remaining_fraction)

    with obs.trace("construction", build_backend=backend) as root:
        # --------------------------------------------------------------
        # Step 1: candidate set.
        # --------------------------------------------------------------
        if candidate_set is None:
            with obs.span("candidates"):
                candidate_set = build_candidate_set(
                    database, params, budget=candidate_budget, rng=rng
                )
            for record in candidate_set.accountant.records:
                accountant.spend(record.label, record.epsilon, record.delta)

        if backend == "array":
            structure = _finish_structure_array(
                database,
                params,
                rng,
                candidate_set,
                stage_budget=stage_budget,
                accountant=accountant,
                ell=ell,
                delta_cap=delta_cap,
                beta_stage=beta_stage,
            )
        else:
            structure = _finish_structure_object(
                database,
                params,
                rng,
                candidate_set,
                stage_budget=stage_budget,
                accountant=accountant,
                ell=ell,
                delta_cap=delta_cap,
                beta_stage=beta_stage,
            )
    if root is not None:
        structure.profile = obs.BuildProfile(root)
    return structure


def _assemble_metadata_report(
    *,
    database: StringDatabase,
    params: ConstructionParams,
    ell: int,
    delta_cap: int,
    accountant: PrivacyAccountant,
    candidate_set: CandidateSet,
    nodes_before: int,
    nodes_after: int,
    num_paths: int,
    max_path_length: int,
    roots_error: float,
    sums_error: float,
    prune_threshold: float,
) -> tuple[StructureMetadata, dict]:
    """Metadata and report shared verbatim by both pipelines (every value is
    derived from the same deterministic quantities, so the two backends
    produce identical payloads and digests)."""
    alpha_counts = roots_error + sums_error
    construction_name = (
        "theorem-1 (pure DP)" if params.is_pure else "theorem-2 (approx DP)"
    )
    metadata = StructureMetadata(
        epsilon=params.budget.epsilon,
        delta=params.budget.delta,
        beta=params.beta,
        delta_cap=delta_cap,
        max_length=ell,
        num_documents=database.num_documents,
        alphabet_size=database.alphabet_size,
        error_bound=alpha_counts,
        threshold=prune_threshold,
        construction=construction_name,
        count_backend=params.count_backend,
    )
    report = {
        "candidate_size": candidate_set.size,
        "candidate_alpha": candidate_set.alpha,
        "candidate_threshold": candidate_set.threshold,
        "trie_nodes_before_pruning": nodes_before,
        "trie_nodes_after_pruning": nodes_after,
        "num_heavy_paths": num_paths,
        "max_heavy_path_length": max_path_length,
        "roots_error_bound": roots_error,
        "prefix_sums_error_bound": sums_error,
        "absent_pattern_bound": max(
            3.0 * candidate_set.alpha, prune_threshold + alpha_counts
        ),
        "privacy_spent_epsilon": accountant.total_epsilon,
        "privacy_spent_delta": accountant.total_delta,
    }
    return metadata, report


def _finish_structure_object(
    database: StringDatabase,
    params: ConstructionParams,
    rng: np.random.Generator,
    candidate_set: CandidateSet,
    *,
    stage_budget: PrivacyBudget,
    accountant: PrivacyAccountant,
    ell: int,
    delta_cap: int,
    beta_stage: float,
) -> PrivateCountingTrie:
    """Steps 2-6 on the linked-object reference pipeline."""
    # ------------------------------------------------------------------
    # Step 2: candidate trie and heavy path decomposition.
    # ------------------------------------------------------------------
    with obs.span("trie_build") as sp:
        trie = Trie()
        for pattern in sorted(candidate_set.all_strings()):
            trie.insert(pattern)
        if sp is not None:
            sp.attrs["nodes"] = trie.num_nodes
    with obs.span("annotate"):
        annotate_trie_with_exact_counts(
            trie, database, delta_cap, backend=params.count_backend
        )
    with obs.span("decomposition"):
        decomposition = HeavyPathDecomposition(
            trie.root, lambda node: list(node.children.values())
        )
    trie_size = trie.num_nodes
    log_trie = math.floor(math.log2(max(2, trie_size))) + 1

    # ------------------------------------------------------------------
    # Step 3: noisy counts of the heavy-path roots.
    # A document of length <= ell influences the counts of at most
    # ell * (log|T_C| + 1) heavy-path roots in total (Lemma 10), hence the
    # L1 sensitivity is 2 ell (log|T_C| + 1); every coordinate changes by at
    # most Delta, so the L2 sensitivity is sqrt(L1 * Delta) (Lemma 14).
    # ------------------------------------------------------------------
    with obs.span("noise", paths=len(decomposition.paths)):
        roots_mechanism = _stage_mechanism(stage_budget, params.noiseless)
        roots = decomposition.path_roots()
        roots_l1 = 2.0 * ell * log_trie
        roots_l2 = math.sqrt(roots_l1 * delta_cap)
        root_values = np.array([node.count for node in roots], dtype=np.float64)
        noisy_roots = roots_mechanism.randomize(
            root_values, l1_sensitivity=roots_l1, l2_sensitivity=roots_l2, rng=rng
        )
        accountant.spend(
            "heavy-path roots",
            roots_mechanism.epsilon if not params.noiseless else 0.0,
            roots_mechanism.delta if not params.noiseless else 0.0,
        )
        roots_error = roots_mechanism.sup_error_bound(
            max(1, len(roots)),
            beta_stage,
            l1_sensitivity=roots_l1,
            l2_sensitivity=roots_l2,
        )

        # --------------------------------------------------------------
        # Step 4: noisy prefix sums of the difference sequences along every
        # heavy path (binary-tree mechanism; Lemmas 11/18).
        # --------------------------------------------------------------
        sums_mechanism = _stage_mechanism(stage_budget, params.noiseless)
        sequences = decomposition.difference_sequences(lambda node: node.count)
        max_sequence_length = max(1, max((len(seq) for seq in sequences), default=0))
        prefix_mechanism = PrefixSumMechanism(
            sums_mechanism,
            total_l1_sensitivity=2.0 * ell * log_trie,
            per_sequence_l1_sensitivity=2.0 * delta_cap,
            max_length=max_sequence_length,
        )
        noisy_sums = prefix_mechanism.release_many(sequences, rng)
        accountant.spend(
            "difference-sequence prefix sums",
            sums_mechanism.epsilon if not params.noiseless else 0.0,
            sums_mechanism.delta if not params.noiseless else 0.0,
        )
        sums_error = prefix_mechanism.sup_error_bound(
            max(1, len(sequences)), beta_stage
        )

        # --------------------------------------------------------------
        # Step 5: combine into per-node noisy counts.
        # --------------------------------------------------------------
        for path, root_estimate, sums in zip(
            decomposition.paths, noisy_roots, noisy_sums
        ):
            for offset, node in enumerate(path.nodes):
                if offset == 0:
                    node.noisy_count = float(root_estimate)
                else:
                    node.noisy_count = float(root_estimate) + sums.prefix(offset)

    alpha_counts = roots_error + sums_error
    prune_threshold = (
        params.threshold if params.threshold is not None else 2.0 * alpha_counts
    )

    # ------------------------------------------------------------------
    # Step 6: prune subtrees with small noisy counts (post-processing).
    # ------------------------------------------------------------------
    nodes_before_pruning = trie.num_nodes
    with obs.span("prune") as sp:
        _prune(trie, prune_threshold)
        if sp is not None:
            sp.attrs["removed"] = nodes_before_pruning - trie.num_nodes

    metadata, report = _assemble_metadata_report(
        database=database,
        params=params,
        ell=ell,
        delta_cap=delta_cap,
        accountant=accountant,
        candidate_set=candidate_set,
        nodes_before=nodes_before_pruning,
        nodes_after=trie.num_nodes,
        num_paths=len(decomposition.paths),
        max_path_length=decomposition.max_path_length(),
        roots_error=roots_error,
        sums_error=sums_error,
        prune_threshold=prune_threshold,
    )
    with obs.span("materialize"):
        structure = PrivateCountingTrie.from_counts(
            _noisy_counts(trie), metadata, report
        )
    return structure


def _finish_structure_array(
    database: StringDatabase,
    params: ConstructionParams,
    rng: np.random.Generator,
    candidate_set: CandidateSet,
    *,
    stage_budget: PrivacyBudget,
    accountant: PrivacyAccountant,
    ell: int,
    delta_cap: int,
    beta_stage: float,
) -> PrivateCountingTrie:
    """Steps 2-6 on the array-native pipeline — bit-identical to the object
    finisher (same candidate trie, same heavy-path order, same RNG draws,
    same float operations), with every intermediate a flat numpy array."""
    # ------------------------------------------------------------------
    # Step 2: radix-build the candidate trie over the sorted candidate
    # matrix, then decompose it.
    # ------------------------------------------------------------------
    with obs.span("trie_build") as sp:
        codec = SortJoinCounter.shared(database).codec
        matrix, row_lengths, row_keys = _candidate_matrix(candidate_set, codec)
        trie, node_row = build_array_trie(matrix, row_lengths)
        if sp is not None:
            sp.attrs["nodes"] = trie.num_nodes
    with obs.span("annotate"):
        counts = annotate_counts_array(
            trie,
            matrix,
            row_keys,
            node_row,
            database,
            delta_cap,
            count_backend=params.count_backend,
        )
        # Only the topology outlives annotation: the sorted candidate
        # matrix, its keys and its row map are the largest arrays of the
        # build.
        del matrix, row_lengths, row_keys, node_row
    with obs.span("decomposition"):
        decomposition = FlatHeavyPathDecomposition(trie.parents, trie.depths)
    trie_size = trie.num_nodes
    log_trie = math.floor(math.log2(max(2, trie_size))) + 1

    # ------------------------------------------------------------------
    # Steps 3-5: noisy roots, noisy prefix sums, combine — one vectorized
    # pass each, drawing noise in exactly the object pipeline's order
    # (roots vector first, then the per-path interval draws path-major).
    # ------------------------------------------------------------------
    with obs.span("noise", paths=int(decomposition.num_paths)):
        roots_mechanism = _stage_mechanism(stage_budget, params.noiseless)
        roots_l1 = 2.0 * ell * log_trie
        roots_l2 = math.sqrt(roots_l1 * delta_cap)
        root_values = counts[decomposition.path_start]
        noisy_roots = roots_mechanism.randomize(
            root_values, l1_sensitivity=roots_l1, l2_sensitivity=roots_l2, rng=rng
        )
        accountant.spend(
            "heavy-path roots",
            roots_mechanism.epsilon if not params.noiseless else 0.0,
            roots_mechanism.delta if not params.noiseless else 0.0,
        )
        roots_error = roots_mechanism.sup_error_bound(
            max(1, decomposition.num_paths),
            beta_stage,
            l1_sensitivity=roots_l1,
            l2_sensitivity=roots_l2,
        )

        sums_mechanism = _stage_mechanism(stage_budget, params.noiseless)
        differences = decomposition.difference_sequences_flat(counts)
        difference_offsets = decomposition.difference_offsets()
        max_sequence_length = max(
            1,
            int(decomposition.path_length.max() - 1) if decomposition.num_paths else 0,
        )
        prefix_mechanism = PrefixSumMechanism(
            sums_mechanism,
            total_l1_sensitivity=2.0 * ell * log_trie,
            per_sequence_l1_sensitivity=2.0 * delta_cap,
            max_length=max_sequence_length,
        )
        prefix_values = prefix_mechanism.release_many_flat(
            differences, difference_offsets, rng
        )
        accountant.spend(
            "difference-sequence prefix sums",
            sums_mechanism.epsilon if not params.noiseless else 0.0,
            sums_mechanism.delta if not params.noiseless else 0.0,
        )
        sums_error = prefix_mechanism.sup_error_bound(
            max(1, decomposition.num_paths), beta_stage
        )

        # Combine one block of path_nodes at a time.  Path p's node at
        # path_nodes position q (offset > 0) reads prefix sum q - p - 1.
        noisy = np.empty(trie_size, dtype=np.float64)
        for lo in range(0, trie_size, COMBINE_BLOCK):
            nodes = decomposition.path_nodes[lo : lo + COMBINE_BLOCK]
            paths = decomposition.path_id[nodes]
            estimate = noisy_roots[paths]
            deeper = np.flatnonzero(decomposition.offset_on_path[nodes] > 0)
            estimate[deeper] = estimate[deeper] + prefix_values[
                lo + deeper - paths[deeper] - 1
            ]
            noisy[nodes] = estimate

    alpha_counts = roots_error + sums_error
    prune_threshold = (
        params.threshold if params.threshold is not None else 2.0 * alpha_counts
    )

    # ------------------------------------------------------------------
    # Step 6: prune — a node survives iff it and all its ancestors clear
    # the threshold, computed top-down one level slice at a time.
    # ------------------------------------------------------------------
    with obs.span("prune") as sp:
        keep = np.zeros(trie.num_nodes, dtype=bool)
        keep[0] = True
        clears = noisy >= prune_threshold
        for depth in range(1, trie.max_depth + 1):
            lo, hi = int(trie.level_bounds[depth]), int(trie.level_bounds[depth + 1])
            keep[lo:hi] = keep[trie.parents[lo:hi]] & clears[lo:hi]
        nodes_after = int(keep.sum())
        if sp is not None:
            sp.attrs["removed"] = trie_size - nodes_after

    metadata, report = _assemble_metadata_report(
        database=database,
        params=params,
        ell=ell,
        delta_cap=delta_cap,
        accountant=accountant,
        candidate_set=candidate_set,
        nodes_before=trie_size,
        nodes_after=nodes_after,
        num_paths=decomposition.num_paths,
        max_path_length=decomposition.max_path_length(),
        roots_error=roots_error,
        sums_error=sums_error,
        prune_threshold=prune_threshold,
    )
    with obs.span("materialize"):
        structure = PrivateCountingTrie(
            **counter_columns(trie, noisy, keep), metadata=metadata, report=report
        )
    return structure


def _candidate_matrix(
    candidate_set: CandidateSet, codec: PackedKeys
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full candidate set as one sorted PAD-padded code matrix, plus
    its row lengths and row keys under ``codec``.

    Reuses the per-length matrices the array candidate stage attached and
    sorts their rows by packed key; caller-supplied candidate sets
    (ablations, tests) fall back to one bulk encode of the sorted string
    union.  Rows are distinct (per-length matrices are deduplicated and
    lengths never collide), so the radix trie build sees exactly the
    object pipeline's ``sorted(all_strings())`` insertions.
    """
    if candidate_set.matrices is None:
        matrix, lengths = pack_strings(sorted(candidate_set.all_strings()))
        return matrix, lengths, codec.keys(matrix)
    per_length = [
        block for block in candidate_set.matrices.values() if block.shape[0]
    ]
    if not per_length:
        empty = np.zeros((0, 0), dtype=np.int32)
        return empty, np.zeros(0, dtype=np.int64), codec.keys(empty)
    width = max(block.shape[1] for block in per_length)
    keys = np.concatenate([codec.keys(block, width) for block in per_length])
    # Keys are distinct; the stable sort merges the already sorted blocks
    # (half the time of quicksort at the publish size).
    order = np.argsort(keys, kind="stable")
    # Each block is written straight into its rows' sorted positions.
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    matrix = np.full((order.size, width), PAD, dtype=np.int32)
    lengths = np.empty(order.size, dtype=np.int64)
    cursor = 0
    for block in per_length:
        rows = position[cursor : cursor + block.shape[0]]
        matrix[rows, : block.shape[1]] = block
        lengths[rows] = block.shape[1]
        cursor += block.shape[0]
    return matrix, lengths, keys[order]


def _noisy_counts(trie: Trie) -> dict[str, float]:
    """Every node's noisy count keyed by the string it spells (the root's
    under the empty pattern) — the released part of the candidate trie."""
    counts: dict[str, float] = {}
    stack: list[tuple[TrieNode, str]] = [(trie.root, "")]
    while stack:
        node, prefix = stack.pop()
        counts[prefix] = node.noisy_count
        for char, child in node.children.items():
            stack.append((child, prefix + char))
    return counts


def _prune(trie: Trie, threshold: float) -> None:
    """Remove every subtree whose root has a noisy count below the threshold
    (the trie root itself is never removed)."""
    stack = [trie.root]
    while stack:
        node = stack.pop()
        for child in list(node.children.values()):
            noisy = child.noisy_count if child.noisy_count is not None else -math.inf
            if noisy < threshold:
                trie.delete_subtree(child)
            else:
                stack.append(child)
