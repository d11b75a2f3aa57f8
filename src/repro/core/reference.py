"""The linked-object reference pipeline of the Theorem 1/2 construction.

Production builds (:func:`repro.core.candidate_set.build_candidate_set`,
:func:`repro.core.construction.build_private_counting_structure`) keep the
candidates, the candidate trie, its heavy paths and the noise in flat numpy
arrays.  This module keeps the pipeline they replaced — sorted string
levels, a Python ``TrieNode`` trie, one engine-layer ``count_many`` batch
per level, per-node noise and pruning — as the reference they must match
bit for bit: same exact counts, same RNG draw order, same float
operations, same prune set, same ``content_digest()`` and the same
``ConstructionAborted`` failures.  ``tests/core/test_build_backends.py``
compares the two on random corpora and E24
(``benchmarks/bench_construction.py``) times them against each other.

The budget split, calibration, accountant and trace are the production
ones; only the stage bodies live here.  Nothing in the library outside
:mod:`repro.analysis` imports this module (``tests/test_layering.py``).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.array_build import PackedKeys, decode_rows, pack_strings
from repro.core.candidate_growth import _prune_by_noisy_count
from repro.core.candidate_set import CandidateSet, _calibrate, _complete_lengths
from repro.core.construction import (
    _assemble_metadata_report,
    _run_construction,
    _stage_mechanism,
)
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.core.private_trie import PrivateCountingTrie
from repro.counting import resolve_backend
from repro.dp.composition import PrivacyAccountant, PrivacyBudget
from repro.dp.prefix_sums import PrefixSumMechanism
from repro.exceptions import ConstructionAborted
from repro.strings.trie import Trie, TrieNode
from repro.trees.heavy_path import HeavyPathDecomposition

__all__ = [
    "annotate_trie_with_exact_counts",
    "reference_candidate_set",
    "reference_counting_structure",
]


def reference_candidate_set(
    database: StringDatabase,
    params: ConstructionParams,
    *,
    budget: PrivacyBudget | None = None,
    rng: np.random.Generator | None = None,
    doubling_limit: int | None = None,
    lengths: Sequence[int] | None = None,
) -> CandidateSet:
    """:func:`~repro.core.candidate_set.build_candidate_set` on sorted
    string levels: every doubling level counts all ``|P|^2``
    concatenations in one ``count_many`` batch."""
    if rng is None:
        rng = np.random.default_rng()
    stage = _calibrate(database, params, budget, doubling_limit)
    mechanism, ell, delta_cap = stage.mechanism, stage.ell, stage.delta_cap
    threshold, capacity = stage.threshold, stage.capacity

    accountant = PrivacyAccountant()
    levels: dict[int, list[str]] = {}

    # ------------------------------------------------------------------
    # Level 0: single letters.  Every letter of the (public) alphabet gets a
    # noisy count, including letters that never occur.
    # ------------------------------------------------------------------
    letters = list(database.alphabet)
    with obs.span("level", length=1):
        with obs.span("count", patterns=len(letters)):
            exact = database.count_many(letters, delta_cap)
        kept = _prune_by_noisy_count(
            letters, exact, mechanism, ell, delta_cap, threshold, rng
        )
    accountant.spend("candidates level 1", mechanism.epsilon, mechanism.delta)
    if len(kept) > capacity:
        raise ConstructionAborted(
            f"candidate set P_1 grew to {len(kept)} > n*ell = {capacity}", level=1
        )
    levels[1] = sorted(kept)

    # ------------------------------------------------------------------
    # Doubling levels: P_{2^k} from P_{2^{k-1}} o P_{2^{k-1}}.
    # ------------------------------------------------------------------
    length = 1
    while length * 2 <= stage.limit:
        length *= 2
        previous = levels[length // 2]
        with obs.span("level", length=length):
            pairs = [left + right for left in previous for right in previous]
            # Deduplicate while keeping order deterministic.
            pairs = sorted(set(pairs))
            with obs.span("count", patterns=len(pairs)):
                exact = database.count_many(pairs, delta_cap)
            kept = _prune_by_noisy_count(
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
        alpha=stage.alpha,
        threshold=threshold,
        accountant=accountant,
    )


def reference_counting_structure(
    database: StringDatabase,
    params: ConstructionParams,
    *,
    rng: np.random.Generator | None = None,
    candidate_set: CandidateSet | None = None,
) -> PrivateCountingTrie:
    """:func:`~repro.core.construction.build_private_counting_structure`
    on the linked-object pipeline (same arguments, same result)."""
    return _run_construction(
        database,
        params,
        rng,
        candidate_set,
        candidates=reference_candidate_set,
        finish=_finish_structure_object,
    )


def annotate_trie_with_exact_counts(
    trie: Trie, database: StringDatabase, delta_cap: int
) -> None:
    """Store ``count_Delta(str(v), D)`` in ``node.count`` for every node of
    the candidate trie, through the :mod:`repro.counting` engine the
    ``"auto"`` rule picks for the batch.

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
    name = resolve_backend("auto", num_nodes, database.total_length)
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
    """Steps 2-6 on the linked-object trie."""
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
        annotate_trie_with_exact_counts(trie, database, delta_cap)
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
