"""Baselines the paper compares against.

* :func:`build_simple_trie_baseline` — the "simple approach" from the
  technical overview, used (in various guises) by prior applied work
  [10, 18, 19, 50, 51, 72].  The trie is expanded top-down letter by letter
  and every expanded node receives a noisy count.  A single document can
  influence the counts of up to ``Theta(ell^2)`` nodes (all its substrings),
  so the noise must be scaled to an L1 sensitivity of ``ell (ell + 1)``,
  which is where the baseline's ``Omega(ell^2)`` error comes from.  The
  paper's heavy-path construction reduces this to roughly ``ell``.

* :class:`ExactCountingOracle` — a non-private oracle with the same query
  interface as the private structures, used as ground truth by benchmarks and
  tests.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro import obs
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.core.private_trie import PrivateCountingTrie, StructureMetadata
from repro.dp.mechanisms import (
    CountingMechanism,
    GaussianMechanism,
    LaplaceMechanism,
    NoiselessMechanism,
)

__all__ = ["build_simple_trie_baseline", "ExactCountingOracle"]


def build_simple_trie_baseline(
    database: StringDatabase,
    params: ConstructionParams,
    *,
    rng: np.random.Generator | None = None,
    max_nodes: int = 100_000,
    max_depth: int | None = None,
) -> PrivateCountingTrie:
    """The simple top-down private trie baseline (technical overview).

    Starting from the root, every frontier node is expanded with one child
    per letter of the alphabet; each new node receives a noisy count of the
    string it spells, and is expanded further only when the noisy count
    reaches the threshold.  The entire expansion is one release of counts
    whose L1 sensitivity is ``ell (ell + 1)`` (a replaced document changes
    the counts of all its ``O(ell^2)`` substring occurrences), so the noise —
    and hence the error — scales with ``ell^2``.

    Parameters
    ----------
    max_nodes:
        Safety cap on the number of expanded nodes (the expansion of a noisy
        trie can in principle run away when the noise scale exceeds the
        threshold).
    max_depth:
        Maximum pattern length to expand (defaults to ``ell``).
    """
    if rng is None:
        rng = np.random.default_rng()
    ell = params.resolve_max_length(database.max_length)
    delta_cap = params.resolve_delta_cap(ell)
    depth_limit = ell if max_depth is None else min(max_depth, ell)

    # Sensitivity of the full release: each document contributes at most
    # ell (ell + 1) / 2 substring occurrences, and a replacement changes two
    # documents.
    l1_sensitivity = float(ell * (ell + 1))
    l2_sensitivity = math.sqrt(l1_sensitivity * delta_cap)

    mechanism: CountingMechanism
    if params.noiseless:
        mechanism = NoiselessMechanism()
    elif params.budget.is_pure:
        mechanism = LaplaceMechanism(params.budget.epsilon)
    else:
        mechanism = GaussianMechanism(params.budget.epsilon, params.budget.delta)

    # Error bound of the released counts; the number of potentially released
    # counts is bounded by the node cap.
    alpha = mechanism.sup_error_bound(
        max_nodes,
        params.beta,
        l1_sensitivity=l1_sensitivity,
        l2_sensitivity=l2_sensitivity,
    )
    threshold = params.threshold if params.threshold is not None else 2.0 * alpha

    index = database.index
    # The released counts by pattern; the empty pattern's is the root count.
    counts = {"": float(index.count("", delta_cap))}
    with obs.trace("construction", build_backend="object") as trace_root:
        with obs.span("expand") as sp:
            # Frontier of (pattern, SA interval) pairs to expand, breadth-first.
            frontier: deque = deque([("", (0, len(index.suffix_array)))])
            expanded = 0
            truncated = False
            while frontier:
                prefix, (lo, hi) = frontier.popleft()
                if len(prefix) >= depth_limit:
                    continue
                for symbol in database.alphabet:
                    if expanded >= max_nodes:
                        truncated = True
                        break
                    child_lo, child_hi = index.extend_interval(
                        lo, hi, len(prefix), symbol
                    )
                    exact = float(
                        index.count_of_interval(child_lo, child_hi, delta_cap)
                    )
                    noisy = float(
                        mechanism.randomize(
                            np.array([exact]),
                            l1_sensitivity=l1_sensitivity,
                            l2_sensitivity=l2_sensitivity,
                            rng=rng,
                        )[0]
                    )
                    pattern = prefix + symbol
                    counts[pattern] = noisy
                    expanded += 1
                    if noisy >= threshold:
                        frontier.append((pattern, (child_lo, child_hi)))
                if truncated:
                    break
            if sp is not None:
                sp.attrs["nodes"] = expanded

    metadata = StructureMetadata(
        epsilon=params.budget.epsilon,
        delta=params.budget.delta,
        beta=params.beta,
        delta_cap=delta_cap,
        max_length=ell,
        num_documents=database.num_documents,
        alphabet_size=database.alphabet_size,
        error_bound=alpha,
        threshold=threshold,
        construction="simple-trie baseline",
    )
    report = {
        "expanded_nodes": expanded,
        "truncated": truncated,
        "l1_sensitivity": l1_sensitivity,
    }
    structure = PrivateCountingTrie.from_counts(counts, metadata, report)
    if trace_root is not None:
        structure.profile = obs.BuildProfile(trace_root)
    return structure


class ExactCountingOracle:
    """A non-private oracle with the same query interface as the private
    structures.  Used as ground truth in benchmarks, metrics and examples."""

    def __init__(self, database: StringDatabase, delta_cap: int | None = None) -> None:
        self.database = database
        self.delta_cap = (
            database.max_length if delta_cap is None else min(delta_cap, database.max_length)
        )

    def query(self, pattern: str) -> float:
        """Exact ``count_Delta(pattern, D)``."""
        return float(self.database.count(pattern, self.delta_cap))

    def mine(
        self,
        threshold: float,
        *,
        min_length: int = 1,
        max_length: int | None = None,
        exact_length: int | None = None,
    ) -> list[tuple[str, float]]:
        """Exact frequent patterns (every substring with count >=
        threshold)."""
        from repro.core.counts import exact_count_table

        limit = max_length if max_length is not None else self.database.max_length
        table = exact_count_table(self.database, self.delta_cap, max_length=limit)
        results = []
        for pattern, count in table.items():
            if count < threshold or len(pattern) < min_length:
                continue
            if exact_length is not None and len(pattern) != exact_length:
                continue
            results.append((pattern, float(count)))
        results.sort(key=lambda item: (-item[1], item[0]))
        return results

    @property
    def error_bound(self) -> float:
        return 0.0
