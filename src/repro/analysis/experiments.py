"""Experiment runners.

Each function implements one experiment of the index in DESIGN.md (E1-E19)
and returns a list of row dictionaries — the same rows the corresponding
benchmark prints and EXPERIMENTS.md records.  Keeping the logic here (rather
than in the benchmark files) makes every experiment runnable from the CLI,
from notebooks and from the tests.

Two measurement conventions deserve a note:

* **Shape experiments with exact candidates.**  For the error-scaling
  experiments (E4, E5, E8, E17) the quantity of interest is the error of the
  *counting stages* (heavy-path roots + prefix sums), i.e. the alpha bounded
  by Corollaries 4+5 / 7+8.  Running the noisy candidate stage on laptop-
  sized inputs would simply prune everything (the thresholds are calibrated
  for much larger databases), so these experiments inject an exact candidate
  set and disable pruning; the noise of the counting stages is the real,
  calibrated noise.  This isolates exactly the quantity the theorems bound
  and is documented in EXPERIMENTS.md.
* **End-to-end experiments.**  The mining experiment (E9) and the q-gram
  experiments (E6, E7) run the full private pipeline, including candidate
  selection and thresholding.
"""

from __future__ import annotations

import math
import os
import time
from typing import Callable, Sequence

import numpy as np

from repro.api import Dataset, default_registry
from repro.core.candidate_growth import build_onestep_candidate_set
from repro.core.candidate_set import CandidateSet, build_candidate_set
from repro.core.construction import build_private_counting_structure
from repro.core.counts import exact_count_table
from repro.core.database import StringDatabase
from repro.core.error_bounds import (
    baseline_error_bound,
    counting_stage_bound,
    theorem1_asymptotic,
    theorem2_asymptotic,
    theorem5_lower_bound,
    theorem6_lower_bound,
    theorem7_lower_bound,
)
from repro.core.lower_bounds import exact_marginals
from repro.core.mining import check_mining_guarantee, mine_frequent_substrings
from repro.core.params import ConstructionParams
from repro.core.reference import (
    annotate_trie_with_exact_counts,
    reference_counting_structure,
)
from repro.counting import auto_backend
from repro.dp.composition import PrivacyBudget
from repro.dp.mechanisms import LaplaceMechanism
from repro.dp.prefix_sums import PrefixSumMechanism
from repro.analysis.metrics import mining_quality
from repro.strings.trie import Trie
from repro.trees.colored import (
    ColoredItem,
    exact_colored_counts,
    exact_hierarchical_counts,
    private_colored_counts,
    private_hierarchical_counts,
)
from repro.trees.hierarchy import build_balanced_hierarchy
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.range_counting import (
    leaf_sum_error_bound,
    leaf_sum_tree_counts,
    range_counting_error_bound,
    range_counting_tree_counts,
)
from repro.trees.tree_counting import tree_counting_error_bound
from repro.workloads.adversarial import (
    random_marginals_instance,
    worst_case_packing,
    worst_case_substring_pair,
)
from repro.workloads.genome import genome_with_motifs
from repro.workloads.synthetic import periodic_documents, uniform_documents
from repro.workloads.transit import transit_trajectories

__all__ = [
    "example_database",
    "run_example_counts",
    "run_candidate_figure",
    "run_prefix_sum_figure",
    "exact_candidate_set",
    "build_structure_with_exact_candidates",
    "run_error_scaling",
    "run_document_vs_substring",
    "run_qgram_error",
    "run_qgram_timing",
    "run_baseline_comparison",
    "run_mining_experiment",
    "run_packing_experiment",
    "run_substring_lb_experiment",
    "run_marginals_experiment",
    "run_tree_counting_experiment",
    "run_colored_counting_experiment",
    "run_query_time_experiment",
    "run_prefix_sum_ablation",
    "run_heavy_path_ablation",
    "run_tree_strategy_comparison",
    "run_candidate_growth_ablation",
    "run_counting_engine_benchmark",
    "run_query_many_benchmark",
    "run_serving_throughput",
    "run_concurrent_serving",
    "run_construction_benchmark",
    "run_serving_scale",
    "run_continual_release",
    "run_chaos_drill",
    "failpoint_overhead",
]


# ----------------------------------------------------------------------
# The paper's running example (Example 1 / Figures 1-3).
# ----------------------------------------------------------------------
def example_database() -> StringDatabase:
    """The database of Example 1: {aaaa, abe, absab, babe, bee, bees}."""
    return StringDatabase(["aaaa", "abe", "absab", "babe", "bee", "bees"])


def run_example_counts() -> list[dict]:
    """E1 — Example 1 and Figure 1: counts on the running example and the
    size of the trie of all suffixes."""
    database = example_database()
    suffix_trie = Trie()
    for document in database:
        for start in range(len(document)):
            suffix_trie.insert(document[start:])
    rows = []
    for pattern in ["ab", "b", "be", "a", "bee", "absab"]:
        rows.append(
            {
                "pattern": pattern,
                "substring_count": database.substring_count(pattern),
                "document_count": database.document_count(pattern),
            }
        )
    rows.append(
        {
            "pattern": "(suffix-trie nodes)",
            "substring_count": suffix_trie.num_nodes,
            "document_count": suffix_trie.height(),
        }
    )
    return rows


def run_candidate_figure() -> list[dict]:
    """E2 — Examples 2-4 and Figure 2: the exact candidate sets with
    threshold tau = 1 and the heavy path decomposition of the candidate
    trie."""
    database = example_database()
    params = ConstructionParams.pure(
        epsilon=1.0, beta=0.1, noiseless=True, threshold=1.0
    )
    candidates = build_candidate_set(database, params)
    rows = []
    for level in sorted(candidates.levels):
        rows.append(
            {
                "set": f"P_{level}",
                "size": len(candidates.levels[level]),
                "strings": " ".join(candidates.levels[level]),
            }
        )
    for length in (3, 5):
        strings = candidates.by_length.get(length, [])
        rows.append(
            {
                "set": f"C_{length}",
                "size": len(strings),
                "strings": " ".join(strings),
            }
        )
    trie = Trie(sorted(candidates.all_strings()))
    decomposition = HeavyPathDecomposition(
        trie.root, lambda node: list(node.children.values())
    )
    rows.append(
        {
            "set": "trie T_C",
            "size": trie.num_nodes,
            "strings": f"{decomposition.num_paths} heavy paths, "
            f"longest {decomposition.max_path_length()} nodes",
        }
    )
    return rows


def run_prefix_sum_figure() -> list[dict]:
    """E3 — Figure 3: the difference sequence of the topmost heavy path of
    the candidate trie and its (exact) dyadic prefix sums."""
    database = example_database()
    params = ConstructionParams.pure(
        epsilon=1.0, beta=0.1, noiseless=True, threshold=1.0
    )
    candidates = build_candidate_set(database, params)
    trie = Trie(sorted(candidates.all_strings()))
    annotate_trie_with_exact_counts(trie, database, database.max_length)
    decomposition = HeavyPathDecomposition(
        trie.root, lambda node: list(node.children.values())
    )
    top_path = decomposition.path_of(trie.root)
    counts = [node.count for node in top_path.nodes]
    differences = [counts[i] - counts[i - 1] for i in range(1, len(counts))]
    rows = []
    for offset, node in enumerate(top_path.nodes):
        rows.append(
            {
                "node": node.string() or "(root)",
                "count": counts[offset],
                "difference": differences[offset - 1] if offset > 0 else "",
                "prefix_sum": sum(differences[:offset]),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Helpers for the shape experiments.
# ----------------------------------------------------------------------
def exact_candidate_set(
    database: StringDatabase, params: ConstructionParams
) -> CandidateSet:
    """The exact candidate set (noiseless doubling, threshold 1): precisely
    the frequent-substring skeleton the private construction would converge
    to on a large database.  Used to isolate the counting-stage error in the
    shape experiments."""
    noiseless = ConstructionParams(
        budget=params.budget,
        beta=params.beta,
        delta_cap=params.delta_cap,
        max_length=params.max_length,
        threshold=1.0,
        noiseless=True,
        candidate_budget_fraction=params.candidate_budget_fraction,
    )
    return build_candidate_set(database, noiseless)


def build_structure_with_exact_candidates(
    database: StringDatabase,
    params: ConstructionParams,
    rng: np.random.Generator,
):
    """Build the counting structure with an exact candidate set and without
    pruning, so every candidate node carries a (really noisy) count whose
    error is exactly what Corollaries 4+5 / 7+8 bound."""
    candidates = exact_candidate_set(database, params)
    no_prune = ConstructionParams(
        budget=params.budget,
        beta=params.beta,
        delta_cap=params.delta_cap,
        max_length=params.max_length,
        threshold=-math.inf,
        noiseless=params.noiseless,
        candidate_budget_fraction=params.candidate_budget_fraction,
    )
    return build_private_counting_structure(
        database, no_prune, rng=rng, candidate_set=candidates
    )


def _stored_count_errors(structure, database: StringDatabase, delta_cap: int) -> np.ndarray:
    """Errors of every stored (non-root) noisy count against the exact
    count (one batched engine call for the whole structure)."""
    stored = list(structure.items())
    if not stored:
        return np.zeros(0, dtype=np.float64)
    patterns = [pattern for pattern, _ in stored]
    noisy = np.array([count for _, count in stored], dtype=np.float64)
    exact = database.count_many(patterns, delta_cap)
    return np.abs(noisy - exact)


# ----------------------------------------------------------------------
# E4 / E5: error scaling of the main structures.
# ----------------------------------------------------------------------
def run_error_scaling(
    ells: Sequence[int],
    *,
    n: int = 30,
    epsilon: float = 1.0,
    delta: float = 0.0,
    delta_cap: int | None = None,
    symbols: Sequence[str] = ("a", "b", "c", "d"),
    seed: int = 7,
    trials: int = 3,
) -> list[dict]:
    """E4/E5 — maximum stored-count error of the Theorem 1/2 structures as a
    function of ell, next to the analytic bound and the paper's asymptotic
    shape."""
    rows = []
    for ell in ells:
        rng = np.random.default_rng(seed + ell)
        database = uniform_documents(n, ell, symbols, rng)
        if delta > 0:
            params = ConstructionParams.approximate(
                epsilon, delta, beta=0.1, delta_cap=delta_cap
            )
        else:
            params = ConstructionParams.pure(epsilon, beta=0.1, delta_cap=delta_cap)
        cap = params.resolve_delta_cap(ell)
        max_errors = []
        for trial in range(trials):
            structure = build_structure_with_exact_candidates(
                database, params, np.random.default_rng(seed * 1000 + ell * 10 + trial)
            )
            errors = _stored_count_errors(structure, database, cap)
            max_errors.append(float(errors.max()) if len(errors) else 0.0)
        bound = counting_stage_bound(
            n,
            ell,
            params,
            trie_size=structure.report["trie_nodes_after_pruning"],
            num_paths=structure.report["num_heavy_paths"],
            max_path_length=structure.report["max_heavy_path_length"],
        )
        if delta > 0:
            asymptotic = theorem2_asymptotic(
                n, ell, len(symbols), epsilon, delta, cap, beta=0.1
            )
        else:
            asymptotic = theorem1_asymptotic(n, ell, len(symbols), epsilon, beta=0.1)
        rows.append(
            {
                "ell": ell,
                "n": n,
                "epsilon": epsilon,
                "delta": delta,
                "delta_cap": cap,
                "max_error_mean": float(np.mean(max_errors)),
                "max_error_worst": float(np.max(max_errors)),
                "analytic_bound": bound,
                "paper_asymptotic": asymptotic,
                "stored_patterns": structure.num_stored_patterns,
            }
        )
    return rows


def run_document_vs_substring(
    ells: Sequence[int],
    *,
    n: int = 30,
    epsilon: float = 1.0,
    delta: float = 1e-6,
    symbols: Sequence[str] = ("a", "b", "c", "d"),
    seed: int = 11,
) -> list[dict]:
    """E5 — under approximate DP, Document Count (Delta = 1) should beat
    Substring Count (Delta = ell) by roughly sqrt(ell)."""
    rows = []
    for ell in ells:
        rng = np.random.default_rng(seed + ell)
        database = uniform_documents(n, ell, symbols, rng)
        errors = {}
        for label, cap in (("document", 1), ("substring", None)):
            params = ConstructionParams.approximate(
                epsilon, delta, beta=0.1, delta_cap=cap
            )
            structure = build_structure_with_exact_candidates(
                database, params, np.random.default_rng(seed * 97 + ell)
            )
            observed = _stored_count_errors(
                structure, database, params.resolve_delta_cap(ell)
            )
            errors[label] = float(observed.max()) if len(observed) else 0.0
        ratio = errors["substring"] / errors["document"] if errors["document"] else float("nan")
        rows.append(
            {
                "ell": ell,
                "document_count_error": errors["document"],
                "substring_count_error": errors["substring"],
                "ratio": ratio,
                "sqrt_ell": math.sqrt(ell),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E6 / E7: q-gram structures.
# ----------------------------------------------------------------------
def run_qgram_error(
    qs: Sequence[int],
    *,
    n: int = 60,
    ell: int = 20,
    epsilon: float = 1.0,
    delta: float = 1e-6,
    seed: int = 5,
) -> list[dict]:
    """E6/E7 — stored-count error of the two q-gram structures (pure vs
    approximate DP) with pruning disabled, as a function of q."""
    rng = np.random.default_rng(seed)
    database = genome_with_motifs(n, ell, rng)
    rows = []
    for q in qs:
        pure_params = ConstructionParams.pure(
            epsilon, beta=0.1, threshold=-math.inf
        )
        approx_params = ConstructionParams.approximate(
            epsilon, delta, beta=0.1, threshold=-math.inf
        )
        # Exact candidate q-grams (noiseless doubling with threshold 1), so
        # the measured error isolates the counting stage — same convention as
        # the E4/E5 shape experiments.
        exact_params = ConstructionParams.pure(
            epsilon, beta=0.1, noiseless=True, threshold=1.0
        )
        exact_candidates = build_candidate_set(
            database, exact_params, doubling_limit=q, lengths=[q]
        )
        pure = default_registry().build(
            "qgram-t3",
            database,
            pure_params,
            rng=np.random.default_rng(seed + q),
            q=q,
            candidate_qgrams=exact_candidates.by_length.get(q, []),
        )
        approx = default_registry().build(
            "qgram-t4",
            database,
            approx_params,
            rng=np.random.default_rng(seed + 100 + q),
            q=q,
        )
        cap = database.max_length
        pure_errors = _stored_count_errors(pure, database, cap)
        approx_errors = _stored_count_errors(approx, database, cap)
        rows.append(
            {
                "q": q,
                "pure_max_error": float(pure_errors.max()) if len(pure_errors) else 0.0,
                "approx_max_error": float(approx_errors.max()) if len(approx_errors) else 0.0,
                "pure_bound": pure.error_bound,
                "approx_bound": approx.error_bound,
                "pure_stored": pure.num_stored_patterns,
                "approx_stored": approx.num_stored_patterns,
            }
        )
    return rows


def run_qgram_timing(
    sizes: Sequence[tuple[int, int]],
    *,
    q: int = 4,
    epsilon: float = 1.0,
    delta: float = 1e-6,
    seed: int = 3,
) -> list[dict]:
    """E7 — construction time of the Theorem 4 structure as the input size
    ``n * ell`` grows (the paper claims near-linear time)."""
    rows = []
    for n, ell in sizes:
        rng = np.random.default_rng(seed + n)
        database = genome_with_motifs(n, ell, rng)
        params = ConstructionParams.approximate(epsilon, delta, beta=0.1)
        started = time.perf_counter()
        structure = default_registry().build(
            "qgram-t4", database, params, rng=np.random.default_rng(seed), q=q
        )
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "n": n,
                "ell": ell,
                "n*ell": n * ell,
                "construction_seconds": elapsed,
                "stored_qgrams": structure.num_stored_patterns,
            }
        )
    # Normalised column: seconds per input character, which should stay
    # roughly flat (up to the O(N log N) suffix-array substitution).
    for row in rows:
        row["seconds_per_char"] = row["construction_seconds"] / row["n*ell"]
    return rows


# ----------------------------------------------------------------------
# E8: baseline comparison.
# ----------------------------------------------------------------------
def run_baseline_comparison(
    ells: Sequence[int],
    *,
    n: int = 12,
    epsilon: float = 1.0,
    seed: int = 13,
    trials: int = 3,
) -> list[dict]:
    """E8 — the simple-trie baseline's error scales like ell^2 while the
    heavy-path structure scales like ell * polylog; on long documents the
    heavy-path structure wins and the win factor grows with ell.

    Uses the highly repetitive workload so the candidate trie stays small
    even for ell in the thousands (see ``periodic_documents``); both methods
    are measured on their stored counts with pruning disabled.
    """
    rows = []
    for ell in ells:
        rng = np.random.default_rng(seed + ell)
        database = periodic_documents(n, ell, rng)
        params = ConstructionParams.pure(epsilon, beta=0.1)
        baseline_params = ConstructionParams.pure(
            epsilon, beta=0.1, threshold=-math.inf
        )
        cap = database.max_length
        ours_max, baseline_max = [], []
        ours = None
        for trial in range(trials):
            ours = build_structure_with_exact_candidates(
                database, params, np.random.default_rng(seed * 31 + ell * 7 + trial)
            )
            baseline = default_registry().build(
                "baseline",
                database,
                baseline_params,
                rng=np.random.default_rng(seed * 77 + ell * 7 + trial),
                max_nodes=200,
                max_depth=4,
            )
            ours_errors = _stored_count_errors(ours, database, cap)
            baseline_errors = _stored_count_errors(baseline, database, cap)
            ours_max.append(float(ours_errors.max()) if len(ours_errors) else 0.0)
            baseline_max.append(
                float(baseline_errors.max()) if len(baseline_errors) else 0.0
            )
        row = {
            "ell": ell,
            "heavy_path_max_error": float(np.mean(ours_max)),
            "baseline_max_error": float(np.mean(baseline_max)),
            "heavy_path_bound": counting_stage_bound(
                n,
                ell,
                params,
                trie_size=ours.report["trie_nodes_after_pruning"],
                num_paths=ours.report["num_heavy_paths"],
                max_path_length=ours.report["max_heavy_path_length"],
            ),
            "baseline_bound": baseline_error_bound(
                n, ell, baseline_params, max_nodes=200
            ),
        }
        if row["heavy_path_max_error"]:
            row["baseline_over_ours"] = (
                row["baseline_max_error"] / row["heavy_path_max_error"]
            )
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# E9: mining.
# ----------------------------------------------------------------------
def run_mining_experiment(
    *,
    workload: str = "genome",
    n: int = 300,
    ell: int = 12,
    epsilons: Sequence[float] = (5.0, 20.0, 50.0),
    seed: int = 23,
) -> list[dict]:
    """E9 — end-to-end private frequent-substring mining: the full pipeline
    (noisy candidates, noisy counts, pruning), mined at the structure's own
    threshold, scored against exact counts."""
    rng = np.random.default_rng(seed)
    if workload == "genome":
        database = genome_with_motifs(n, ell, rng, planting_probability=0.7)
    elif workload == "transit":
        database = transit_trajectories(n, ell, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cap = database.max_length
    exact = exact_count_table(database, cap, max_length=6)
    rows = []
    for epsilon in epsilons:
        structure = (
            Dataset.from_database(database)
            .with_budget(epsilon)
            .with_beta(0.1)
            .build("heavy-path", rng=np.random.default_rng(seed + int(epsilon)))
        )
        threshold = structure.metadata.threshold
        result = mine_frequent_substrings(structure, threshold)
        quality = mining_quality(
            result.pattern_set(), exact, threshold, structure.error_bound
        )
        violations = check_mining_guarantee(result, exact)
        rows.append(
            {
                "workload": workload,
                "epsilon": epsilon,
                "threshold": threshold,
                "alpha": structure.error_bound,
                "num_reported": quality.num_reported,
                "num_frequent": quality.num_frequent,
                "precision": quality.precision,
                "recall": quality.recall,
                "guarantee_ok": violations.ok,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E10-E12: lower bounds.
# ----------------------------------------------------------------------
def run_packing_experiment(
    ells: Sequence[int],
    *,
    n: int = 40,
    epsilon: float = 1.0,
    seed: int = 29,
) -> list[dict]:
    """E10 — Theorem 5 packing instances: measured error of the pure-DP
    structure on the planted patterns sits between the packing lower bound
    and the Theorem 1 upper bound."""
    rows = []
    for ell in ells:
        rng = np.random.default_rng(seed + ell)
        copies = min(n, max(2, n // 2))
        instance = worst_case_packing(
            ell, n, copies, rng, num_patterns=2, pattern_length=4
        )
        params = ConstructionParams.pure(epsilon, beta=0.1)
        structure = build_structure_with_exact_candidates(
            instance.database, params, np.random.default_rng(seed * 13 + ell)
        )
        cap = instance.database.max_length
        exact = instance.database.count_many(instance.planted_patterns, cap)
        errors = [
            abs(structure.query(pattern) - count)
            for pattern, count in zip(instance.planted_patterns, exact)
        ]
        rows.append(
            {
                "ell": ell,
                "planted_patterns": len(instance.planted_patterns),
                "measured_error": float(np.max(errors)),
                "packing_lower_bound": theorem5_lower_bound(
                    n, ell, instance.database.alphabet_size, epsilon
                ),
                "theorem1_asymptotic": theorem1_asymptotic(
                    n, ell, instance.database.alphabet_size, epsilon
                ),
            }
        )
    return rows


def run_substring_lb_experiment(
    ells: Sequence[int],
    *,
    n: int = 10,
    epsilon: float = 1.0,
    seed: int = 31,
    trials: int = 5,
) -> list[dict]:
    """E11 — Theorem 6 worst-case pair: the error on the pattern 'a' for the
    pair of neighboring databases grows linearly in ell, matching the
    Omega(ell) lower bound (and our O(ell polylog) upper bound)."""
    rows = []
    for ell in ells:
        database, neighbor, pattern = worst_case_substring_pair(ell, n)
        params = ConstructionParams.pure(epsilon, beta=0.1)
        errors_d, errors_d_prime = [], []
        for trial in range(trials):
            for db, bucket in ((database, errors_d), (neighbor, errors_d_prime)):
                structure = build_structure_with_exact_candidates(
                    db, params, np.random.default_rng(seed + ell * 13 + trial)
                )
                exact = db.count(pattern, db.max_length)
                bucket.append(abs(structure.query(pattern) - exact))
        rows.append(
            {
                "ell": ell,
                "pattern": pattern,
                "error_on_D": float(np.mean(errors_d)),
                "error_on_D_prime": float(np.mean(errors_d_prime)),
                "max_error": float(max(np.max(errors_d), np.max(errors_d_prime))),
                "lower_bound": theorem6_lower_bound(ell),
            }
        )
    return rows


def run_marginals_experiment(
    dimensions: Sequence[int],
    *,
    n: int = 40,
    epsilon: float = 1.0,
    delta: float = 1e-6,
    seed: int = 37,
) -> list[dict]:
    """E12 — Theorem 7 reduction: answer 1-way marginals through the
    Document Count structure; the marginal error should track sqrt(d)/(n eps)
    under approximate DP and d/(n eps) under pure DP."""
    rows = []
    for d in dimensions:
        rng = np.random.default_rng(seed + d)
        matrix, reduction = random_marginals_instance(n, d, rng)
        truth = exact_marginals(matrix)
        for flavour, params in (
            ("pure", ConstructionParams.pure(epsilon, beta=0.1, delta_cap=1)),
            (
                "approx",
                ConstructionParams.approximate(
                    epsilon, delta, beta=0.1, delta_cap=1
                ),
            ),
        ):
            structure = build_structure_with_exact_candidates(
                reduction.database, params, np.random.default_rng(seed * 7 + d)
            )
            counts = [structure.query(p) for p in reduction.column_patterns]
            estimates = reduction.marginals_from_counts(counts)
            error = float(np.max(np.abs(estimates - truth)))
            rows.append(
                {
                    "d": d,
                    "flavour": flavour,
                    "marginal_error": error,
                    "document_count_error": error * n,
                    "lower_bound": theorem7_lower_bound(
                        n,
                        reduction.database.max_length,
                        reduction.database.alphabet_size,
                        epsilon,
                        delta if flavour == "approx" else 0.0,
                    ),
                }
            )
    return rows


# ----------------------------------------------------------------------
# E13 / E14: tree counting.
# ----------------------------------------------------------------------
def run_tree_counting_experiment(
    universe_sizes: Sequence[int],
    *,
    num_items: int = 500,
    epsilon: float = 1.0,
    branching: int = 2,
    seed: int = 41,
) -> list[dict]:
    """E13 — Theorem 8 on hierarchical histograms: the max error grows only
    polylogarithmically with the universe size."""
    rows = []
    for universe_size in universe_sizes:
        rng = np.random.default_rng(seed + universe_size)
        universe = list(range(universe_size))
        tree = build_balanced_hierarchy(universe, branching)
        elements = rng.integers(0, universe_size, size=num_items).tolist()
        exact = exact_hierarchical_counts(tree, elements)
        result = private_hierarchical_counts(
            tree,
            elements,
            budget=PrivacyBudget(epsilon),
            beta=0.1,
            rng=np.random.default_rng(seed * 3 + universe_size),
        )
        errors = [abs(result[node] - exact[node]) for node in tree.nodes()]
        rows.append(
            {
                "universe": universe_size,
                "tree_nodes": tree.num_nodes,
                "height": tree.height(),
                "max_error": float(np.max(errors)),
                "mean_error": float(np.mean(errors)),
                "analytic_bound": result.error_bound,
            }
        )
    return rows


def run_colored_counting_experiment(
    universe_sizes: Sequence[int],
    *,
    num_items: int = 400,
    num_colors: int = 12,
    epsilon: float = 1.0,
    delta: float = 1e-6,
    seed: int = 43,
) -> list[dict]:
    """E14 — colored tree counting under pure and approximate DP
    (Theorems 8 and 9)."""
    rows = []
    for universe_size in universe_sizes:
        rng = np.random.default_rng(seed + universe_size)
        universe = list(range(universe_size))
        tree = build_balanced_hierarchy(universe, 2)
        items = [
            ColoredItem(
                element=int(rng.integers(0, universe_size)),
                color=int(rng.integers(0, num_colors)),
            )
            for _ in range(num_items)
        ]
        exact = exact_colored_counts(tree, items)
        for flavour, budget in (
            ("pure", PrivacyBudget(epsilon)),
            ("approx", PrivacyBudget(epsilon, delta)),
        ):
            result = private_colored_counts(
                tree,
                items,
                budget=budget,
                beta=0.1,
                rng=np.random.default_rng(seed * 5 + universe_size),
            )
            errors = [abs(result[node] - exact[node]) for node in tree.nodes()]
            rows.append(
                {
                    "universe": universe_size,
                    "flavour": flavour,
                    "max_error": float(np.max(errors)),
                    "mean_error": float(np.mean(errors)),
                    "analytic_bound": result.error_bound,
                }
            )
    return rows


# ----------------------------------------------------------------------
# E15: complexity claims.
# ----------------------------------------------------------------------
def run_query_time_experiment(
    pattern_lengths: Sequence[int],
    *,
    n: int = 50,
    ell: int = 64,
    seed: int = 47,
    repetitions: int = 2000,
) -> list[dict]:
    """E15 — query time is linear in the pattern length (and independent of
    n and ell).

    The repetitive workload keeps the candidate trie small (its size does not
    affect query time, which only walks one root-to-node path) while still
    providing stored patterns of every requested length up to ``ell``.
    """
    rng = np.random.default_rng(seed)
    database = periodic_documents(n, ell, rng)
    params = ConstructionParams.pure(1.0, beta=0.1, noiseless=True, threshold=1.0)
    structure = build_private_counting_structure(
        database, params, rng=np.random.default_rng(seed)
    )
    stored = structure.patterns()
    stored.sort(key=len)
    rows = []
    for length in pattern_lengths:
        candidates = [p for p in stored if len(p) == length]
        pattern = candidates[0] if candidates else "a" * length
        started = time.perf_counter()
        for _ in range(repetitions):
            structure.query(pattern)
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "pattern_length": length,
                "present": bool(candidates),
                "microseconds_per_query": 1e6 * elapsed / repetitions,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E16: binary-tree prefix sums vs naive noise.
# ----------------------------------------------------------------------
def run_prefix_sum_ablation(
    lengths: Sequence[int],
    *,
    epsilon: float = 1.0,
    sensitivity: float = 1.0,
    seed: int = 53,
    trials: int = 5,
) -> list[dict]:
    """E16 — the binary-tree mechanism's prefix-sum error grows
    polylogarithmically in T, while naively splitting the budget over T
    element releases grows polynomially."""
    rows = []
    for length in lengths:
        rng = np.random.default_rng(seed + length)
        sequence = rng.integers(0, 5, size=length).astype(np.float64)
        exact_prefixes = np.cumsum(sequence)
        tree_errors = []
        naive_errors = []
        for trial in range(trials):
            trial_rng = np.random.default_rng(seed * 101 + length * 10 + trial)
            mechanism = PrefixSumMechanism(
                LaplaceMechanism(epsilon),
                total_l1_sensitivity=sensitivity,
                max_length=length,
            )
            released = mechanism.release(sequence, trial_rng)
            tree_errors.append(
                float(np.max(np.abs(released.values - exact_prefixes)))
            )
            # Naive: split the budget across T independent element releases
            # (each element gets Laplace noise of scale T * sensitivity /
            # epsilon) and sum them up.
            naive_noise = trial_rng.laplace(
                0.0, length * sensitivity / epsilon, size=length
            )
            naive_prefixes = np.cumsum(sequence + naive_noise)
            naive_errors.append(
                float(np.max(np.abs(naive_prefixes - exact_prefixes)))
            )
        rows.append(
            {
                "T": length,
                "binary_tree_max_error": float(np.mean(tree_errors)),
                "naive_max_error": float(np.mean(naive_errors)),
                "binary_tree_bound": PrefixSumMechanism(
                    LaplaceMechanism(epsilon),
                    total_l1_sensitivity=sensitivity,
                    max_length=length,
                ).sup_error_bound(1, 0.1),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E17: ablation of the heavy-path design.
# ----------------------------------------------------------------------
def run_heavy_path_ablation(
    ells: Sequence[int],
    *,
    n: int = 12,
    epsilon: float = 1.0,
    seed: int = 59,
    trials: int = 3,
) -> list[dict]:
    """E17 — design-choice ablation: on the same (exact) candidate trie,
    compare two ways of releasing all node counts with the same budget:

    * per-node independent noise calibrated to the naive ``ell (ell + 1)``
      sensitivity (what the simple approach effectively pays), and
    * the heavy-path decomposition with noisy roots + noisy prefix sums
      (the paper's design, sensitivity ``O(ell log)`` per release).

    Uses the repetitive workload so ell can reach the regime where the
    ``ell`` vs ``ell^2`` gap dominates the polylog factors.
    """
    rows = []
    for ell in ells:
        rng = np.random.default_rng(seed + ell)
        database = periodic_documents(n, ell, rng)
        params = ConstructionParams.pure(epsilon, beta=0.1)
        candidates = exact_candidate_set(database, params)
        trie = Trie(sorted(candidates.all_strings()))
        annotate_trie_with_exact_counts(trie, database, database.max_length)
        nodes = [node for node in trie.iter_nodes() if node is not trie.root]

        per_node_max, heavy_max = [], []
        for trial in range(trials):
            per_node_rng = np.random.default_rng(seed * 7 + ell * 11 + trial)
            per_node_noise = per_node_rng.laplace(
                0.0, ell * (ell + 1) / epsilon, size=len(nodes)
            )
            per_node_max.append(
                float(np.max(np.abs(per_node_noise))) if len(nodes) else 0.0
            )
            structure = build_structure_with_exact_candidates(
                database,
                ConstructionParams.pure(epsilon, beta=0.1),
                np.random.default_rng(seed * 11 + ell * 11 + trial),
            )
            ours = _stored_count_errors(structure, database, database.max_length)
            heavy_max.append(float(ours.max()) if len(ours) else 0.0)
        row = {
            "ell": ell,
            "trie_nodes": len(nodes) + 1,
            "per_node_noise_max_error": float(np.mean(per_node_max)),
            "heavy_path_max_error": float(np.mean(heavy_max)),
        }
        if row["heavy_path_max_error"]:
            row["per_node_over_heavy"] = (
                row["per_node_noise_max_error"] / row["heavy_path_max_error"]
            )
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# E18: strategies for private hierarchical counting.
# ----------------------------------------------------------------------
def run_tree_strategy_comparison(
    universe_sizes: Sequence[int],
    *,
    num_items: int = 400,
    epsilon: float = 1.0,
    beta: float = 0.1,
    seed: int = 61,
    trials: int = 3,
) -> list[dict]:
    """E18 — hierarchical-histogram strategies on the same tree and items:

    * the paper's heavy-path algorithm (Theorem 8),
    * the range-counting reduction the paper cites in Section 1.1.3
      (binary-tree mechanism over the ordered leaf counts), and
    * the leaf-sum baseline of Zhang et al. [72] (independent noisy leaves,
      internal nodes obtained by summing the noisy leaves below).

    The first two have error polylogarithmic in the universe size; the
    leaf-sum baseline accumulates the noise of every descendant leaf in the
    root, so its error grows polynomially with the universe.
    """
    budget = PrivacyBudget(epsilon)
    rows = []
    for universe in universe_sizes:
        rng = np.random.default_rng(seed + universe)
        tree = build_balanced_hierarchy(list(range(universe)), branching=2)
        elements = rng.integers(0, universe, size=num_items).tolist()
        exact = exact_hierarchical_counts(tree, elements)
        leaf_counts = {leaf: float(exact[leaf]) for leaf in tree.leaves()}

        heavy_errors, range_errors, leaf_sum_errors = [], [], []
        for trial in range(trials):
            trial_rng = np.random.default_rng(seed * 101 + universe * 13 + trial)
            heavy = private_hierarchical_counts(
                tree, elements, budget=budget, beta=beta, rng=trial_rng
            )
            heavy_errors.append(
                max(abs(heavy[node] - exact[node]) for node in tree.nodes())
            )
            range_estimates, _ = range_counting_tree_counts(
                tree.root,
                tree.children,
                leaf_counts,
                leaf_sensitivity=2.0,
                budget=budget,
                beta=beta,
                rng=trial_rng,
            )
            range_errors.append(
                max(abs(range_estimates[node] - exact[node]) for node in tree.nodes())
            )
            leaf_estimates, _ = leaf_sum_tree_counts(
                tree.root,
                tree.children,
                leaf_counts,
                leaf_sensitivity=2.0,
                budget=budget,
                beta=beta,
                rng=trial_rng,
            )
            leaf_sum_errors.append(
                max(abs(leaf_estimates[node] - exact[node]) for node in tree.nodes())
            )

        decomposition = HeavyPathDecomposition(tree.root, tree.children)
        rows.append(
            {
                "universe": universe,
                "tree_nodes": tree.num_nodes,
                "heavy_path_max_error": float(np.mean(heavy_errors)),
                "range_counting_max_error": float(np.mean(range_errors)),
                "leaf_sum_max_error": float(np.mean(leaf_sum_errors)),
                "heavy_path_bound": tree_counting_error_bound(
                    tree.num_nodes,
                    tree.height(),
                    decomposition.num_paths,
                    leaf_sensitivity=2.0,
                    node_sensitivity=1.0,
                    budget=budget,
                    beta=beta,
                ),
                "range_counting_bound": range_counting_error_bound(
                    universe, leaf_sensitivity=2.0, budget=budget, beta=beta
                ),
                "leaf_sum_bound": leaf_sum_error_bound(
                    universe, leaf_sensitivity=2.0, budget=budget, beta=beta
                ),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E19: candidate-growth ablation (doubling vs one-letter extension).
# ----------------------------------------------------------------------
def run_candidate_growth_ablation(
    ells: Sequence[int],
    *,
    n: int = 10,
    epsilon: float = 1.0,
    seed: int = 67,
) -> list[dict]:
    """E19 — ablation of the candidate-growth strategy.

    The paper doubles the candidate length every round, so the privacy budget
    is split over only ``floor(log2 ell) + 1`` releases; prior work (Chen et
    al. [18], Kim et al. [51]) extends candidates one letter at a time and
    must split the budget over ``ell`` releases.  The per-level error alpha —
    the smallest count a pattern needs to reliably survive pruning — is the
    quantity that degrades.  The structural coverage of the two strategies is
    compared with exact (noiseless) counts and threshold 1, so the comparison
    isolates the noise calibration from sampling luck.
    """
    rows = []
    for ell in ells:
        rng = np.random.default_rng(seed + ell)
        database = periodic_documents(n, ell, rng)

        noisy_params = ConstructionParams.pure(epsilon, beta=0.1)
        started = time.perf_counter()
        doubling_noiseless = build_candidate_set(
            database,
            ConstructionParams.pure(epsilon, beta=0.1, noiseless=True, threshold=1.0),
            rng=np.random.default_rng(seed),
        )
        doubling_seconds = time.perf_counter() - started
        started = time.perf_counter()
        onestep_noiseless = build_onestep_candidate_set(
            database,
            ConstructionParams.pure(epsilon, beta=0.1, noiseless=True, threshold=1.0),
            rng=np.random.default_rng(seed),
        )
        onestep_seconds = time.perf_counter() - started

        # Noise calibration of the two strategies under the same total budget.
        ell_resolved = noisy_params.resolve_max_length(database.max_length)
        delta_cap = noisy_params.resolve_delta_cap(ell_resolved)
        doubling_levels = int(math.floor(math.log2(max(1, ell_resolved)))) + 1
        onestep_levels = max(1, ell_resolved)
        doubling_mechanism = LaplaceMechanism(epsilon / doubling_levels)
        onestep_mechanism = LaplaceMechanism(epsilon / onestep_levels)
        from repro.core.candidate_growth import onestep_candidate_alpha
        from repro.core.candidate_set import candidate_alpha

        alpha_doubling = candidate_alpha(
            database.num_documents,
            ell_resolved,
            database.alphabet_size,
            doubling_mechanism,
            noisy_params.beta / doubling_levels,
            delta_cap,
        )
        alpha_onestep = onestep_candidate_alpha(
            database.num_documents,
            ell_resolved,
            database.alphabet_size,
            onestep_mechanism,
            noisy_params.beta / onestep_levels,
            delta_cap,
        )
        rows.append(
            {
                "ell": ell_resolved,
                "doubling_levels": doubling_levels,
                "onestep_levels": onestep_levels,
                "alpha_doubling": float(alpha_doubling),
                "alpha_onestep": float(alpha_onestep),
                "alpha_ratio": float(alpha_onestep / alpha_doubling),
                "doubling_candidates": doubling_noiseless.size,
                "onestep_candidates": onestep_noiseless.size,
                "doubling_seconds": doubling_seconds,
                "onestep_seconds": onestep_seconds,
            }
        )
    return rows


def run_counting_engine_benchmark(
    batch_sizes: Sequence[int] = (16, 64, 256, 1024),
    *,
    n: int = 800,
    ell: int = 12,
    delta_cap: int | None = None,
    seed: int = 17,
    naive_limit: int = 64,
    timing_reps: int = 3,
) -> list[dict]:
    """E21 — counting-engine equivalence and speedup curve.

    Builds candidate-level-shaped batches (all pairwise concatenations of
    the collection's 3-grams, exactly the shape of a doubling level
    ``P_{2^k} x P_{2^k}``), counts each batch with every
    :mod:`repro.counting` backend, checks the results are bitwise identical,
    and reports the per-batch timings.  The headline column is
    ``ac_speedup_vs_sa``: the single-pass Aho-Corasick engine against
    per-pattern suffix-array queries, which must reach >= 5x on batches of
    >= 256 patterns (the acceptance criterion of
    ``benchmarks/bench_counting_engines.py``).  The naive reference engine
    is only timed on small batches (``naive_limit``) — it is quadratic —
    but its counts are still the ground truth the others must match there.
    """
    from repro.strings.qgrams import qgram_substring_counts

    rng = np.random.default_rng(seed)
    database = genome_with_motifs(n, ell, rng)
    cap = database.max_length if delta_cap is None else delta_cap
    # Frequent 3-grams first, so truncating to a batch size keeps the batch
    # shaped like a pruned level rather than an arbitrary sample; the pair
    # pool inherits that order (frequent x frequent concatenations first).
    frequency = qgram_substring_counts(list(database), 3)
    base = sorted(frequency, key=lambda g: (-frequency[g], g))
    pool: list[str] = []
    seen: set[str] = set()
    for left in base:
        for right in base:
            candidate = left + right
            if candidate not in seen:
                seen.add(candidate)
                pool.append(candidate)
    corpus_length = database.total_length

    def best_seconds(run) -> float:
        return min(_timed(run) for _ in range(timing_reps))

    rows = []
    for batch in batch_sizes:
        patterns = pool[: min(batch, len(pool))]
        sa_engine = database.engine("suffix-array")
        ac_engine = database.engine("aho-corasick")
        sa_counts = sa_engine.count_many(patterns, cap)
        ac_counts = ac_engine.count_many(patterns, cap)
        engines_equal = bool(np.array_equal(sa_counts, ac_counts))
        sa_seconds = best_seconds(lambda: sa_engine.count_many(patterns, cap))
        ac_seconds = best_seconds(lambda: ac_engine.count_many(patterns, cap))
        row = {
            "batch": len(patterns),
            "corpus_chars": corpus_length,
            "delta_cap": cap,
            "auto_backend": auto_backend(len(patterns), corpus_length),
            "sa_seconds": sa_seconds,
            "ac_seconds": ac_seconds,
            "ac_speedup_vs_sa": sa_seconds / ac_seconds if ac_seconds else float("inf"),
            "engines_equal": engines_equal,
        }
        if len(patterns) <= naive_limit:
            naive_engine = database.engine("naive")
            naive_counts = naive_engine.count_many(patterns, cap)
            row["naive_seconds"] = best_seconds(
                lambda: naive_engine.count_many(patterns, cap)
            )
            row["engines_equal"] = engines_equal and bool(
                np.array_equal(naive_counts, sa_counts)
            )
        rows.append(row)
    return rows


def run_query_many_benchmark(
    batch_sizes: Sequence[int] = (64, 256, 512, 1024),
    *,
    n: int = 2000,
    ell: int = 16,
    epsilon: float = 60.0,
    delta: float = 1e-6,
    seed: int = 19,
    hit_fraction: float = 0.85,
    timing_reps: int = 5,
) -> list[dict]:
    """E22 — batched ``query_many`` vs per-pattern ``query`` loops for every
    registered structure kind.

    Builds one counter per kind through the unified ``Dataset`` façade on
    the genome workload (per-kind parameters keep every construction
    laptop-sized: the near-linear Theorem 4 structure carries the long
    ``q = 12`` grams, Theorem 3 a cheaper ``q = 6``), then replays a
    serving-style pattern mix through both query paths: ``hit_fraction``
    stored patterns, the rest random document windows — fixed-length
    windows for the q-gram kinds, whose traffic rides the counter's
    uniform-length batch path.  Batched answers must be bit-for-bit equal
    to the loop; the acceptance headline
    (``benchmarks/bench_query_many.py``) is a >= 5x speedup at >= 512
    patterns on the q-gram structure.  Timings take the best of
    ``timing_reps`` runs.
    """
    rng = np.random.default_rng(seed)
    database = genome_with_motifs(n, ell, rng)
    dataset = Dataset.from_database(database).with_beta(0.1)
    builds: list[tuple[str, Dataset, dict]] = [
        ("heavy-path", dataset.with_budget(epsilon).with_threshold(30.0), {}),
        ("qgram-t3", dataset.with_budget(epsilon).with_threshold(20.0), {"q": 6}),
        (
            "qgram-t4",
            dataset.with_budget(epsilon, delta).with_threshold(5.0),
            {"q": 12},
        ),
        (
            "baseline",
            dataset.with_budget(epsilon),
            {"max_nodes": 2000, "max_depth": 8},
        ),
    ]
    counters = {
        kind: configured.build(kind, rng=np.random.default_rng(seed + 1), **kwargs)
        for kind, configured, kwargs in builds
    }

    documents = list(database)
    max_batch = max(batch_sizes)

    def pattern_pool(counter) -> list[str]:
        """Serving-style traffic for one release: mostly stored patterns
        (the hits analysts actually ask about), padded with random document
        windows — of the release's fixed length for q-gram structures."""
        query_rng = np.random.default_rng(seed + 2)
        stored = sorted(dict(counter.items()))
        q = counter.metadata.qgram_length
        pool: list[str] = []
        while len(pool) < max_batch:
            if stored and query_rng.random() < hit_fraction:
                pool.append(stored[query_rng.integers(len(stored))])
            else:
                document = documents[query_rng.integers(len(documents))]
                width = q if q is not None else 1 + int(query_rng.integers(8))
                lo = query_rng.integers(max(1, len(document) - width + 1))
                pool.append(document[lo : lo + width])
        return pool

    def best_seconds(run: Callable[[], object]) -> float:
        return min(_timed(run) for _ in range(timing_reps))

    rows = []
    for kind, counter in counters.items():
        pool = pattern_pool(counter)
        counter.query_many(pool[:1])  # build the lazy batch tables
        for batch in batch_sizes:
            patterns = pool[:batch]
            loop_counts = np.array([counter.query(p) for p in patterns])
            batch_counts = counter.query_many(patterns)
            loop_seconds = best_seconds(
                lambda: [counter.query(p) for p in patterns]
            )
            batch_seconds = best_seconds(lambda: counter.query_many(patterns))
            rows.append(
                {
                    "kind": kind,
                    "batch": batch,
                    "stored_patterns": counter.num_stored_patterns,
                    "loop_seconds": loop_seconds,
                    "query_many_seconds": batch_seconds,
                    "speedup": loop_seconds / batch_seconds
                    if batch_seconds
                    else float("inf"),
                    "bitwise_equal": bool(np.array_equal(loop_counts, batch_counts)),
                }
            )
    return rows


def run_serving_throughput(
    workloads: Sequence[str] = ("genome", "transit"),
    n: int = 2000,
    num_queries: int = 20_000,
    epsilon: float = 60.0,
    threshold: float = 30.0,
    hit_fraction: float = 0.8,
    timing_reps: int = 5,
    seed: int = 7,
) -> list[dict]:
    """E20 — query-serving throughput: a per-pattern ``query`` loop vs the
    vectorized ``batch_query`` of the same array trie.

    Builds one released structure per workload (a low pruning threshold
    keeps it serving-sized), then replays a serving-style traffic mix:
    ``hit_fraction`` of the queries are published patterns (sampled with
    probability proportional to length — analysts ask about the longer,
    more informative motifs), the rest are random document substrings.
    Both paths must answer *identical* counts (post-processing parity);
    throughput is the best of ``timing_reps`` runs, which is robust to
    scheduler noise.  The per-pattern loop (``qps_trie_loop``) is the
    counter's single-pattern walk of the dense table — the one served
    ``/query`` runs — and ``batch_speedup`` is the batch path's gain over
    that walk.
    """
    ells = {"genome": 12, "transit": 16}
    rows = []
    for workload in workloads:
        rng = np.random.default_rng(seed)
        ell = ells.get(workload, 12)
        if workload == "genome":
            database = genome_with_motifs(n, ell, rng)
        else:
            database = transit_trajectories(n, ell, rng)
        structure = (
            Dataset.from_database(database)
            .with_budget(epsilon)
            .with_beta(0.1)
            .with_threshold(threshold)
            .build("heavy-path", rng=rng)
        )

        patterns = structure.patterns()
        lengths = np.array([len(p) for p in patterns], dtype=float)
        weights = lengths / lengths.sum()
        query_rng = np.random.default_rng(seed + 1)
        hit_pool = [
            patterns[i]
            for i in query_rng.choice(len(patterns), size=4096, p=weights)
        ]
        documents = list(database)
        queries = []
        for _ in range(num_queries):
            if query_rng.random() < hit_fraction:
                queries.append(hit_pool[query_rng.integers(len(hit_pool))])
            else:
                document = documents[query_rng.integers(len(documents))]
                lo = query_rng.integers(len(document))
                hi = min(len(document), lo + 1 + query_rng.integers(6))
                queries.append(document[lo:hi])

        def best_seconds(run: Callable[[], object]) -> float:
            return min(
                _timed(run) for _ in range(timing_reps)
            )

        trie_seconds = best_seconds(lambda: [structure.query(q) for q in queries])
        batch_seconds = best_seconds(lambda: structure.batch_query(queries))

        expected = [structure.query(q) for q in queries]
        parity_ok = bool(np.array_equal(structure.batch_query(queries), expected))
        rows.append(
            {
                "workload": workload,
                "n": n,
                "ell": ell,
                "num_nodes": structure.num_nodes,
                "stored_patterns": structure.num_stored_patterns,
                "num_queries": num_queries,
                "avg_query_len": float(np.mean([len(q) for q in queries])),
                "qps_trie_loop": num_queries / trie_seconds,
                "qps_compiled_batch": num_queries / batch_seconds,
                "batch_speedup": trie_seconds / batch_seconds,
                "parity_ok": parity_ok,
            }
        )
    return rows


def run_concurrent_serving(
    thread_counts: Sequence[int] = (1, 2, 4, 8),
    *,
    workload: str = "genome",
    n: int = 1000,
    ell: int = 12,
    num_operations: int = 2000,
    epsilon: float = 60.0,
    threshold: float = 30.0,
    seed: int = 23,
    micro_batch: bool = True,
) -> list[dict]:
    """E23 — concurrent serving correctness and throughput.

    Builds one released structure, wraps it in a :class:`QueryService`, and
    replays one seeded mixed workload (``/query``, ``/batch``, ``/mine``,
    ``/healthz``) from 1, 2, 4 and 8 barrier-started threads.  Every replay
    must be *bit-identical* to the serial replay and must advance the
    health counters by exactly the workload totals — the concurrency
    contract of ``repro.serving`` (immutable array snapshots whose lazily
    built views are published once, under a lock).  Throughput per thread
    count is recorded; on CPython the GIL bounds the scaling, so the
    headline is correctness under contention, not linear speedup.
    """
    from repro.serving import (
        QueryService,
        execute_operation,
        generate_workload,
        run_load_test,
    )

    rng = np.random.default_rng(seed)
    if workload == "genome":
        database = genome_with_motifs(n, ell, rng)
    else:
        database = transit_trajectories(n, ell, rng)
    structure = (
        Dataset.from_database(database)
        .with_budget(epsilon)
        .with_beta(0.1)
        .with_threshold(threshold)
        .build("heavy-path", rng=rng)
    )
    service = QueryService({workload: structure}, micro_batch=micro_batch)
    try:
        operations = generate_workload(service, num_operations, seed=seed + 1)
        # One serial replay fixes the expected answers for every thread count.
        expected = [execute_operation(service, operation) for operation in operations]
        rows = []
        for threads in thread_counts:
            result = run_load_test(
                service, operations, threads=int(threads), expected=expected
            )
            row = result.row()
            row.update(
                {
                    "workload": workload,
                    "n": n,
                    "micro_batch": micro_batch,
                    "mismatches": len(result.mismatches),
                }
            )
            rows.append(row)
        return rows
    finally:
        service.close()


#: the top-level stage spans of a heavy-path build, in order
CONSTRUCTION_STAGES = (
    "candidates",
    "trie_build",
    "annotate",
    "decomposition",
    "noise",
    "prune",
    "materialize",
)


def _available_cpus() -> int:
    """The CPUs this process may run on (its affinity mask on Linux)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed(run: Callable[[], object]) -> float:
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


def run_construction_benchmark(
    scenarios: Sequence[tuple[int, int, float, float]] = (
        (600, 12, 40.0, 20.0),
        (1000, 14, 50.0, 25.0),
    ),
    *,
    seed: int = 29,
    timing_reps: int = 3,
) -> list[dict]:
    """E24 — end-to-end ``build("heavy-path")`` with the array pipeline vs
    the linked-object reference pipeline (:mod:`repro.core.reference`).

    Each scenario is ``(n, ell, epsilon, threshold)`` on the genome
    workload.  Both pipelines run from the same seeded rng, so beyond the
    timing the rows carry the real acceptance contract: the released
    structures must be **bit-identical** — same ``content_digest()``, same
    stored patterns, same report.  The headline
    (``benchmarks/bench_construction.py``) is a >= 5x end-to-end speedup on
    every scenario whose candidate trie exceeds 10k nodes.  Every stage
    time of the array build (:data:`CONSTRUCTION_STAGES`) and the CPUs it
    ran on are reported so BENCH_construction.json can track where the
    remaining time goes.  ``timing_reps`` takes the best of that many
    builds per pipeline (same seeded rng each rep, so every rep produces
    the same structure): one rep would time the process's first array
    build, which pays numpy's lazy first-call costs, and a one-off
    scheduler stall on a shared runner could fail the speedup gate.
    """
    rows = []
    for n, ell, epsilon, threshold in scenarios:
        database = genome_with_motifs(n, ell, np.random.default_rng(seed))
        params = ConstructionParams.pure(epsilon, beta=0.1, threshold=threshold)
        build_rng = seed + 1

        def timed_build(build):
            best, structure = float("inf"), None
            for _ in range(max(1, timing_reps)):
                # Every rep is a cold build: drop the corpus encode the array
                # pipeline keeps on the database, so reps 2+ pay for it too.
                database.__dict__.pop("_sortjoin_counter", None)
                started = time.perf_counter()
                structure = build(
                    database, params, rng=np.random.default_rng(build_rng)
                )
                best = min(best, time.perf_counter() - started)
            return structure, best

        array_structure, array_seconds = timed_build(build_private_counting_structure)
        object_structure, object_seconds = timed_build(reference_counting_structure)

        stages = (
            array_structure.profile.stages() if array_structure.profile else {}
        )
        rows.append(
            {
                "n": n,
                "ell": ell,
                "epsilon": epsilon,
                "candidate_trie_nodes": array_structure.report[
                    "trie_nodes_before_pruning"
                ],
                "stored_nodes": array_structure.report["trie_nodes_after_pruning"],
                "object_seconds": object_seconds,
                "array_seconds": array_seconds,
                "speedup": object_seconds / array_seconds
                if array_seconds
                else float("inf"),
                "digests_equal": array_structure.content_digest()
                == object_structure.content_digest(),
                "items_equal": dict(array_structure.items())
                == dict(object_structure.items()),
                # None marks a stage the profile lacks; the benchmark fails it.
                **{
                    f"array_{stage}_seconds": stages.get(stage)
                    for stage in CONSTRUCTION_STAGES
                },
                "available_cpus": _available_cpus(),
            }
        )
    return rows


def _synthetic_release(target_nodes: int, *, seed: int = 0):
    """A serving-sized counter built directly as arrays.

    A *complete* trie of depth 4 over an alphabet of ``a ≈ target^(1/4)``
    symbols, every node storing a noisy-looking count.  In BFS order the
    children of consecutive nodes occupy consecutive index ranges, so
    ``edge_targets`` is simply ``1..N-1`` and ``edge_keys`` comes out
    globally sorted by construction — no DP construction run is needed to
    get an 86k- or 810k-node release, which is what lets E26 measure
    cold-start at sizes the laptop-scale builder would take minutes to
    produce.
    """
    from repro.core.private_trie import PrivateCountingTrie, StructureMetadata

    depth = 4
    alphabet = max(2, round(target_nodes ** (1.0 / depth)))
    level_sizes = [alphabet**k for k in range(depth + 1)]
    starts = np.concatenate(([0], np.cumsum(level_sizes))).astype(np.int64)
    num_nodes = int(starts[-1])
    vocab_size = alphabet + 1

    rng = np.random.default_rng(seed)
    counts = np.abs(rng.normal(1000.0, 100.0, size=num_nodes)).round(3)
    depths = np.zeros(num_nodes, dtype=np.int64)
    parents = np.full(num_nodes, -1, dtype=np.int64)
    parent_codes = np.zeros(num_nodes, dtype=np.int64)
    child_start = np.full(num_nodes, num_nodes - 1, dtype=np.int64)
    child_end = np.full(num_nodes, num_nodes - 1, dtype=np.int64)
    for level in range(1, depth + 1):
        lo, hi = int(starts[level]), int(starts[level + 1])
        offsets = np.arange(hi - lo, dtype=np.int64)
        depths[lo:hi] = level
        parents[lo:hi] = starts[level - 1] + offsets // alphabet
        parent_codes[lo:hi] = offsets % alphabet + 1
    for level in range(depth):
        lo, hi = int(starts[level]), int(starts[level + 1])
        offsets = np.arange(hi - lo, dtype=np.int64)
        # Node i's first child is node starts[level+1] + (i - lo) * a, and
        # edge e targets node e + 1, so the edge slice starts one below.
        child_start[lo:hi] = starts[level + 1] + offsets * alphabet - 1
        child_end[lo:hi] = child_start[lo:hi] + alphabet
    edge_targets = np.arange(1, num_nodes, dtype=np.int64)
    edge_keys = parents[1:] * vocab_size + parent_codes[1:]
    edge_labels = parent_codes[1:].copy()

    # Printable, JSON-friendly single-codepoint alphabet (starts at 'A').
    vocab = {chr(0x41 + i): i + 1 for i in range(alphabet)}
    metadata = StructureMetadata(
        epsilon=1.0,
        delta=0.0,
        beta=0.1,
        delta_cap=1,
        max_length=depth,
        num_documents=num_nodes,
        alphabet_size=alphabet,
        error_bound=1.0,
        threshold=0.0,
        construction="synthetic-complete-trie",
    )
    return PrivateCountingTrie(
        counts=counts,
        depths=depths,
        parents=parents,
        parent_codes=parent_codes,
        child_start=child_start,
        child_end=child_end,
        edge_keys=edge_keys,
        edge_labels=edge_labels,
        edge_targets=edge_targets,
        vocab=vocab,
        metadata=metadata,
        report={"synthetic": True, "depth": depth, "alphabet": alphabet},
    )


#: Child process of the E26 RSS measurement: loads one release, touches
#: every node page, then reports its resident-set breakdown from /proc —
#: the parent coordinates two concurrent mmap children so the kernel
#: accounts the shared pages as Shared_*, proving the page-cache sharing.
_RSS_CHILD = r"""
import json, sys

store_root, name, version, mode = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
from repro.serving import ReleaseStore

store = ReleaseStore(store_root)
if mode == "json":
    compiled = store.load(name, version)
else:
    compiled = store.load_compiled(name, version, mmap=(mode == "mmap"))
# Touch every node page so residency reflects real serving, not an
# untouched lazy mapping.
checksum = float(sum(float(array.sum()) for array in compiled.arrays().values()))
print("READY", flush=True)
sys.stdin.readline()


def mapping_rss(pattern):
    rss = private = shared = 0
    found = False
    try:
        with open("/proc/self/smaps") as handle:
            inside = False
            for line in handle:
                first = line.split(None, 1)[0]
                if first.endswith(":"):
                    if inside and first in (
                        "Rss:",
                        "Private_Clean:",
                        "Private_Dirty:",
                        "Shared_Clean:",
                        "Shared_Dirty:",
                    ):
                        value = int(line.split()[1])
                        if first == "Rss:":
                            rss += value
                        elif first.startswith("Private"):
                            private += value
                        else:
                            shared += value
                else:  # a new mapping's address-range header line
                    inside = pattern in line
                    found = found or inside
    except OSError:
        return None
    if not found:
        return None
    return {"rss_kb": rss, "private_kb": private, "shared_kb": shared}


def vmrss_kb():
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


print(
    json.dumps(
        {"vmrss_kb": vmrss_kb(), "mapping": mapping_rss(".dpsb"), "checksum": checksum}
    ),
    flush=True,
)
"""


def _measure_release_rss(
    store_root, name: str, loads: Sequence[tuple[int, str]]
) -> "list[dict] | None":
    """Spawn one child per ``(version, mode)``, concurrently, and collect
    their RSS reports.

    All children hold their release resident at the same time before any of
    them reads ``/proc`` (READY/go handshake), so pages mapped by several
    children are accounted as shared, not private.  Returns ``None`` when
    the measurement is impossible (no ``/proc``, spawn failure) — RSS is
    reported, never load-bearing for the benchmark's pass/fail.
    """
    import json
    import os
    import subprocess
    import sys as _sys
    from pathlib import Path

    import repro

    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    children = []
    try:
        for version, mode in loads:
            children.append(
                subprocess.Popen(
                    [
                        _sys.executable,
                        "-c",
                        _RSS_CHILD,
                        str(store_root),
                        name,
                        str(version),
                        mode,
                    ],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                    env=env,
                )
            )
        for child in children:
            if child.stdout.readline().strip() != "READY":
                return None
        for child in children:
            child.stdin.write("go\n")
            child.stdin.flush()
        reports = [json.loads(child.stdout.readline()) for child in children]
    except (OSError, ValueError):
        return None
    finally:
        for child in children:
            try:
                child.stdin.close()
                child.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
                child.kill()
    return reports


def run_release_format_benchmark(
    sizes: Sequence[int] = (86_000, 810_000),
    *,
    seed: int = 31,
    timing_reps: int = 3,
    num_probes: int = 512,
    measure_rss: bool = True,
) -> list[dict]:
    """E26 — release payload formats: cold-start latency and per-process RSS
    for JSON vs binary vs binary+mmap.

    For each target node count a synthetic complete trie is released twice
    into a scratch store — once per format — and three cold starts are
    timed, each as *time to first batch* (load + one ``batch_query``, the
    moment a server can actually answer): parsing the JSON payload and
    rebuilding the arrays from it, reading the binary payload fully, and
    mapping the binary payload (O(header) until the batch faults pages in).
    The rows also carry the tentpole's correctness contract: the canonical
    content digest is equal across formats and directions, ``query_many``
    answers are bit-identical across all three loads, and ``migrate()``
    converts a JSON version in place with the digest proven equal before
    the old payload is removed.  When ``/proc`` is available, concurrent
    child processes report the resident-set breakdown of the mapped blob —
    the second mmap process's *private* (unique) pages are the headline:
    near zero, because N processes share one page-cache copy.
    """
    import tempfile
    from pathlib import Path

    from repro.serving import ReleaseStore

    rows = []
    for target in sizes:
        compiled = _synthetic_release(target, seed=seed)
        digest = compiled.content_digest()
        probe_rng = np.random.default_rng(seed + 1)
        chars = sorted(compiled._vocab)
        probes = [
            "".join(
                chars[probe_rng.integers(len(chars))]
                for _ in range(probe_rng.integers(1, 6))  # depth 5 misses too
            )
            for _ in range(num_probes)
        ]
        expected = compiled.query_many(probes)

        with tempfile.TemporaryDirectory(prefix="e26-") as scratch:
            store = ReleaseStore(Path(scratch) / "store")
            json_record = store.save("e26", compiled, format="json")
            binary_record = store.save("e26", compiled, format="binary")
            json_bytes = Path(json_record.path).stat().st_size
            binary_bytes = Path(binary_record.path).stat().st_size

            def first_batch_seconds(loader) -> tuple[float, float]:
                """Best-of-reps (pure load, load + first batch) seconds."""
                best_load = best_total = float("inf")
                for _ in range(max(1, timing_reps)):
                    started = time.perf_counter()
                    loaded = loader()
                    load_seconds = time.perf_counter() - started
                    answers = loaded.batch_query(probes)
                    total_seconds = time.perf_counter() - started
                    if not np.array_equal(answers, expected):
                        raise AssertionError("release format query mismatch")
                    best_load = min(best_load, load_seconds)
                    best_total = min(best_total, total_seconds)
                return best_load, best_total

            json_load, json_total = first_batch_seconds(
                lambda: store.load("e26", json_record.version)
            )
            binary_load, binary_total = first_batch_seconds(
                lambda: store.load_compiled(
                    "e26", binary_record.version, mmap=False
                )
            )
            mmap_load, mmap_total = first_batch_seconds(
                lambda: store.load_compiled(
                    "e26", binary_record.version, mmap=True
                )
            )

            # Digest equality in both directions: the records agree with
            # the in-memory digest, the binary header agrees with the
            # index, and (at smoke scale, where re-deriving the digest is
            # cheap) a fully read binary payload re-digests to the same
            # value.
            digests_equal = (
                json_record.digest == digest and binary_record.digest == digest
            )
            if target <= 200_000:
                digests_equal = digests_equal and (
                    store.load("e26", binary_record.version).content_digest()
                    == digest
                )

            # Migration: the JSON version converted in place, digest
            # verified before the JSON payload is removed.
            migrated = store.migrate("e26", json_record.version)
            migrate_ok = (
                len(migrated) == 1
                and migrated[0].format == "binary"
                and migrated[0].digest == digest
                and not Path(json_record.path).exists()
                and np.array_equal(
                    store.load_compiled("e26", json_record.version).batch_query(
                        probes
                    ),
                    expected,
                )
            )

            rss_reports = None
            if measure_rss:
                rss_reports = _measure_release_rss(
                    store.root,
                    "e26",
                    [
                        (binary_record.version, "mmap"),
                        (binary_record.version, "mmap"),
                        (binary_record.version, "binary"),
                    ],
                )

            row = {
                "num_nodes": compiled.num_nodes,
                "alphabet": compiled.metadata.alphabet_size,
                "json_bytes": int(json_bytes),
                "binary_bytes": int(binary_bytes),
                "json_load_seconds": json_load,
                "json_first_batch_seconds": json_total,
                "binary_load_seconds": binary_load,
                "binary_first_batch_seconds": binary_total,
                "mmap_load_seconds": mmap_load,
                "mmap_first_batch_seconds": mmap_total,
                "cold_start_speedup_mmap_vs_json": json_total / mmap_total
                if mmap_total
                else float("inf"),
                "load_speedup_mmap_vs_json": json_load / mmap_load
                if mmap_load
                else float("inf"),
                "digests_equal": bool(digests_equal),
                "migrate_ok": bool(migrate_ok),
                "parity_ok": True,  # first_batch_seconds raises on mismatch
            }
            if rss_reports is not None and len(rss_reports) == 3:
                first_map = rss_reports[0].get("mapping") or {}
                second_map = rss_reports[1].get("mapping") or {}
                row.update(
                    {
                        "mmap_process1_rss_kb": rss_reports[0].get("vmrss_kb"),
                        "mmap_process2_rss_kb": rss_reports[1].get("vmrss_kb"),
                        "inmem_process_rss_kb": rss_reports[2].get("vmrss_kb"),
                        "mmap_process1_private_kb": first_map.get("private_kb"),
                        "mmap_process2_private_kb": second_map.get("private_kb"),
                        "mmap_process2_shared_kb": second_map.get("shared_kb"),
                        "second_process_unique_kb": second_map.get("private_kb"),
                    }
                )
            else:
                row["second_process_unique_kb"] = None
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# E27 — sharded serving tier: throughput scaling over worker processes
# ----------------------------------------------------------------------
def _scale_client_main(url, body, expected, rounds, go, conn) -> None:
    """One spawned batch-hammer client of the E27 measurement.

    Sends the same uniform-q-gram ``/batch`` request ``rounds`` times over
    one keep-alive connection, comparing every response float-for-float
    against ``expected`` (the serial in-process answers).  Reports
    ``(rounds_done, identical, error)`` back over ``conn``; the parent owns
    the clock.
    """
    import http.client
    import json as _json
    import socket
    from urllib.parse import urlparse

    parsed = urlparse(url)
    try:
        connection = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=300
        )
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError as error:
        conn.send(("error", 0, False, repr(error)))
        return
    conn.send("ready")
    go.wait()
    identical = True
    done = 0
    try:
        for _ in range(rounds):
            connection.request(
                "POST", "/batch", body, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload = response.read()
            if response.status != 200:
                raise RuntimeError(f"HTTP {response.status}: {payload[:200]!r}")
            counts = _json.loads(payload.decode("utf-8"))["counts"]
            if counts != expected:
                identical = False
            done += 1
        conn.send(("done", done, identical, None))
    except Exception as error:  # noqa: BLE001 - reported to the parent
        conn.send(("error", done, identical, repr(error)))
    finally:
        connection.close()
        conn.close()


def _mapping_private_kb(pid: int, needle: str = ".dpsb") -> "int | None":
    """Private (unique) resident kilobytes of a process's ``needle``
    mappings, from ``/proc/<pid>/smaps`` (``None`` off-Linux)."""
    import re

    heading = re.compile(r"^[0-9a-f]+-[0-9a-f]+\s")
    private = 0
    in_mapping = False
    found = False
    try:
        with open(f"/proc/{pid}/smaps") as handle:
            for line in handle:
                if heading.match(line):
                    in_mapping = needle in line
                    found = found or in_mapping
                elif in_mapping and line.startswith(
                    ("Private_Clean:", "Private_Dirty:")
                ):
                    private += int(line.split()[1])
    except OSError:
        return None
    return private if found else None


def _drive_scale_clients(
    url: str,
    body: bytes,
    expected: "list[float]",
    *,
    clients: int,
    rounds: int,
    mid_run=None,
) -> dict:
    """Hammer ``url`` from ``clients`` spawned processes; return totals.

    ``mid_run`` (optional) is called in the parent roughly mid-measurement
    — the hook the crash drill uses to ``kill -9`` a worker while batches
    are in flight.
    """
    import multiprocessing

    spawn = multiprocessing.get_context("spawn")
    go = spawn.Event()
    members = []
    try:
        for index in range(clients):
            parent_conn, child_conn = spawn.Pipe(duplex=False)
            process = spawn.Process(
                target=_scale_client_main,
                args=(url, body, expected, rounds, go, child_conn),
                name=f"e27-client-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            members.append((process, parent_conn))
        for index, (_, parent_conn) in enumerate(members):
            if not parent_conn.poll(120):
                raise RuntimeError(f"E27 client {index} never became ready")
            message = parent_conn.recv()
            if message != "ready":
                raise RuntimeError(f"E27 client {index} failed: {message[3]}")
        go.set()
        started = time.perf_counter()
        if mid_run is not None:
            mid_run()
        reports = []
        for index, (_, parent_conn) in enumerate(members):
            if not parent_conn.poll(600):
                raise RuntimeError(f"E27 client {index} never finished")
            reports.append(parent_conn.recv())
        seconds = time.perf_counter() - started
    finally:
        for process, parent_conn in members:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - hung client
                process.terminate()
                process.join(2)
            try:
                parent_conn.close()
            except OSError:  # pragma: no cover
                pass
    errors = [report[3] for report in reports if report[0] == "error"]
    return {
        "seconds": seconds,
        "rounds_done": sum(report[1] for report in reports),
        "bit_identical": all(report[2] for report in reports) and not errors,
        "errors": errors,
    }


def run_serving_scale(
    worker_counts: Sequence[int] = (1, 2, 4, 8),
    *,
    target_nodes: int = 86_000,
    seed: int = 37,
    batch_size: int = 1024,
    clients: int = 4,
    rounds: int = 16,
    crash_drill: bool = True,
    measure_rss: bool = True,
) -> list[dict]:
    """E27 — the sharded serving tier against the single-process server.

    A synthetic release is published once into a scratch store; uniform
    q-gram ``/batch`` traffic (every pattern the same length, the counter's
    uniform fast path) is then driven over HTTP by spawned client
    processes — first at the single-process server (the baseline row), then
    at clusters of 1/2/4/... workers, whose router forwards each batch
    whole to one worker.  Each row records aggregate pattern
    throughput, the speedup over the baseline, and two correctness gates
    measured, not assumed:

    * **bit identity** — every client compares every response
      float-for-float against the serial in-process answers, and one raw
      response body from the router is compared byte-for-byte against the
      single-process server's for the identical request;
    * **memory sharing** — each worker's *private* resident kilobytes of
      the mapped ``.dpsb`` payload, read from ``/proc/<pid>/smaps`` after
      the run: second-and-later workers should add ~0 private pages over
      the one page-cache copy.

    The largest multi-worker cluster additionally runs a **crash drill**:
    a worker is ``kill -9``'d while batches are in flight, and the run
    still must return complete, bit-identical results (router retry) with
    the worker respawned by the supervisor afterwards.

    Speedup *numbers* are environment-honest: the row records
    ``available_cpus``, and the benchmark gates its speedup floors on it —
    a single-core container cannot show multi-core scaling, but it can
    still prove bit identity, crash recovery and page sharing.
    """
    import http.client
    import json
    import os
    import tempfile
    import threading
    from pathlib import Path
    from urllib.parse import urlparse

    from repro.serving import Cluster, QueryService, ReleaseStore, create_server

    compiled = _synthetic_release(target_nodes, seed=seed)
    pattern_rng = np.random.default_rng(seed + 1)
    chars = sorted(compiled._vocab)
    patterns = [
        "".join(chars[pattern_rng.integers(len(chars))] for _ in range(4))
        for _ in range(batch_size)
    ]
    expected = [float(count) for count in compiled.batch_query(patterns)]
    body = json.dumps({"patterns": patterns}).encode("utf-8")
    available_cpus = _available_cpus()

    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="e27-") as scratch:
        store = ReleaseStore(Path(scratch) / "store")
        store.save("e27", compiled, format="binary")

        # ---------------- single-process baseline --------------------
        service = QueryService.from_store(store, micro_batch=False)
        server = create_server(service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        single_url = f"http://127.0.0.1:{server.server_address[1]}"

        def raw_batch(url: str) -> bytes:
            parsed = urlparse(url)
            connection = http.client.HTTPConnection(
                parsed.hostname, parsed.port, timeout=300
            )
            try:
                connection.request(
                    "POST", "/batch", body, {"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                payload = response.read()
                if response.status != 200:
                    raise AssertionError(f"raw batch failed: HTTP {response.status}")
                return payload
            finally:
                connection.close()

        single_reference = raw_batch(single_url)
        outcome = _drive_scale_clients(
            single_url, body, expected, clients=clients, rounds=rounds
        )
        server.shutdown()
        server.server_close()
        service.close()
        patterns_total = outcome["rounds_done"] * batch_size
        single_throughput = (
            patterns_total / outcome["seconds"] if outcome["seconds"] else 0.0
        )
        rows.append(
            {
                "mode": "single-process",
                "workers": 0,
                "clients": clients,
                "batch_size": batch_size,
                "rounds": outcome["rounds_done"],
                "patterns_served": patterns_total,
                "seconds": outcome["seconds"],
                "patterns_per_second": single_throughput,
                "speedup_vs_single": 1.0,
                "bit_identical": outcome["bit_identical"],
                "response_bytes_identical": True,
                "errors": len(outcome["errors"]),
                "available_cpus": available_cpus,
            }
        )

        # ---------------- cluster rows -------------------------------
        largest = max(
            (count for count in worker_counts if count >= 2), default=None
        )
        for workers in worker_counts:
            with Cluster(store, workers=workers) as cluster:
                bytes_identical = raw_batch(cluster.url) == single_reference
                outcome = _drive_scale_clients(
                    cluster.url, body, expected, clients=clients, rounds=rounds
                )
                worker_private_kb = None
                if measure_rss:
                    measured = [
                        _mapping_private_kb(worker.pid)
                        for worker in cluster.workers()
                    ]
                    if all(value is not None for value in measured):
                        worker_private_kb = measured
                drill_ok = None
                drill_respawns = None
                if crash_drill and workers == largest:
                    victim = cluster.workers()[0]

                    def kill_victim(handle=victim):
                        time.sleep(0.1)  # let batches get in flight
                        handle.kill()

                    drill = _drive_scale_clients(
                        cluster.url,
                        body,
                        expected,
                        clients=clients,
                        rounds=max(4, rounds // 2),
                        mid_run=kill_victim,
                    )
                    deadline = time.monotonic() + 30
                    while (
                        len(cluster.table.live()) < workers
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.05)
                    drill_ok = (
                        drill["bit_identical"]
                        and not drill["errors"]
                        and cluster.respawns >= 1
                        and len(cluster.table.live()) == workers
                    )
                    drill_respawns = cluster.respawns
            patterns_total = outcome["rounds_done"] * batch_size
            throughput = (
                patterns_total / outcome["seconds"] if outcome["seconds"] else 0.0
            )
            row = {
                "mode": "cluster",
                "workers": workers,
                "clients": clients,
                "batch_size": batch_size,
                "rounds": outcome["rounds_done"],
                "patterns_served": patterns_total,
                "seconds": outcome["seconds"],
                "patterns_per_second": throughput,
                "speedup_vs_single": (
                    throughput / single_throughput if single_throughput else 0.0
                ),
                "bit_identical": outcome["bit_identical"],
                "response_bytes_identical": bool(bytes_identical),
                "errors": len(outcome["errors"]),
                "available_cpus": available_cpus,
            }
            if worker_private_kb is not None:
                row["worker_private_kb"] = worker_private_kb
                row["max_extra_worker_private_kb"] = (
                    max(worker_private_kb[1:]) if len(worker_private_kb) > 1 else 0
                )
            if drill_ok is not None:
                row["crash_drill_ok"] = bool(drill_ok)
                row["crash_drill_respawns"] = int(drill_respawns)
                row["crash_drill_errors"] = len(drill["errors"])
            rows.append(row)
    return rows

def run_continual_release(
    epochs: int = 8,
    *,
    docs_per_epoch: int = 12,
    ell: int = 10,
    epsilon: float = 8.0,
    seed: int = 11,
    workers: int = 2,
    reload_drill: bool = True,
    clients: int = 3,
) -> list[dict]:
    """E28 — the continual-release pipeline end to end.

    A genome workload is split into ``epochs`` arrival batches on an
    append-only :class:`~repro.api.CorpusStream`; an
    :class:`~repro.serving.EpochScheduler` releases one store version per
    epoch under the dyadic-tree budget schedule.  Each epoch row checks
    three properties *measured, not assumed*:

    * **O(log T) spend** — the ledger's cumulative epsilon after epoch ``t``
      equals ``bit_length(t) * epoch_epsilon`` (the tree bound), strictly
      below the ``t * epoch_epsilon`` of naive sequential composition from
      ``t = 3`` on;
    * **digest-stable replay** — a second scheduler run over the same
      stream with the same seed into a fresh store reproduces every
      epoch's release digest exactly;
    * **hot reload** — with a ``workers``-process cluster serving the
      store, every release from epoch 2 on triggers
      :meth:`Cluster.reload` while client threads hammer the tier
      continuously: the run must finish with *zero* client-visible
      failures and the cluster serving the final epoch's version.
    """
    import tempfile
    import threading
    from pathlib import Path

    from repro.api import CorpusStream
    from repro.serving import (
        BudgetLedger,
        Cluster,
        EpochScheduler,
        ReleaseStore,
        ServingClient,
    )

    rng = np.random.default_rng(seed)
    database = genome_with_motifs(epochs * docs_per_epoch, ell, rng)
    documents = list(database)
    stream = CorpusStream(name="continual")
    for index in range(epochs):
        stream.append_epoch(
            documents[index * docs_per_epoch : (index + 1) * docs_per_epoch]
        )
    params = ConstructionParams(budget=PrivacyBudget(epsilon), beta=0.1)
    levels = epochs.bit_length()
    cap = PrivacyBudget((levels + 1) * epsilon, 1e-6)

    def make_scheduler(scratch: Path, cluster=None) -> EpochScheduler:
        store = ReleaseStore(scratch / "store")
        ledger = BudgetLedger(cap, path=scratch / "ledger.json")
        return EpochScheduler(
            stream, store, ledger, params=params, seed=seed, cluster=cluster
        )

    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="e28-") as scratch_name:
        scratch = Path(scratch_name)
        # ---------------- replay reference (no serving) ---------------
        reference = make_scheduler(scratch / "replay")
        replay_digests = [release.digest for release in reference.run_pending()]

        # ---------------- the real pass, with hot reload --------------
        scheduler = make_scheduler(scratch / "live")
        first = scheduler.run_epoch()  # the cluster needs one version to boot
        client_errors: list[str] = []
        queries_done = [0]
        reloads = 0
        final_version_serving = None
        releases = [first]
        if reload_drill:
            with Cluster(scheduler.store, workers=workers) as cluster:
                scheduler.cluster = cluster
                stop = threading.Event()

                def hammer() -> None:
                    with ServingClient(cluster.url) as client:
                        while not stop.is_set():
                            try:
                                client.query("ACGT", release="continual")
                                queries_done[0] += 1
                            except Exception as error:  # client-visible failure
                                client_errors.append(repr(error))

                threads = [
                    threading.Thread(target=hammer, daemon=True)
                    for _ in range(clients)
                ]
                for thread in threads:
                    thread.start()
                try:
                    releases.extend(scheduler.run_pending())
                finally:
                    stop.set()
                    for thread in threads:
                        thread.join(timeout=30)
                reloads = sum(1 for release in releases if release.reloaded)
                final_version_serving = cluster.table.versions.get("continual")
        else:
            releases.extend(scheduler.run_pending())

        ledger_epochs = scheduler.ledger.epoch_entries("continual")
        for release in releases:
            tree_epsilon, _ = scheduler.continual.spent_through(release.epoch)
            rows.append(
                {
                    "epoch": release.epoch,
                    "version": release.version,
                    "marginal_epsilon": release.epsilon,
                    "spent_epsilon": release.spent_epsilon,
                    "tree_bound_epsilon": tree_epsilon,
                    "bound_ok": bool(
                        abs(release.spent_epsilon - tree_epsilon) < 1e-9
                    ),
                    "naive_epsilon": release.epoch * epsilon,
                    "below_naive": bool(
                        release.epoch < 3
                        or release.spent_epsilon < release.epoch * epsilon
                    ),
                    "digest12": release.digest[:12],
                    "digest_stable": bool(
                        release.digest == replay_digests[release.epoch - 1]
                    ),
                    "ledger_audited": bool(
                        any(
                            entry["epoch"] == release.epoch
                            for entry in ledger_epochs
                        )
                    ),
                    "num_patterns": release.num_patterns,
                    "reloaded": bool(release.reloaded),
                }
            )
        if reload_drill:
            rows.append(
                {
                    "mode": "reload-drill",
                    "workers": workers,
                    "clients": clients,
                    "reloads": reloads,
                    "queries_served": queries_done[0],
                    "client_errors": len(client_errors),
                    "zero_failures": not client_errors,
                    "final_version_serving": final_version_serving,
                    "final_version_expected": releases[-1].version,
                    "serving_latest": bool(
                        final_version_serving == releases[-1].version
                    ),
                }
            )
    return rows


# ----------------------------------------------------------------------
# E29: chaos drill — seeded fault injection against the resilient tier.
# ----------------------------------------------------------------------
#: blocks whose ratios :func:`failpoint_overhead` takes the median of.
OVERHEAD_BLOCKS = 16


def failpoint_overhead(port: int, body: bytes, armed: list, *, repeats: int) -> dict:
    """What arming ``armed`` (fault specs) costs ``/batch`` round trips to
    the in-process server on ``port``, against fault injection fully off.

    Each of :data:`OVERHEAD_BLOCKS` blocks sends ``repeats`` pairs of round
    trips of ``body`` on one keep-alive connection, one per arm, alternating
    which goes first, so drift on a shared machine hits both arms alike.  A
    block's ratio is its fastest armed round trip over its fastest disarmed
    one; the result's ratio is the median of the block ratios.
    """
    import http.client

    from repro import faults

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def round_trip(is_armed: bool) -> float:
        faults.disarm_all()
        if is_armed:
            faults.arm(armed, scope="overhead")
        started = time.perf_counter()
        connection.request("POST", "/batch", body, {"Content-Type": "application/json"})
        response = connection.getresponse()
        response.read()
        if response.status != 200:
            raise AssertionError(f"overhead batch failed: HTTP {response.status}")
        return time.perf_counter() - started

    floors: dict[bool, list[float]] = {False: [], True: []}
    try:
        round_trip(False)  # warm the connection and the lazy views
        for _ in range(OVERHEAD_BLOCKS):
            best = {False: float("inf"), True: float("inf")}
            for index in range(repeats):
                for is_armed in (index % 2 == 1, index % 2 == 0):
                    best[is_armed] = min(best[is_armed], round_trip(is_armed))
            for is_armed, seconds in best.items():
                floors[is_armed].append(seconds)
    finally:
        faults.disarm_all()
        faults.clear_log()
        connection.close()
    ratios = [a / d for a, d in zip(floors[True], floors[False])]
    return {
        "blocks": OVERHEAD_BLOCKS,
        "repeats": repeats,
        "disarmed_ms": float(np.median(floors[False])) * 1e3,
        "armed_ms": float(np.median(floors[True])) * 1e3,
        "block_ratios": ratios,
        "overhead_ratio": float(np.median(ratios)),
    }


def run_chaos_drill(
    workers: int = 4,
    *,
    seed: int = 29,
    target_nodes: int = 40_000,
    clients: int = 4,
    requests_per_client: int = 40,
    batch_size: int = 256,
    request_deadline: float = 10.0,
    worker_every: int = 5,
    relay_every: int = 9,
    overhead_repeats: int = 40,
) -> list[dict]:
    """E29 — the resilience layer under seeded, replayable fault injection.

    A synthetic release is served by a ``workers``-worker cluster whose
    failpoints are armed from one seed: every ``worker_every``-th handled
    worker request raises an injected 500 (``worker.handle``, armed via the
    inherited environment in every spawned worker) and every
    ``relay_every``-th router→worker round-trip raises an injected
    connection reset (``router.relay``, armed in the router process).
    Resilient :class:`~repro.serving.ServingClient`\\ s then hammer
    ``/query`` and ``/batch`` under a per-request deadline while one worker
    is ``kill -9``'d mid-run.  The drill row records three gates measured,
    not assumed:

    * **zero client-visible errors** — every injected fault and the crash
      are absorbed by retries, breakers and respawn; every answer is
      bit-identical to the in-process reference;
    * **bounded tail latency** — client p99 stays under the per-request
      deadline (nothing hung on a dead worker);
    * **replay-identical injection** — the injection logs written by the
      router and by every worker verify exactly against the pure
      recomputation of the seeded schedule
      (:func:`repro.faults.verify_log`).

    The overhead row prices the framework when *disarmed*: blocks of
    ``overhead_repeats`` interleaved pairs of ``/batch`` round-trips against
    a single-process server, fault injection fully off versus armed at an
    irrelevant site (so every serving-path failpoint runs its not-armed
    fast path), :func:`failpoint_overhead` — the median per-block ratio
    must stay within noise of 1.
    """
    import json
    import os
    import tempfile
    import threading
    from pathlib import Path

    from repro import faults
    from repro.serving import (
        Cluster,
        QueryService,
        ReleaseStore,
        ServingClient,
        create_server,
    )

    compiled = _synthetic_release(target_nodes, seed=seed)
    pattern_rng = np.random.default_rng(seed + 1)
    chars = sorted(compiled._vocab)
    patterns = [
        "".join(chars[pattern_rng.integers(len(chars))] for _ in range(4))
        for _ in range(batch_size)
    ]
    expected_batch = [float(count) for count in compiled.batch_query(patterns)]
    expected_single = {
        pattern: expected_batch[index] for index, pattern in enumerate(patterns)
    }

    worker_spec = faults.FaultSpec(
        site="worker.handle", action="raise", exc="fault", every=worker_every
    )
    relay_spec = faults.FaultSpec(
        site="router.relay", action="raise", exc="connection", every=relay_every
    )

    rows: list[dict] = []
    env_keys = (faults.ENV_SPECS, faults.ENV_SEED, faults.ENV_SCOPE, faults.ENV_LOG)
    saved_env = {key: os.environ.get(key) for key in env_keys}
    with tempfile.TemporaryDirectory(prefix="e29-") as scratch:
        store = ReleaseStore(Path(scratch) / "store")
        store.save("e29", compiled, format="binary")
        worker_log = Path(scratch) / "faults-workers.jsonl"

        # Workers arm from the environment they inherit at spawn; the
        # router process arms directly (its log stays in memory).
        os.environ.update(
            faults.env_for(
                [worker_spec], seed=seed, scope="worker", log_path=worker_log
            )
        )
        try:
            faults.arm([relay_spec], seed=seed, scope="router")
            with Cluster(store, workers=workers) as cluster:
                url = cluster.url
                latencies: list[float] = []
                client_errors: list[str] = []
                mismatches = [0]
                retries_total = [0]
                lock = threading.Lock()

                def hammer(client_index: int) -> None:
                    client = ServingClient(
                        url,
                        timeout=request_deadline,
                        retries=8,
                        seed=seed * 1000 + client_index,
                    )
                    rng = np.random.default_rng(seed + 100 + client_index)
                    local_latencies = []
                    with client:
                        for step in range(requests_per_client):
                            started = time.perf_counter()
                            try:
                                if step % 4 == 0:
                                    lo = int(rng.integers(0, batch_size - 16))
                                    subset = patterns[lo : lo + 16]
                                    counts = client.batch(subset)
                                    ok = counts == [
                                        expected_single[p] for p in subset
                                    ]
                                else:
                                    pattern = patterns[int(rng.integers(batch_size))]
                                    ok = client.query(pattern) == expected_single[
                                        pattern
                                    ]
                                if not ok:
                                    with lock:
                                        mismatches[0] += 1
                            except Exception as error:  # client-visible failure
                                with lock:
                                    client_errors.append(repr(error))
                            local_latencies.append(time.perf_counter() - started)
                    with lock:
                        latencies.extend(local_latencies)
                        retries_total[0] += client.num_retries

                threads = [
                    threading.Thread(target=hammer, args=(index,), daemon=True)
                    for index in range(clients)
                ]
                for thread in threads:
                    thread.start()
                time.sleep(0.2)  # let traffic get in flight, then crash one
                cluster.workers()[0].kill()
                for thread in threads:
                    thread.join(timeout=120)
                deadline = time.monotonic() + 30
                while (
                    len(cluster.table.live()) < workers
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.05)
                health = cluster.router.health()
                respawns = int(cluster.respawns)
                live_after = len(cluster.table.live())
            router_entries = faults.injection_log()
        finally:
            faults.disarm_all()
            faults.clear_log()
            for key, value in saved_env.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value

        worker_entries = faults.read_log(worker_log)
        problems = faults.verify_log(
            router_entries + worker_entries,
            [worker_spec, relay_spec],
            seed=seed,
        )
        ordered = sorted(latencies)
        p50 = ordered[len(ordered) // 2] if ordered else 0.0
        p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))] if ordered else 0.0
        rows.append(
            {
                "mode": "chaos-drill",
                "workers": workers,
                "clients": clients,
                "requests_total": clients * requests_per_client,
                "client_errors": len(client_errors),
                "mismatches": mismatches[0],
                "zero_failures": not client_errors and not mismatches[0],
                "client_retries": retries_total[0],
                "router_retries": int(health["retries"]),
                "sheds": int(health["sheds"]),
                "deadline_exceeded": int(health["deadline_exceeded"]),
                "respawns": respawns,
                "workers_live_after": live_after,
                "injected_router": len(router_entries),
                "injected_worker": len(worker_entries),
                "replay_identical": not problems,
                "replay_problems": problems[:3],
                "p50_ms": p50 * 1e3,
                "p99_ms": p99 * 1e3,
                "deadline_s": request_deadline,
                "p99_under_deadline": bool(p99 < request_deadline),
            }
        )

        # ---------------- disarmed-overhead row ----------------------
        body = json.dumps({"patterns": patterns}).encode("utf-8")
        service = QueryService.from_store(store, micro_batch=False)
        server = create_server(service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            # Armed at a site the serving path never hits: every serving
            # failpoint now runs its armed-elsewhere fast path.
            overhead = failpoint_overhead(
                server.server_address[1],
                body,
                [{"site": "fsio.write", "action": "raise"}],
                repeats=overhead_repeats,
            )
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        rows.append(
            {
                "mode": "disarmed-overhead",
                "batch_size": batch_size,
                "repeats": overhead_repeats,
                "blocks": overhead["blocks"],
                "disarmed_ms": overhead["disarmed_ms"],
                "armed_elsewhere_ms": overhead["armed_ms"],
                "block_ratios": overhead["block_ratios"],
                "overhead_ratio": overhead["overhead_ratio"],
            }
        )
    return rows
