"""End-to-end integration tests across modules.

These tests exercise the full public API the way the examples do: generate a
workload, build private structures under both privacy flavours, query them,
mine them, serialize them, and check the accuracy contract end to end.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import (
    ConstructionParams,
    ExactCountingOracle,
    PrivateCountingTrie,
    StringDatabase,
    build_private_counting_structure,
    build_simple_trie_baseline,
    check_mining_guarantee,
    mine_frequent_substrings,
)
from repro.analysis.metrics import max_error_over_all_substrings
from repro.core.candidate_set import build_candidate_set
from repro.core.qgram_structure import qgram_counting_structure
from repro.workloads import genome_with_motifs, transit_trajectories


@pytest.fixture(scope="module")
def genome_db() -> StringDatabase:
    return genome_with_motifs(
        120, 10, np.random.default_rng(0), motifs=("ACGT",), planting_probability=0.8
    )


class TestEndToEndPure:
    def test_full_pipeline_with_high_epsilon(self, genome_db):
        """With a generous budget the planted motif survives thresholding and
        is mined correctly; all guarantees hold."""
        params = ConstructionParams.pure(epsilon=60.0, beta=0.1)
        structure = build_private_counting_structure(
            genome_db, params, rng=np.random.default_rng(1)
        )
        # Stored counts respect the error bound.
        for pattern, noisy in structure.items():
            exact = genome_db.substring_count(pattern)
            assert abs(noisy - exact) <= structure.error_bound
        # Mining at the structure's own threshold satisfies Definition 2.
        result = mine_frequent_substrings(structure, structure.metadata.threshold)
        violations = check_mining_guarantee(result, genome_db)
        assert violations.ok
        # The heavily planted single letters are found.
        if result.patterns:
            assert any(len(pattern) >= 1 for pattern in result.pattern_set())

    def test_query_is_post_processing(self, genome_db):
        """Repeated queries and mining runs never change the structure."""
        params = ConstructionParams.pure(epsilon=10.0, beta=0.1)
        structure = build_private_counting_structure(
            genome_db, params, rng=np.random.default_rng(2)
        )
        first = [structure.query("ACGT") for _ in range(5)]
        assert len(set(first)) == 1
        before = dict(structure.items())
        structure.mine(0.0)
        structure.mine(1e9)
        assert dict(structure.items()) == before

    def test_serialization_roundtrip_preserves_queries(self, genome_db):
        params = ConstructionParams.pure(epsilon=30.0, beta=0.1)
        structure = build_private_counting_structure(
            genome_db, params, rng=np.random.default_rng(3)
        )
        restored = PrivateCountingTrie.from_json(structure.to_json())
        for pattern in ("A", "AC", "ACGT", "TTTT"):
            assert restored.query(pattern) == structure.query(pattern)


class TestEndToEndApproximate:
    def test_document_count_structure(self, genome_db):
        params = ConstructionParams.approximate(
            epsilon=10.0, delta=1e-6, beta=0.1, delta_cap=1
        )
        structure = build_private_counting_structure(
            genome_db, params, rng=np.random.default_rng(4)
        )
        for pattern, noisy in structure.items():
            exact = genome_db.document_count(pattern)
            assert abs(noisy - exact) <= structure.error_bound

    def test_qgram_structure_end_to_end(self, genome_db):
        params = ConstructionParams.approximate(epsilon=20.0, delta=1e-6, beta=0.1)
        structure = qgram_counting_structure(
            genome_db, 2, params, rng=np.random.default_rng(5)
        )
        assert structure.metadata.qgram_length == 2
        for pattern, noisy in structure.items():
            assert len(pattern) == 2
            exact = genome_db.substring_count(pattern)
            assert abs(noisy - exact) <= structure.error_bound


class TestAccuracyContract:
    def test_overall_error_bounded_by_absent_pattern_bound(self):
        """The maximum error over every substring of the database (stored or
        not) is bounded by the structure's absent-pattern bound + stored
        bound."""
        database = transit_trajectories(60, 8, np.random.default_rng(6))
        params = ConstructionParams.pure(epsilon=5.0, beta=0.05)
        structure = build_private_counting_structure(
            database, params, rng=np.random.default_rng(7)
        )
        summary = max_error_over_all_substrings(
            structure, database, max_pattern_length=4
        )
        ceiling = max(
            structure.error_bound, structure.report["absent_pattern_bound"]
        )
        assert summary.max_error <= ceiling

    def test_exact_candidates_noisy_counts_contract(self, small_db):
        """With exact candidates and no pruning, the theorem-1 contract on
        stored counts holds for every node of the candidate trie."""
        noiseless = ConstructionParams.pure(1.0, beta=0.1, noiseless=True, threshold=1.0)
        candidates = build_candidate_set(small_db, noiseless)
        params = ConstructionParams.pure(epsilon=2.0, beta=0.02, threshold=-math.inf)
        structure = build_private_counting_structure(
            small_db,
            params,
            rng=np.random.default_rng(8),
            candidate_set=candidates,
        )
        oracle = ExactCountingOracle(small_db)
        for pattern, noisy in structure.items():
            assert abs(noisy - oracle.query(pattern)) <= structure.error_bound


class TestBaselineComparison:
    def test_baseline_and_structure_agree_noiselessly(self, genome_db):
        noiseless = ConstructionParams.pure(
            1.0, beta=0.1, noiseless=True, threshold=1.0
        )
        ours = build_private_counting_structure(
            genome_db, noiseless, rng=np.random.default_rng(9)
        )
        baseline = build_simple_trie_baseline(
            genome_db, noiseless, rng=np.random.default_rng(9), max_depth=2
        )
        for pattern in ("A", "C", "G", "T", "AC", "GT"):
            assert ours.query(pattern) == pytest.approx(baseline.query(pattern))

    def test_baseline_noise_scale_is_larger(self, genome_db):
        params = ConstructionParams.pure(epsilon=1.0, beta=0.1)
        baseline = build_simple_trie_baseline(
            genome_db, params, rng=np.random.default_rng(10), max_depth=1
        )
        ell = genome_db.max_length
        # The baseline's per-count noise is calibrated to ell^2-ish
        # sensitivity, which exceeds the paper's ell-based root sensitivity.
        assert baseline.report["l1_sensitivity"] >= ell * ell
