"""Tests for repro.core.mining and repro.core.baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import ExactCountingOracle, build_simple_trie_baseline
from repro.core.construction import build_private_counting_structure
from repro.core.counts import exact_count_table
from repro.core.mining import (
    check_mining_guarantee,
    mine_frequent_qgrams,
    mine_frequent_substrings,
)
from repro.core.params import ConstructionParams
from repro.core.private_trie import PrivateCountingTrie, StructureMetadata


def noiseless_params(**kwargs) -> ConstructionParams:
    kwargs.setdefault("threshold", 1.0)
    return ConstructionParams.pure(epsilon=1.0, beta=0.1, noiseless=True, **kwargs)


class TestMiningOnNoiselessStructure:
    def test_mining_returns_truly_frequent_patterns(self, example_db):
        structure = build_private_counting_structure(
            example_db, noiseless_params(), rng=np.random.default_rng(0)
        )
        result = mine_frequent_substrings(structure, threshold=4.0)
        mined = result.pattern_set()
        exact = exact_count_table(example_db, example_db.max_length)
        for pattern, count in exact.items():
            if count >= 4:
                assert pattern in mined
        for pattern in mined:
            assert exact.get(pattern, 0) >= 4

    def test_qgram_mining_restricts_length(self, example_db):
        structure = build_private_counting_structure(
            example_db, noiseless_params(), rng=np.random.default_rng(0)
        )
        result = mine_frequent_qgrams(structure, threshold=2.0, q=2)
        assert result.patterns
        assert all(len(pattern) == 2 for pattern in result.pattern_set())

    def test_multiple_thresholds_are_free(self, example_db):
        structure = build_private_counting_structure(
            example_db, noiseless_params(), rng=np.random.default_rng(0)
        )
        sizes = [len(mine_frequent_substrings(structure, t)) for t in (1.0, 2.0, 4.0, 8.0)]
        assert sizes == sorted(sizes, reverse=True)

    def test_guarantee_checker_passes_on_exact_structure(self, example_db):
        structure = build_private_counting_structure(
            example_db, noiseless_params(), rng=np.random.default_rng(0)
        )
        result = mine_frequent_substrings(structure, threshold=3.0)
        violations = check_mining_guarantee(result, example_db)
        assert violations.ok

    def test_guarantee_checker_detects_missing_pattern(self):
        metadata = StructureMetadata(
            epsilon=1.0, delta=0.0, beta=0.1, delta_cap=5, max_length=5,
            num_documents=5, alphabet_size=2, error_bound=1.0, threshold=2.0,
        )
        empty_structure = PrivateCountingTrie.from_counts({}, metadata)
        result = mine_frequent_substrings(empty_structure, threshold=2.0)
        violations = check_mining_guarantee(
            result, {"aa": 10}, alpha=1.0
        )
        assert violations.missed == ["aa"]
        assert not violations.spurious

    def test_guarantee_checker_detects_spurious_pattern(self):
        metadata = StructureMetadata(
            epsilon=1.0, delta=0.0, beta=0.1, delta_cap=5, max_length=5,
            num_documents=5, alphabet_size=2, error_bound=1.0, threshold=2.0,
        )
        structure = PrivateCountingTrie.from_counts({"zz": 50.0}, metadata)
        result = mine_frequent_substrings(structure, threshold=10.0)
        violations = check_mining_guarantee(result, {"zz": 0}, alpha=1.0)
        assert violations.spurious == ["zz"]

    def test_guarantee_checker_respects_length_restriction(self):
        metadata = StructureMetadata(
            epsilon=1.0, delta=0.0, beta=0.1, delta_cap=5, max_length=5,
            num_documents=5, alphabet_size=2, error_bound=1.0, threshold=2.0,
        )
        structure = PrivateCountingTrie.from_counts({}, metadata)
        result = mine_frequent_qgrams(structure, threshold=2.0, q=2)
        violations = check_mining_guarantee(
            result, {"aaa": 100}, alpha=1.0, restrict_to_length=2
        )
        assert violations.ok  # the frequent pattern has the wrong length


class TestMiningOnPrivateStructure:
    def test_private_mining_guarantee_holds(self, small_db, rng):
        params = ConstructionParams.pure(epsilon=5.0, beta=0.05)
        structure = build_private_counting_structure(small_db, params, rng=rng)
        threshold = structure.metadata.threshold
        result = mine_frequent_substrings(structure, threshold)
        violations = check_mining_guarantee(result, small_db)
        assert violations.ok


class TestSimpleTrieBaseline:
    def test_noiseless_baseline_counts_exactly(self, example_db):
        params = noiseless_params()
        baseline = build_simple_trie_baseline(
            example_db, params, rng=np.random.default_rng(0), max_depth=3
        )
        assert baseline.query("ab") == pytest.approx(4)
        assert baseline.query("be") == pytest.approx(4)
        assert baseline.metadata.construction == "simple-trie baseline"

    def test_noiseless_baseline_stops_below_threshold(self, example_db):
        params = noiseless_params(threshold=3.0)
        baseline = build_simple_trie_baseline(
            example_db, params, rng=np.random.default_rng(0)
        )
        # "s" has substring count 2 < 3, so it is never expanded: "sa" absent.
        assert baseline.query("sa") == 0.0

    def test_noise_scaled_to_ell_squared(self, example_db):
        params = ConstructionParams.pure(epsilon=1.0, beta=0.1)
        baseline = build_simple_trie_baseline(
            example_db, params, rng=np.random.default_rng(0), max_depth=1
        )
        ell = example_db.max_length
        assert baseline.report["l1_sensitivity"] == ell * (ell + 1)
        assert baseline.error_bound > ell * ell  # Omega(ell^2 / eps) noise

    def test_max_nodes_cap_truncates(self, example_db):
        params = noiseless_params()
        baseline = build_simple_trie_baseline(
            example_db, params, rng=np.random.default_rng(0), max_nodes=3
        )
        assert baseline.report["truncated"]
        assert baseline.report["expanded_nodes"] <= 3

    def test_gaussian_flavour(self, example_db):
        params = ConstructionParams.approximate(1.0, 1e-5, beta=0.1)
        baseline = build_simple_trie_baseline(
            example_db, params, rng=np.random.default_rng(0), max_depth=1
        )
        assert baseline.metadata.delta == 1e-5


class TestExactCountingOracle:
    def test_query_matches_database(self, example_db):
        oracle = ExactCountingOracle(example_db)
        assert oracle.query("ab") == 4
        assert oracle.query("zzz") == 0
        assert oracle.error_bound == 0.0

    def test_document_count_mode(self, example_db):
        oracle = ExactCountingOracle(example_db, delta_cap=1)
        assert oracle.query("ab") == 3

    def test_mine_matches_exact_table(self, example_db):
        oracle = ExactCountingOracle(example_db)
        mined = dict(oracle.mine(4.0))
        exact = exact_count_table(example_db, example_db.max_length)
        expected = {p: float(c) for p, c in exact.items() if c >= 4}
        assert mined == expected

    def test_mine_with_length_filters(self, example_db):
        oracle = ExactCountingOracle(example_db)
        qgrams = oracle.mine(2.0, exact_length=2)
        assert all(len(p) == 2 for p, _ in qgrams)
