"""Property-based tests of the sensitivity bounds the privacy analysis uses.

The privacy of the constructions rests on a handful of combinatorial claims
about how counts can change between neighboring databases (Observation 1,
Corollary 3, Lemma 8, Lemma 10, Lemma 16).  These tests check those claims
empirically on random neighboring databases — if any of them failed, the
calibrated noise would be too small and the mechanisms would not be
differentially private.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidate_set import build_candidate_set
from repro.core.reference import annotate_trie_with_exact_counts
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.strings.naive import all_substrings, count_delta, count_occurrences
from repro.strings.trie import Trie
from repro.trees.heavy_path import HeavyPathDecomposition

DOC = st.text(alphabet="ab", min_size=1, max_size=8)
DOCS = st.lists(DOC, min_size=1, max_size=4)


def noiseless_params() -> ConstructionParams:
    return ConstructionParams.pure(1.0, beta=0.1, noiseless=True, threshold=1.0)


class TestObservation1AndCorollary3:
    @given(DOC, st.integers(1, 8))
    @settings(max_examples=60)
    def test_cumulative_count_of_fixed_length_substrings(self, document, length):
        """Observation 1: the total number of occurrences of all length-m
        substrings of S is at most |S| <= ell."""
        total = sum(
            count_occurrences(pattern, document)
            for pattern in {document[i : i + length] for i in range(len(document))}
            if len(pattern) == length
        )
        assert total <= len(document)

    @given(DOCS, DOC, st.integers(0, 3), st.integers(1, 3), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_l1_sensitivity_of_fixed_length_counts(
        self, documents, replacement, index, length, delta
    ):
        """Corollary 3 / 6: replacing one document changes the counts of all
        length-m patterns by at most 2 ell in total (and each single count by
        at most Delta)."""
        database = documents
        neighbor = list(documents)
        neighbor[index % len(documents)] = replacement
        ell = max(max(len(d) for d in database), len(replacement))
        patterns = {
            p
            for p in all_substrings(list(database) + [replacement])
            if len(p) == length
        }
        total_change = 0
        for pattern in patterns:
            before = count_delta(pattern, database, delta)
            after = count_delta(pattern, neighbor, delta)
            assert abs(before - after) <= delta
            total_change += abs(before - after)
        assert total_change <= 2 * ell


class TestHeavyPathSensitivity:
    """Lemma 8 / Lemma 10 / Lemma 16 on the candidate trie."""

    def _trie_and_decomposition(self, documents, delta):
        database = StringDatabase(documents)
        candidates = build_candidate_set(database, noiseless_params())
        trie = Trie(sorted(candidates.all_strings()))
        annotate_trie_with_exact_counts(trie, database, delta)
        decomposition = HeavyPathDecomposition(
            trie.root, lambda node: list(node.children.values())
        )
        return trie, decomposition

    @given(DOCS, st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_lemma10_root_count_budget(self, documents, delta):
        """The counts of all heavy-path roots, restricted to the occurrences
        inside any single document S, sum to at most
        ell * (floor(log |T_C|) + 1)."""
        trie, decomposition = self._trie_and_decomposition(documents, delta)
        log_bound = math.floor(math.log2(max(2, trie.num_nodes))) + 1
        for document in documents:
            total = 0
            for root in decomposition.path_roots():
                pattern = root.string()
                if pattern == "":
                    continue
                total += min(delta, count_occurrences(pattern, document))
            assert total <= len(document) * log_bound

    @given(DOCS, st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_lemma8_difference_sequence_l1_budget(self, documents, delta):
        """For every heavy path p with root r, the L1 norm of the part of the
        difference sequence attributable to one document S is at most
        count_Delta(str(r), S)."""
        trie, decomposition = self._trie_and_decomposition(documents, delta)
        for document in documents:
            for path in decomposition.paths:
                counts = [
                    min(delta, count_occurrences(node.string(), document))
                    if node.string()
                    else min(delta, len(document))
                    for node in path.nodes
                ]
                l1 = sum(
                    abs(counts[i] - counts[i - 1]) for i in range(1, len(counts))
                )
                assert l1 <= counts[0]

    @given(DOCS, st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_counts_monotone_non_increasing_down_paths(self, documents, delta):
        """count_Delta(str(v), D) never increases when walking down the trie
        (str(parent) is a prefix of str(child))."""
        trie, decomposition = self._trie_and_decomposition(documents, delta)
        for path in decomposition.paths:
            values = [node.count for node in path.nodes]
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestCandidateTrieSizeClaims:
    @given(DOCS)
    @settings(max_examples=25, deadline=None)
    def test_candidate_set_size_bound(self, documents):
        """Lemma 6: |C| <= n^2 ell^3 (the exact candidate set is much smaller,
        but it must never exceed the paper's bound)."""
        database = StringDatabase(documents)
        candidates = build_candidate_set(database, noiseless_params())
        n, ell = database.num_documents, database.max_length
        assert candidates.size <= n * n * ell**3

    @given(DOCS)
    @settings(max_examples=25, deadline=None)
    def test_level_sets_bounded_by_n_ell(self, documents):
        database = StringDatabase(documents)
        candidates = build_candidate_set(database, noiseless_params())
        for strings in candidates.levels.values():
            assert len(strings) <= database.num_documents * database.max_length
