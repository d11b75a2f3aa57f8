"""Parity tests for the compiled array-backed trie.

The load-bearing property is *exact post-processing parity*: a compiled
release answers byte-identical counts to the in-memory
:class:`PrivateCountingTrie` for every pattern, through every query path
(single walk, batch, mine), with and without the dense transition table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.construction import build_private_counting_structure
from repro.core.params import ConstructionParams
from repro.core.private_trie import PrivateCountingTrie, StructureMetadata
from repro.serving import CompiledTrie
from repro.strings.trie import Trie


def make_structure(counts: dict[str, float], **metadata_overrides) -> PrivateCountingTrie:
    trie = Trie()
    for pattern, count in counts.items():
        node = trie.insert(pattern)
        node.noisy_count = count
    metadata = StructureMetadata(
        epsilon=1.0,
        delta=0.0,
        beta=0.1,
        delta_cap=5,
        max_length=8,
        num_documents=10,
        alphabet_size=3,
        error_bound=2.0,
        threshold=4.0,
        **metadata_overrides,
    )
    return PrivateCountingTrie(trie=trie, metadata=metadata)


def probe_patterns(structure: PrivateCountingTrie) -> list[str]:
    """Stored patterns plus prefixes, extensions, misses and oddballs."""
    stored = structure.patterns()
    probes = list(stored)
    probes += [p[:-1] for p in stored if len(p) > 1]
    probes += [p + p[0] for p in stored]
    probes += ["", "zzz", "a?b", "éé", stored[0] * 5 if stored else "x"]
    return probes


@pytest.fixture
def built_structure(small_db, rng):
    """A real (noiseless, low-threshold) construction with many nodes."""
    params = ConstructionParams.pure(2.0, beta=0.1, noiseless=True, threshold=1.0)
    return build_private_counting_structure(small_db, params, rng=rng)


class TestSingleQueryParity:
    def test_handmade_structure(self):
        structure = make_structure({"ab": 7.5, "abc": 3.0, "ba": -1.5})
        compiled = CompiledTrie.from_structure(structure)
        for pattern in ("ab", "abc", "ba", "a", "b", "", "abcd", "zz", "a?"):
            assert compiled.query(pattern) == structure.query(pattern)

    def test_membership_matches(self):
        structure = make_structure({"abc": 3.0})
        compiled = CompiledTrie.from_structure(structure)
        for pattern in ("abc", "ab", "a", "zz", "abcd"):
            assert (pattern in compiled) == (pattern in structure)

    def test_built_structure_parity(self, built_structure):
        compiled = CompiledTrie.from_structure(built_structure)
        for pattern in probe_patterns(built_structure):
            assert compiled.query(pattern) == built_structure.query(pattern)

    def test_root_count_parity(self, built_structure):
        # Constructions store a count on the root; query("") must agree.
        compiled = CompiledTrie.from_structure(built_structure)
        assert compiled.query("") == built_structure.query("")

    def test_empty_structure(self):
        structure = make_structure({})
        compiled = CompiledTrie.from_structure(structure)
        assert compiled.query("anything") == 0.0
        assert compiled.num_nodes == 1
        assert compiled.num_stored_patterns == 0


class TestSingleWalk:
    """``query`` and ``in`` walk the dense table, or binary-search
    ``edge_keys`` past :attr:`CompiledTrie.DENSE_TRANSITION_LIMIT`; both
    walks must answer exactly what the in-memory structure answers."""

    @staticmethod
    def probes(structure: PrivateCountingTrie) -> list[str]:
        longest = max(structure.patterns(), key=len)
        return probe_patterns(structure) + [
            "\x00",
            "a\x00",
            "\U0001F600",
            "a\U0001F600",
            "?",
            longest + longest,
        ]

    @pytest.fixture(params=["dense", "sparse"])
    def compiled(self, built_structure, monkeypatch, request):
        if request.param == "sparse":
            monkeypatch.setattr(CompiledTrie, "DENSE_TRANSITION_LIMIT", 0)
        trie = CompiledTrie.from_structure(built_structure)
        assert (trie._transitions is None) == (request.param == "sparse")
        return trie

    def test_query_and_membership_match_the_structure(
        self, compiled, built_structure
    ):
        for pattern in self.probes(built_structure):
            assert compiled.query(pattern) == built_structure.query(pattern)
            assert (pattern in compiled) == (pattern in built_structure)

    def test_both_walks_agree(self, compiled, built_structure):
        dense = CompiledTrie.from_structure(built_structure)
        dense.DENSE_TRANSITION_LIMIT = 1 << 25
        assert dense._transitions is not None
        for pattern in self.probes(built_structure):
            assert compiled.query(pattern) == dense.query(pattern)
            assert (pattern in compiled) == (pattern in dense)
            assert compiled.lookup_node(pattern) == dense.lookup_node(pattern)

    def test_lookup_node_spells_the_pattern(self, compiled, built_structure):
        for pattern in self.probes(built_structure):
            node = compiled.lookup_node(pattern)
            if node < 0:
                assert built_structure.trie.find(pattern) is None
            else:
                assert compiled.pattern_of(node) == pattern

    def test_answers_are_python_floats(self, compiled, built_structure):
        for pattern in ("", "zz", built_structure.patterns()[0]):
            assert type(compiled.query(pattern)) is float


class TestBatchQueryParity:
    def test_matches_single_queries(self, built_structure):
        compiled = CompiledTrie.from_structure(built_structure)
        probes = probe_patterns(built_structure)
        batch = compiled.batch_query(probes)
        expected = [built_structure.query(p) for p in probes]
        assert np.allclose(batch, expected)

    def test_empty_batch(self, built_structure):
        compiled = CompiledTrie.from_structure(built_structure)
        assert compiled.batch_query([]).tolist() == []

    def test_all_empty_patterns(self, built_structure):
        compiled = CompiledTrie.from_structure(built_structure)
        batch = compiled.batch_query(["", "", ""])
        assert np.allclose(batch, [built_structure.query("")] * 3)

    def test_unknown_alphabet_characters(self):
        structure = make_structure({"ab": 4.0})
        compiled = CompiledTrie.from_structure(structure)
        assert compiled.batch_query(["a?", "?a", "ab", "☃"]).tolist() == [
            0.0,
            0.0,
            4.0,
            0.0,
        ]

    def test_sparse_fallback_parity(self, built_structure, monkeypatch):
        # Force the searchsorted fallback used for huge alphabets.
        monkeypatch.setattr(CompiledTrie, "DENSE_TRANSITION_LIMIT", 0)
        compiled = CompiledTrie.from_structure(built_structure)
        assert compiled._transitions is None
        probes = probe_patterns(built_structure)
        expected = [built_structure.query(p) for p in probes]
        assert np.allclose(compiled.batch_query(probes), expected)

    def test_sparse_fallback_single_node(self, monkeypatch):
        monkeypatch.setattr(CompiledTrie, "DENSE_TRANSITION_LIMIT", 0)
        compiled = CompiledTrie.from_structure(make_structure({}))
        assert compiled.batch_query(["a", ""]).tolist() == [0.0, 0.0]

    def test_large_random_batch(self, built_structure, rng):
        compiled = CompiledTrie.from_structure(built_structure)
        alphabet = ["a", "b", "c"]
        probes = [
            "".join(alphabet[i] for i in rng.integers(0, 3, size=rng.integers(0, 7)))
            for _ in range(500)
        ]
        expected = [built_structure.query(p) for p in probes]
        assert np.allclose(compiled.batch_query(probes), expected)


class TestBatchQueryEdgeCases:
    """The separator-scan shortcuts (NUL-joined encode, uniform fast path)
    must agree with single queries on every degenerate batch, on both the
    dense-table and the sparse ``_advance_sparse`` paths."""

    @pytest.fixture(params=["dense", "sparse"])
    def compiled(self, built_structure, monkeypatch, request):
        if request.param == "sparse":
            monkeypatch.setattr(CompiledTrie, "DENSE_TRANSITION_LIMIT", 0)
        trie = CompiledTrie.from_structure(built_structure)
        assert (trie._transitions is None) == (request.param == "sparse")
        return trie

    def test_empty_batch(self, compiled):
        result = compiled.batch_query([])
        assert result.tolist() == [] and result.dtype == np.float64

    def test_all_empty_patterns(self, compiled, built_structure):
        expected = built_structure.query("")
        assert compiled.batch_query([""] * 5).tolist() == [expected] * 5

    def test_nul_containing_patterns(self, compiled, built_structure):
        # NUL is the join separator; patterns containing it must fall back
        # to the per-pattern length scan and still answer 0 (NUL is outside
        # every vocab).
        probes = ["\x00", "a\x00b", "\x00ab", "ab\x00", "ab", "\x00\x00"]
        expected = [built_structure.query(p) for p in probes]
        assert compiled.batch_query(probes).tolist() == expected
        assert all(built_structure.query(p) == 0.0 for p in probes if "\x00" in p)

    def test_uniform_nul_batch_falls_through_to_general_path(
        self, compiled, built_structure
    ):
        # Uniform lengths but NULs inside the patterns: the separator-count
        # guard must reject the uniform fast path, not misparse the join.
        probes = ["a\x00b", "a\x00b", "ab\x00", "\x00ab"]
        assert compiled.batch_query(probes).tolist() == [0.0] * 4

    def test_uniform_batch_matches_general_path(self, compiled, built_structure):
        stored = built_structure.patterns()
        width = max(len(p) for p in stored)
        uniform = [p for p in stored if len(p) == width][:3] * 4
        if not uniform:
            pytest.skip("structure stores no uniform-width patterns")
        expected = [built_structure.query(p) for p in uniform]
        assert compiled.batch_query(uniform).tolist() == expected
        # A single pattern (m == 1) takes the general path by design.
        assert compiled.batch_query(uniform[:1]).tolist() == expected[:1]

    def test_mixed_lengths_with_empties_and_misses(self, compiled, built_structure):
        probes = ["", "zz", built_structure.patterns()[0], "", "a", "☃", "\x00"]
        expected = [built_structure.query(p) for p in probes]
        assert compiled.batch_query(probes).tolist() == expected


class TestMiningParity:
    def test_mine_matches(self, built_structure):
        compiled = CompiledTrie.from_structure(built_structure)
        for threshold in (0.5, 1.0, 2.0, 100.0):
            assert compiled.mine(threshold) == built_structure.mine(threshold)

    def test_mine_filters_match(self, built_structure):
        compiled = CompiledTrie.from_structure(built_structure)
        assert compiled.mine(1.0, min_length=2) == built_structure.mine(
            1.0, min_length=2
        )
        assert compiled.mine(1.0, max_length=2) == built_structure.mine(
            1.0, max_length=2
        )
        assert compiled.mine(1.0, exact_length=3) == built_structure.mine(
            1.0, exact_length=3
        )

    def test_items_match(self, built_structure):
        compiled = CompiledTrie.from_structure(built_structure)
        assert dict(compiled.items()) == dict(built_structure.items())


class TestStatistics:
    def test_counts_and_sizes(self, built_structure):
        compiled = CompiledTrie.from_structure(built_structure)
        assert compiled.num_nodes == built_structure.num_nodes
        assert compiled.num_stored_patterns == built_structure.num_stored_patterns
        assert compiled.error_bound == built_structure.error_bound
        assert compiled.metadata == built_structure.metadata
        assert compiled.nbytes > 0

    def test_compiled_via_structure_hook(self, built_structure):
        compiled = built_structure.compiled()
        assert compiled.query("ab") == built_structure.query("ab")
