"""Query-path tests for the array trie the server answers from.

The load-bearing property is that every query path — single walk, batch,
membership, mine — answers exactly what the released payload says: the
stored noisy count of a pattern, or 0 when it stores none, with and
without the dense transition table.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construction import build_private_counting_structure
from repro.core.params import ConstructionParams
from repro.core.private_trie import PrivateCountingTrie, StructureMetadata
from repro.serving import CompiledTrie


def make_structure(counts: dict[str, float], **metadata_overrides) -> PrivateCountingTrie:
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
    return PrivateCountingTrie.from_counts(counts, metadata)


class Oracle:
    """A release's answers straight from its payload's count map."""

    def __init__(self, counts: dict[str, float]) -> None:
        self.counts = counts

    @classmethod
    def of(cls, structure: PrivateCountingTrie) -> "Oracle":
        return cls(structure.to_payload()["counts"])

    def query(self, pattern: str) -> float:
        return float(self.counts.get(pattern, 0.0))

    def __contains__(self, pattern: str) -> bool:
        return pattern in self.counts

    def mine(self, threshold, *, min_length=1, max_length=None, exact_length=None):
        results = [
            (pattern, count)
            for pattern, count in self.counts.items()
            if pattern
            and count >= threshold
            and len(pattern) >= min_length
            and (max_length is None or len(pattern) <= max_length)
            and (exact_length is None or len(pattern) == exact_length)
        ]
        results.sort(key=lambda item: (-item[1], item[0]))
        return results


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
        counts = {"ab": 7.5, "abc": 3.0, "ba": -1.5}
        structure = make_structure(counts)
        for pattern in ("ab", "abc", "ba", "a", "b", "", "abcd", "zz", "a?"):
            assert structure.query(pattern) == Oracle(counts).query(pattern)

    def test_membership_matches(self):
        structure = make_structure({"abc": 3.0})
        for pattern in ("abc", "ab", "a", "zz", "abcd", ""):
            assert (pattern in structure) == (pattern == "abc")

    def test_built_structure_parity(self, built_structure):
        oracle = Oracle.of(built_structure)
        for pattern in probe_patterns(built_structure):
            assert built_structure.query(pattern) == oracle.query(pattern)

    def test_root_count_parity(self, built_structure):
        # Constructions store a count on the root; query("") answers it.
        assert "" in built_structure
        assert built_structure.query("") == Oracle.of(built_structure).query("")

    def test_empty_structure(self):
        structure = make_structure({})
        assert structure.query("anything") == 0.0
        assert structure.num_nodes == 1
        assert structure.num_stored_patterns == 0


class TestSingleWalk:
    """``query`` and ``in`` walk the dense table, or binary-search
    ``edge_keys`` past :attr:`CompiledTrie.DENSE_TRANSITION_LIMIT`; both
    walks must answer exactly what the payload says."""

    @staticmethod
    def probes(structure: PrivateCountingTrie) -> list[str]:
        longest = max(structure.patterns(), key=len)
        return probe_patterns(structure) + [
            "\x00",
            "a\x00",
            "\U0001F600",
            "a\U0001F600",
            "\ud800",
            "?",
            longest + longest,
        ]

    @pytest.fixture(params=["dense", "sparse"])
    def compiled(self, built_structure, monkeypatch, request):
        if request.param == "sparse":
            monkeypatch.setattr(CompiledTrie, "DENSE_TRANSITION_LIMIT", 0)
        trie = PrivateCountingTrie.from_payload(built_structure.to_payload())
        assert (trie._transitions is None) == (request.param == "sparse")
        return trie

    def test_query_and_membership_match_the_structure(
        self, compiled, built_structure
    ):
        oracle = Oracle.of(built_structure)
        for pattern in self.probes(built_structure):
            assert compiled.query(pattern) == oracle.query(pattern)
            assert (pattern in compiled) == (pattern in oracle)

    def test_both_walks_agree(self, compiled, built_structure):
        dense = PrivateCountingTrie.from_payload(built_structure.to_payload())
        dense.DENSE_TRANSITION_LIMIT = 1 << 25
        assert dense._transitions is not None
        for pattern in self.probes(built_structure):
            assert compiled.query(pattern) == dense.query(pattern)
            assert (pattern in compiled) == (pattern in dense)
            assert compiled.lookup_node(pattern) == dense.lookup_node(pattern)

    def test_lookup_node_spells_the_pattern(self, compiled, built_structure):
        nodes = set(built_structure.patterns())
        for pattern in self.probes(built_structure):
            node = compiled.lookup_node(pattern)
            if node < 0:
                assert pattern not in nodes
            else:
                assert compiled.pattern_of(node) == pattern

    def test_answers_are_python_floats(self, compiled, built_structure):
        for pattern in ("", "zz", built_structure.patterns()[0]):
            assert type(compiled.query(pattern)) is float


class TestBatchQueryParity:
    def test_matches_single_queries(self, built_structure):
        probes = probe_patterns(built_structure)
        batch = built_structure.batch_query(probes)
        expected = [built_structure.query(p) for p in probes]
        assert batch.tolist() == expected

    def test_empty_batch(self, built_structure):
        assert built_structure.batch_query([]).tolist() == []

    def test_all_empty_patterns(self, built_structure):
        batch = built_structure.batch_query(["", "", ""])
        assert batch.tolist() == [built_structure.query("")] * 3

    def test_unknown_alphabet_characters(self):
        structure = make_structure({"ab": 4.0})
        assert structure.batch_query(["a?", "?a", "ab", "☃", "\ud800"]).tolist() == [
            0.0,
            0.0,
            4.0,
            0.0,
            0.0,
        ]

    def test_sparse_fallback_parity(self, built_structure, monkeypatch):
        # Force the searchsorted fallback used for huge alphabets.
        monkeypatch.setattr(CompiledTrie, "DENSE_TRANSITION_LIMIT", 0)
        compiled = PrivateCountingTrie.from_payload(built_structure.to_payload())
        assert compiled._transitions is None
        probes = probe_patterns(built_structure)
        expected = [Oracle.of(built_structure).query(p) for p in probes]
        assert compiled.batch_query(probes).tolist() == expected

    def test_sparse_fallback_single_node(self, monkeypatch):
        monkeypatch.setattr(CompiledTrie, "DENSE_TRANSITION_LIMIT", 0)
        compiled = make_structure({})
        assert compiled.batch_query(["a", ""]).tolist() == [0.0, 0.0]

    def test_large_random_batch(self, built_structure, rng):
        alphabet = ["a", "b", "c"]
        probes = [
            "".join(alphabet[i] for i in rng.integers(0, 3, size=rng.integers(0, 7)))
            for _ in range(500)
        ]
        expected = [Oracle.of(built_structure).query(p) for p in probes]
        assert built_structure.batch_query(probes).tolist() == expected


class TestBatchQueryEdgeCases:
    """The separator-scan shortcuts (NUL-joined encode, uniform fast path)
    must agree with single queries on every degenerate batch, on both the
    dense-table and the sparse ``_advance_sparse`` paths."""

    @pytest.fixture(params=["dense", "sparse"])
    def compiled(self, built_structure, monkeypatch, request):
        if request.param == "sparse":
            monkeypatch.setattr(CompiledTrie, "DENSE_TRANSITION_LIMIT", 0)
        trie = PrivateCountingTrie.from_payload(built_structure.to_payload())
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


#: pattern characters: the release's own, a miss, an astral code point and a
#: lone surrogate (no NUL: it separates the patterns of a joined batch)
_WALK_CHARS = st.sampled_from(["a", "b", "e", "s", "z", "\U0001F600", "\ud800"])
_UNIFORM_BATCHES = st.integers(0, 6).flatmap(
    lambda length: st.lists(
        st.text(_WALK_CHARS, min_size=length, max_size=length), min_size=1, max_size=40
    )
)


@pytest.fixture(scope="module")
def walks():
    """One built release behind the dense-table walk and the sparse one."""
    from repro.core.database import StringDatabase

    params = ConstructionParams.pure(2.0, beta=0.1, noiseless=True, threshold=1.0)
    structure = build_private_counting_structure(
        StringDatabase(["aaaa", "abe", "absab", "babe", "bee", "bees"]),
        params,
        rng=np.random.default_rng(5),
    )
    dense = PrivateCountingTrie.from_payload(structure.to_payload())
    sparse = PrivateCountingTrie.from_payload(structure.to_payload())
    sparse.DENSE_TRANSITION_LIMIT = 0
    assert dense._transitions is not None and sparse._transitions is None
    return dense, sparse


class TestJoinedBatches:
    """``batch_query_joined``, the entry a binary ``/batch`` request
    reaches, is ``batch_query``'s walk: bit for bit the same counts, on
    mixed-length and uniform-length lists and on both walks."""

    @staticmethod
    def check(walks, patterns: list[str]) -> None:
        for trie in walks:
            joined = trie.batch_query_joined("\x00".join(patterns))
            assert joined.tobytes() == trie.batch_query(patterns).tobytes()

    @given(patterns=st.lists(st.text(_WALK_CHARS, max_size=7), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_mixed_lengths(self, walks, patterns):
        self.check(walks, patterns)

    @given(patterns=_UNIFORM_BATCHES)
    @settings(max_examples=80, deadline=None)
    def test_uniform_lengths(self, walks, patterns):
        self.check(walks, patterns)

    def test_the_empty_text_is_one_empty_pattern(self, walks):
        for trie in walks:
            assert trie.batch_query_joined("").tolist() == [trie.query("")]

    def test_uniform_text_takes_the_uniform_path(self, walks, monkeypatch):
        taken = []
        uniform = PrivateCountingTrie._batch_query_uniform

        def spy(self, flat_codes, length, m, *tables):
            taken.append((length, m))
            return uniform(self, flat_codes, length, m, *tables)

        monkeypatch.setattr(PrivateCountingTrie, "_batch_query_uniform", spy)
        dense = walks[0]
        dense.batch_query_joined("ab\x00be\x00zz")
        dense.batch_query_joined("ab\x00b\x00zz")  # mixed lengths
        dense.batch_query(["\x00b", "ab"])  # NUL inside a pattern
        assert taken == [(2, 3)]


class TestMiningParity:
    def test_mine_matches(self, built_structure):
        oracle = Oracle.of(built_structure)
        for threshold in (0.5, 1.0, 2.0, 100.0):
            assert built_structure.mine(threshold) == oracle.mine(threshold)

    def test_mine_filters_match(self, built_structure):
        oracle = Oracle.of(built_structure)
        for filters in ({"min_length": 2}, {"max_length": 2}, {"exact_length": 3}):
            assert built_structure.mine(1.0, **filters) == oracle.mine(1.0, **filters)

    def test_items_match(self, built_structure):
        counts = dict(Oracle.of(built_structure).counts)
        del counts[""]
        assert dict(built_structure.items()) == counts


class TestStatistics:
    def test_counts_and_sizes(self, built_structure):
        counts = Oracle.of(built_structure).counts
        prefixes = {p[:k] for p in counts for k in range(len(p) + 1)}
        assert built_structure.num_nodes == len(prefixes)
        assert built_structure.num_stored_patterns == len(counts) - 1
        assert built_structure.error_bound == built_structure.metadata.error_bound
        assert built_structure.nbytes > 0
