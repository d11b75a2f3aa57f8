"""Cross-backend equivalence and selection tests for the counting engines.

The unified counting layer's contract is that every backend returns
bitwise-identical ``count_many`` vectors on every input — the backend choice
may only ever change speed, never a single count.  These tests enforce that
contract on hand-picked corpora, on property-based random corpora, through
the ``StringDatabase.count_many`` front door, and against the noiseless
releases of the constructions, which count with their own sort-join counter.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ConstructionParams
from repro.counting import (
    AUTO_BACKEND,
    BACKENDS,
    AhoCorasickEngine,
    CountingEngine,
    NaiveEngine,
    SuffixArrayEngine,
    auto_backend,
    make_engine,
    resolve_backend,
)
from repro.strings.naive import all_substrings

DOC = st.text(alphabet="abc", min_size=1, max_size=10)
DOCS = st.lists(DOC, min_size=1, max_size=5)
PATTERN = st.text(alphabet="abcd", min_size=0, max_size=6)
PATTERNS = st.lists(PATTERN, min_size=0, max_size=12)


def engines_for(documents):
    return [make_engine(backend, documents) for backend in BACKENDS]


class TestCrossBackendEquality:
    def test_example_collection_all_deltas(self, example_db):
        documents = list(example_db)
        patterns = sorted(all_substrings(documents)) + ["", "zz", "aaaa", "be", "be"]
        for delta in (1, 2, 3, 100):
            reference, *others = [
                engine.count_many(patterns, delta) for engine in engines_for(documents)
            ]
            for counts in others:
                assert np.array_equal(reference, counts)

    @settings(max_examples=60, deadline=None)
    @given(documents=DOCS, patterns=PATTERNS, delta=st.integers(1, 12))
    def test_random_corpora(self, documents, patterns, delta):
        reference, *others = [
            engine.count_many(patterns, delta) for engine in engines_for(documents)
        ]
        for counts in others:
            assert np.array_equal(reference, counts)

    def test_duplicates_and_absent_patterns(self):
        documents = ["abab", "bbb"]
        patterns = ["ab", "ab", "zzz", "", "b", "ab"]
        vectors = [
            engine.count_many(patterns, 2) for engine in engines_for(documents)
        ]
        for counts in vectors:
            assert counts[0] == counts[1] == counts[5]
            assert counts[2] == 0
        assert np.array_equal(vectors[0], vectors[1])
        assert np.array_equal(vectors[0], vectors[2])

    def test_empty_batch(self):
        for engine in engines_for(["ab"]):
            counts = engine.count_many([], 3)
            assert counts.shape == (0,)
            assert counts.dtype == np.int64

    def test_empty_pattern_is_capped_total_length(self):
        documents = ["aaaa", "bb"]
        for engine in engines_for(documents):
            assert engine.count_many([""], 3)[0] == 3 + 2
            assert engine.count_many([""], 100)[0] == 6

    def test_delta_below_one_rejected(self):
        for engine in engines_for(["ab"]):
            with pytest.raises(ValueError):
                engine.count_many(["a"], 0)


class TestBackendSelection:
    def test_concrete_names_resolve_to_themselves(self):
        for backend in BACKENDS:
            assert resolve_backend(backend) == backend
            assert resolve_backend(backend, 10_000, 10) == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("suffix-tree")
        with pytest.raises(ValueError):
            make_engine("auto", ["ab"])  # auto must be resolved first

    def test_auto_prefers_index_for_small_batches(self):
        assert auto_backend(1, 1000) == "suffix-array"
        assert auto_backend(4, 1000) == "suffix-array"

    def test_auto_prefers_automaton_for_level_sized_batches(self):
        assert auto_backend(256, 10_000) == "aho-corasick"
        assert auto_backend(1024, 100_000) == "aho-corasick"

    def test_auto_keeps_tiny_batches_off_huge_corpora(self):
        assert auto_backend(64, 10**7) == "suffix-array"

    def test_auto_without_sizes_falls_back_to_index(self):
        assert resolve_backend(AUTO_BACKEND) == "suffix-array"

    def test_engines_satisfy_protocol(self):
        for engine in engines_for(["ab"]):
            assert isinstance(engine, CountingEngine)
        assert isinstance(NaiveEngine(["a"]), CountingEngine)
        assert isinstance(SuffixArrayEngine(["a"]), CountingEngine)
        assert isinstance(AhoCorasickEngine(["a"]), CountingEngine)


class TestDatabaseFrontDoor:
    def test_count_many_matches_per_pattern_count(self, example_db):
        patterns = ["ab", "be", "", "absab", "nope"]
        for backend in (AUTO_BACKEND,) + BACKENDS:
            counts = example_db.count_many(patterns, 2, backend=backend)
            assert counts.tolist() == [
                example_db.count(p, 2) for p in patterns
            ]

    def test_default_cap_is_max_length(self, example_db):
        counts = example_db.count_many(["a"])
        assert counts[0] == example_db.count("a", example_db.max_length)

    def test_suffix_array_engine_shares_database_index(self, example_db):
        engine = example_db.engine("suffix-array")
        assert engine.index is example_db.index
        assert example_db.engine("suffix-array") is engine  # cached

    def test_engine_rejects_auto(self, example_db):
        with pytest.raises(ValueError):
            example_db.engine(AUTO_BACKEND)


class TestBackendRecordedInReleases:
    def test_construction_records_backend(self, small_db, rng):
        """Every build records the value its kind has always recorded, so
        no release digest moved when the engine choice stopped being a
        parameter."""
        from repro.core.construction import build_private_counting_structure
        from repro.core.qgram_structure import (
            theorem3_qgram_structure,
            theorem4_qgram_structure,
        )

        pure = ConstructionParams.pure(2.0, beta=0.1)
        approx = ConstructionParams.approximate(2.0, 1e-6, beta=0.1)
        recorded = {
            "heavy-path pure": build_private_counting_structure(
                small_db, pure, rng=rng
            ),
            "heavy-path approx": build_private_counting_structure(
                small_db, approx, rng=rng
            ),
            "qgram-t3": theorem3_qgram_structure(small_db, 2, pure, rng=rng),
            "qgram-t4": theorem4_qgram_structure(small_db, 2, approx, rng=rng),
        }
        assert {
            name: (
                structure.metadata.count_backend,
                structure.to_dict()["metadata"]["count_backend"],
            )
            for name, structure in recorded.items()
        } == {
            "heavy-path pure": ("auto", "auto"),
            "heavy-path approx": ("auto", "auto"),
            "qgram-t3": ("auto", "auto"),
            "qgram-t4": ("suffix-array", "suffix-array"),
        }

    def test_serialization_roundtrip_keeps_backend(self, small_db, rng):
        from repro.core.construction import build_private_counting_structure
        from repro.core.private_trie import PrivateCountingTrie

        params = ConstructionParams.pure(2.0, beta=0.1)
        structure = build_private_counting_structure(small_db, params, rng=rng)
        restored = PrivateCountingTrie.from_json(structure.to_json())
        assert restored.metadata.count_backend == "auto"
        assert restored.content_digest() == structure.content_digest()

    def test_legacy_payload_without_backend_still_loads(self, small_db, rng):
        from repro.core.construction import build_private_counting_structure
        from repro.core.private_trie import PrivateCountingTrie

        params = ConstructionParams.pure(2.0, beta=0.1)
        structure = build_private_counting_structure(small_db, params, rng=rng)
        payload = structure.to_dict()
        payload["metadata"].pop("count_backend", None)
        restored = PrivateCountingTrie.from_dict(payload)
        assert restored.metadata.count_backend == ""
        # The empty default is omitted on re-serialization, so digests of
        # pre-engine releases stay stable across the upgrade.
        assert "count_backend" not in restored.to_dict()["metadata"]


class TestConstructionBackendEquivalence:
    """Noiseless builds release exactly what every engine counts.

    Builds count with the sort-join counter of :mod:`repro.core.array_build`,
    not through the engine layer; with the noise off and ``threshold=1`` the
    released sets and values follow from the exact counts alone, so each
    backend is an independent oracle for them.
    """

    @pytest.mark.parametrize("backend", (AUTO_BACKEND,) + BACKENDS)
    def test_noiseless_candidate_sets_match(self, example_db, backend):
        from repro.core.candidate_set import build_candidate_set

        params = ConstructionParams.pure(1.0, beta=0.1, noiseless=True, threshold=1.0)
        candidates = build_candidate_set(example_db, params)
        ell = params.resolve_max_length(example_db.max_length)
        substrings = sorted(all_substrings(list(example_db)))
        counts = example_db.count_many(
            substrings, params.resolve_delta_cap(ell), backend=backend
        )
        frequent = [s for s, count in zip(substrings, counts) if count >= 1]
        # A count never grows as its string does, so P_{2^k} holds every
        # frequent string of length 2^k.
        levels = {
            length: [s for s in frequent if len(s) == length] for length in (1, 2, 4)
        }
        assert dict(candidates.levels) == levels

        def completed(m):
            power = 1 << (m.bit_length() - 1)
            overlap = 2 * power - m
            return sorted(
                {
                    left + right[overlap:]
                    for left in levels[power]
                    for right in levels[power]
                    if left[power - overlap :] == right[:overlap]
                }
            )

        assert dict(candidates.by_length) == {
            m: completed(m) for m in range(1, ell + 1)
        }
        for m in range(1, ell + 1):
            assert {s for s in frequent if len(s) == m} <= set(candidates.by_length[m])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_noiseless_structures_answer_identically(self, small_db, backend):
        from repro.core.construction import build_private_counting_structure

        params = ConstructionParams.pure(1.0, beta=0.1, noiseless=True, threshold=1.0)
        structure = build_private_counting_structure(
            small_db, params, rng=np.random.default_rng(0)
        )
        delta_cap = params.resolve_delta_cap(
            params.resolve_max_length(small_db.max_length)
        )
        substrings = sorted(all_substrings(list(small_db)))
        counts = small_db.count_many(substrings, delta_cap, backend=backend)
        assert dict(structure.items()) == dict(zip(substrings, counts.tolist()))
        probes = substrings + ["", "zz", "ababab"]
        assert np.array_equal(
            structure.query_many(probes),
            small_db.count_many(probes, delta_cap, backend=backend),
        )
