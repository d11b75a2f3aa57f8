"""Round-trip property tests for PrivateCountingTrie JSON serialization.

The release store (repro.serving.store) persists structures as JSON and
promises that a reloaded release answers *identical* queries.  These tests
exercise that contract over many randomized structures: random pattern sets,
adversarial characters, extreme counts, and real (noisy and noiseless)
constructions — save -> load must preserve every query, the metadata, the
report, and the content digest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.construction import build_private_counting_structure
from repro.core.params import ConstructionParams
from repro.core.private_trie import PrivateCountingTrie, StructureMetadata

ALPHABETS = ["ab", "acgt", "0123456789", "aé☃b"]


def random_structure(rng: np.random.Generator, alphabet: str) -> PrivateCountingTrie:
    """A structure over ``alphabet`` with random patterns and counts."""
    counts: dict[str, float] = {}
    num_patterns = int(rng.integers(0, 40))
    for _ in range(num_patterns):
        length = int(rng.integers(1, 9))
        pattern = "".join(rng.choice(list(alphabet), size=length))
        # Counts include negatives, huge values and non-round floats, all of
        # which a noisy release can legitimately contain.
        counts[pattern] = float(rng.normal(0.0, 10.0 ** rng.integers(0, 7)))
    metadata = StructureMetadata(
        epsilon=float(rng.uniform(0.1, 50.0)),
        delta=float(rng.choice([0.0, 1e-6, 1e-9])),
        beta=float(rng.uniform(0.01, 0.5)),
        delta_cap=int(rng.integers(1, 20)),
        max_length=int(rng.integers(1, 30)),
        num_documents=int(rng.integers(1, 10_000)),
        alphabet_size=len(alphabet),
        error_bound=float(rng.uniform(0.0, 1e4)),
        threshold=float(rng.uniform(0.0, 1e4)),
        qgram_length=int(rng.integers(1, 8)) if rng.random() < 0.5 else None,
        construction=str(rng.choice(["thm1", "thm2", ""])),
    )
    report = {"absent_pattern_bound": float(rng.uniform(0.0, 1e4))}
    return PrivateCountingTrie.from_counts(counts, metadata, report)


def probe_patterns(
    structure: PrivateCountingTrie, rng: np.random.Generator, alphabet: str
) -> list[str]:
    """Stored patterns, their prefixes/extensions, and random misses."""
    stored = structure.patterns()
    probes = list(stored)
    probes += [p[: len(p) // 2] for p in stored]
    probes += [p + alphabet[0] for p in stored]
    probes.append("")
    chars = list(alphabet + "zZ?")
    for _ in range(20):
        length = int(rng.integers(0, 10))
        probes.append("".join(str(c) for c in rng.choice(chars, size=length)))
    return probes


def assert_identical(
    original: PrivateCountingTrie,
    restored: PrivateCountingTrie,
    probes: list[str],
) -> None:
    assert restored.metadata == original.metadata
    assert restored.report == original.report
    assert dict(restored.items()) == dict(original.items())
    for pattern in probes:
        assert restored.query(pattern) == original.query(pattern), pattern
        assert (pattern in restored) == (pattern in original), pattern
    assert restored.mine(original.metadata.threshold) == original.mine(
        original.metadata.threshold
    )


class TestRandomizedRoundTrips:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("alphabet", ALPHABETS)
    def test_json_roundtrip_preserves_queries(self, seed, alphabet):
        rng = np.random.default_rng(seed)
        structure = random_structure(rng, alphabet)
        restored = PrivateCountingTrie.from_json(structure.to_json())
        assert_identical(structure, restored, probe_patterns(structure, rng, alphabet))

    @pytest.mark.parametrize("seed", range(5))
    def test_save_load_roundtrip(self, seed, tmp_path):
        rng = np.random.default_rng(100 + seed)
        alphabet = ALPHABETS[seed % len(ALPHABETS)]
        structure = random_structure(rng, alphabet)
        path = structure.save(tmp_path / f"release_{seed}.json")
        restored = PrivateCountingTrie.load(path)
        assert_identical(structure, restored, probe_patterns(structure, rng, alphabet))

    @pytest.mark.parametrize("seed", range(5))
    def test_digest_is_stable_across_roundtrip(self, seed):
        rng = np.random.default_rng(200 + seed)
        structure = random_structure(rng, "acgt")
        restored = PrivateCountingTrie.from_json(structure.to_json())
        assert restored.content_digest() == structure.content_digest()
        # Serialization is canonical: dumping twice gives the same bytes.
        assert structure.to_json() == structure.to_json()

    def test_double_roundtrip_is_fixed_point(self):
        rng = np.random.default_rng(7)
        structure = random_structure(rng, "acgt")
        once = PrivateCountingTrie.from_json(structure.to_json())
        twice = PrivateCountingTrie.from_json(once.to_json())
        assert once.to_json() == twice.to_json()


class TestConstructedRoundTrips:
    def test_noisy_construction_roundtrip(self, small_db, rng):
        params = ConstructionParams.pure(5.0, beta=0.1)
        structure = build_private_counting_structure(small_db, params, rng=rng)
        restored = PrivateCountingTrie.from_json(structure.to_json())
        probes = structure.patterns() + ["", "ab", "ba", "zzzz", "abababab"]
        assert_identical(structure, restored, probes)

    def test_noiseless_construction_roundtrip(self, example_db, rng, tmp_path):
        params = ConstructionParams.pure(2.0, beta=0.1, noiseless=True, threshold=1.0)
        structure = build_private_counting_structure(example_db, params, rng=rng)
        restored = PrivateCountingTrie.load(structure.save(tmp_path / "r.json"))
        probes = structure.patterns() + ["", "be", "bee", "nope"]
        assert_identical(structure, restored, probes)

    def test_root_count_survives_roundtrip(self, small_db, rng):
        # Constructions store a noisy count on the root (the empty pattern);
        # serialization must not silently drop it.
        params = ConstructionParams.pure(5.0, beta=0.1)
        structure = build_private_counting_structure(small_db, params, rng=rng)
        assert structure.query("") != 0.0
        restored = PrivateCountingTrie.from_json(structure.to_json())
        assert restored.query("") == structure.query("")

    def test_compiled_view_of_reloaded_structure_matches(self, small_db, rng):
        # store -> load -> compile is the serving path; end-to-end parity.
        params = ConstructionParams.pure(5.0, beta=0.1)
        structure = build_private_counting_structure(small_db, params, rng=rng)
        restored = PrivateCountingTrie.from_json(structure.to_json())
        compiled = restored
        probes = structure.patterns() + ["", "ab", "zz"]
        for pattern in probes:
            assert compiled.query(pattern) == structure.query(pattern)
