"""Tests for repro.core.private_trie."""

from __future__ import annotations

import pytest

from repro.core.private_trie import PrivateCountingTrie, StructureMetadata


def make_structure(counts: dict[str, float], **metadata_overrides) -> PrivateCountingTrie:
    metadata = StructureMetadata(
        epsilon=1.0,
        delta=0.0,
        beta=0.1,
        delta_cap=5,
        max_length=5,
        num_documents=10,
        alphabet_size=3,
        error_bound=metadata_overrides.pop("error_bound", 2.0),
        threshold=metadata_overrides.pop("threshold", 4.0),
        **metadata_overrides,
    )
    return PrivateCountingTrie.from_counts(counts, metadata)


class TestQueries:
    def test_query_present_and_absent(self):
        structure = make_structure({"ab": 7.5, "abc": 3.0})
        assert structure.query("ab") == 7.5
        assert structure.query("abc") == 3.0
        assert structure.query("zz") == 0.0
        assert "ab" in structure
        assert "zz" not in structure

    def test_intermediate_nodes_without_counts_are_absent(self):
        structure = make_structure({"abc": 3.0})
        # "a" and "ab" exist as trie nodes but carry no stored count.
        assert structure.query("ab") == 0.0
        assert "ab" not in structure

    def test_items_and_patterns(self):
        structure = make_structure({"a": 1.0, "b": 2.0})
        assert dict(structure.items()) == {"a": 1.0, "b": 2.0}
        assert sorted(structure.patterns()) == ["a", "b"]
        assert structure.num_stored_patterns == 2

    def test_depth_and_num_nodes(self):
        structure = make_structure({"abcd": 1.0})
        assert structure.depth() == 4
        assert structure.num_nodes == 5


class TestMining:
    def test_threshold_filtering(self):
        structure = make_structure({"a": 10.0, "ab": 6.0, "b": 1.0})
        mined = structure.mine(5.0)
        assert [pattern for pattern, _ in mined] == ["a", "ab"]

    def test_length_filters(self):
        structure = make_structure({"a": 10.0, "ab": 10.0, "abc": 10.0})
        assert [p for p, _ in structure.mine(1.0, min_length=2)] == ["ab", "abc"]
        assert [p for p, _ in structure.mine(1.0, max_length=1)] == ["a"]
        assert [p for p, _ in structure.mine(1.0, exact_length=2)] == ["ab"]

    def test_results_sorted_by_count_then_pattern(self):
        structure = make_structure({"x": 5.0, "a": 5.0, "b": 9.0})
        mined = structure.mine(1.0)
        assert mined[0][0] == "b"
        assert [p for p, _ in mined[1:]] == ["a", "x"]

    def test_mining_alpha_accounts_for_absent_patterns(self):
        structure = make_structure({"a": 10.0})
        structure.report["absent_pattern_bound"] = 9.0
        assert structure.mining_alpha(threshold=2.0) == pytest.approx(7.0)
        assert structure.mining_alpha(threshold=20.0) == pytest.approx(2.0)


class TestSerialization:
    def test_roundtrip_dict(self):
        structure = make_structure({"ab": 4.0, "ba": 2.5})
        structure.report["candidate_size"] = 17
        payload = structure.to_dict()
        restored = PrivateCountingTrie.from_dict(payload)
        assert dict(restored.items()) == dict(structure.items())
        assert restored.metadata == structure.metadata
        assert restored.report["candidate_size"] == 17

    def test_roundtrip_json(self):
        structure = make_structure({"ab": 4.0})
        restored = PrivateCountingTrie.from_json(structure.to_json())
        assert restored.query("ab") == 4.0

    def test_metadata_properties(self):
        structure = make_structure({"a": 1.0})
        assert structure.error_bound == 2.0
        assert structure.privacy_budget.epsilon == 1.0
        assert structure.privacy_budget.is_pure


class TestSaveLoad:
    def _structure(self):
        metadata = StructureMetadata(
            epsilon=1.0,
            delta=0.0,
            beta=0.1,
            delta_cap=5,
            max_length=5,
            num_documents=6,
            alphabet_size=4,
            error_bound=3.0,
            threshold=6.0,
            construction="unit-test",
        )
        counts = {"ab": 4.5, "abe": 1.2, "b": 7.0}
        return PrivateCountingTrie.from_counts(counts, metadata, {"k": 1})

    def test_save_and_load_roundtrip(self, tmp_path):
        structure = self._structure()
        path = structure.save(tmp_path / "release.json")
        assert path.exists()
        restored = PrivateCountingTrie.load(path)
        assert restored.metadata == structure.metadata
        assert dict(restored.items()) == dict(structure.items())
        assert restored.report == structure.report

    def test_save_accepts_string_paths(self, tmp_path):
        structure = self._structure()
        path = structure.save(str(tmp_path / "release.json"))
        assert PrivateCountingTrie.load(str(path)).query("ab") == 4.5
