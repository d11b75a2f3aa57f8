"""Tests for the versioned release store."""

from __future__ import annotations

import pytest

from repro.core.private_trie import PrivateCountingTrie, StructureMetadata
from repro.exceptions import ReleaseNotFoundError, ReproError
from repro.serving import ReleaseStore


def make_structure(counts: dict[str, float], epsilon: float = 1.0) -> PrivateCountingTrie:
    metadata = StructureMetadata(
        epsilon=epsilon,
        delta=0.0,
        beta=0.1,
        delta_cap=5,
        max_length=8,
        num_documents=10,
        alphabet_size=3,
        error_bound=2.0,
        threshold=4.0,
        construction="unit-test",
    )
    return PrivateCountingTrie.from_counts(counts, metadata, {"k": 1})


@pytest.fixture
def store(tmp_path) -> ReleaseStore:
    return ReleaseStore(tmp_path / "store")


class TestSaveLoad:
    def test_roundtrip(self, store):
        structure = make_structure({"ab": 4.0, "ba": 2.5})
        record = store.save("demo", structure)
        assert record.name == "demo"
        assert record.version == 1
        assert record.num_patterns == 2
        assert record.digest == structure.content_digest()
        loaded = store.load("demo")
        assert dict(loaded.items()) == dict(structure.items())
        assert loaded.metadata == structure.metadata
        assert loaded.report == structure.report

    def test_versions_increment(self, store):
        store.save("demo", make_structure({"a": 1.0}))
        store.save("demo", make_structure({"a": 2.0}))
        record = store.save("demo", make_structure({"a": 3.0}))
        assert record.version == 3
        assert store.versions("demo") == [1, 2, 3]
        assert store.load("demo").query("a") == 3.0
        assert store.load("demo", version=1).query("a") == 1.0

    def test_multiple_names(self, store):
        store.save("one", make_structure({"a": 1.0}))
        store.save("two", make_structure({"b": 2.0}))
        assert store.names() == ["one", "two"]
        records = store.list_releases()
        assert [(r.name, r.version) for r in records] == [("one", 1), ("two", 1)]

    def test_invalid_names_rejected(self, store):
        for name in ("", "a/b", ".hidden"):
            with pytest.raises(ReproError):
                store.save(name, make_structure({"a": 1.0}))

    def test_unknown_release_raises(self, store):
        with pytest.raises(ReleaseNotFoundError):
            store.load("missing")
        with pytest.raises(ReleaseNotFoundError):
            store.versions("missing")

    def test_unknown_version_raises(self, store):
        store.save("demo", make_structure({"a": 1.0}))
        with pytest.raises(ReleaseNotFoundError):
            store.load("demo", version=9)


class TestPinning:
    def test_pin_selects_default_version(self, store):
        store.save("demo", make_structure({"a": 1.0}))
        store.save("demo", make_structure({"a": 2.0}))
        assert store.resolve_version("demo") == 2
        store.pin("demo", 1)
        assert store.resolve_version("demo") == 1
        assert store.load("demo").query("a") == 1.0
        # An explicit version still beats the pin.
        assert store.load("demo", version=2).query("a") == 2.0

    def test_unpin_restores_latest(self, store):
        store.save("demo", make_structure({"a": 1.0}))
        store.save("demo", make_structure({"a": 2.0}))
        store.pin("demo", 1)
        store.unpin("demo")
        assert store.resolve_version("demo") == 2

    def test_pin_unknown_version_raises(self, store):
        store.save("demo", make_structure({"a": 1.0}))
        with pytest.raises(ReleaseNotFoundError):
            store.pin("demo", 7)

    def test_pin_flag_in_records(self, store):
        store.save("demo", make_structure({"a": 1.0}))
        store.save("demo", make_structure({"a": 2.0}))
        store.pin("demo", 1)
        pinned = {r.version: r.pinned for r in store.list_releases()}
        assert pinned == {1: True, 2: False}


class TestDurability:
    def test_index_survives_reopen(self, store, tmp_path):
        store.save("demo", make_structure({"a": 1.0}))
        store.save("demo", make_structure({"a": 2.0}))
        store.pin("demo", 1)
        reopened = ReleaseStore(store.root)
        assert reopened.versions("demo") == [1, 2]
        assert reopened.resolve_version("demo") == 1
        assert reopened.load("demo").query("a") == 1.0

    @pytest.mark.parametrize("payload_format", ["json", "binary"])
    def test_tampered_file_fails_digest_check(self, store, payload_format):
        structure = make_structure({"ab": 4.0})
        record = store.save("demo", structure, format=payload_format)
        from pathlib import Path

        path = Path(record.path)
        if payload_format == "json":
            path.write_text(path.read_text().replace("4.0", "9.0"))
        else:
            raw = bytearray(path.read_bytes())
            raw[-20] ^= 0x01  # single bit flip near the end of the blob
            path.write_bytes(bytes(raw))
        with pytest.raises(ReproError, match="digest|checksum"):
            store.load("demo")

    def test_describe_is_json_friendly(self, store):
        import json

        store.save("demo", make_structure({"a": 1.0}))
        payload = json.dumps(store.describe())
        assert "demo" in payload
