"""Tests for the binary columnar release format (``vNNNN.dpsb``).

The format's contract, end to end: a structure saved as binary round-trips
to bit-identical ``query_many`` answers and the *same* canonical content
digest as its JSON release (both directions); corrupted blobs — truncated
or bit-flipped — are rejected with a clear :class:`ReleaseFormatError`; a
crash mid-write leaves the prior version loadable; and an mmap'd compiled
trie satisfies the same immutability guarantee as an in-memory one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving._fsio as fsio
from repro.core.private_trie import PrivateCountingTrie, StructureMetadata
from repro.exceptions import ReleaseFormatError, ReproError
from repro.serving import ReleaseStore, binfmt


def make_structure(counts: dict[str, float]) -> PrivateCountingTrie:
    metadata = StructureMetadata(
        epsilon=2.0,
        delta=1e-6,
        beta=0.1,
        delta_cap=4,
        max_length=10,
        num_documents=20,
        alphabet_size=4,
        error_bound=3.0,
        threshold=1.0,
        construction="unit-test",
    )
    return PrivateCountingTrie.from_counts(counts, metadata, {"k": 2})


def probe_patterns(counts: dict[str, float]) -> list[str]:
    """Stored patterns, their prefixes/extensions, and guaranteed misses."""
    probes = list(counts) + [p + "x" for p in counts] + [p[:-1] for p in counts if p]
    probes += ["", "zz", "☃", "a" * 20]
    return probes


# Alphabet for the hypothesis structures: a few ASCII letters plus a
# non-BMP-boundary unicode character, so encoding paths are exercised.
_CHARS = st.sampled_from(list("abcdé"))
_PATTERNS = st.text(alphabet=_CHARS, min_size=1, max_size=6)
_COUNTS = st.dictionaries(
    _PATTERNS,
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    min_size=0,
    max_size=24,
)


class TestRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(counts=_COUNTS)
    def test_binary_round_trip_matches_json_path(self, counts, tmp_path_factory):
        """structure -> binary -> load is bit-identical to the JSON path:
        equal canonical digest and equal ``query_many`` answers."""
        tmp_path = tmp_path_factory.mktemp("roundtrip")
        structure = make_structure(counts)
        digest = structure.content_digest()
        path = tmp_path / "v0001.dpsb"
        binfmt.write_binary(path, structure)

        probes = probe_patterns(counts)
        expected = structure.query_many(probes)
        for mmap in (True, False):
            loaded = binfmt.read_binary(path, mmap=mmap, expected_digest=digest)
            assert loaded.content_digest() == digest
            answers = loaded.query_many(probes)
            assert np.array_equal(np.asarray(answers), np.asarray(expected))
            assert loaded.metadata == structure.metadata
            assert loaded.report == structure.report

    @settings(max_examples=15, deadline=None)
    @given(counts=_COUNTS)
    def test_store_formats_are_interchangeable(self, counts, tmp_path_factory):
        """Digest and query equivalence in both directions through the
        store: json->binary (migrate) and binary->json (load as objects)."""
        tmp_path = tmp_path_factory.mktemp("store")
        structure = make_structure(counts)
        digest = structure.content_digest()
        store = ReleaseStore(tmp_path / "store")
        json_record = store.save("demo", structure, format="json")
        binary_record = store.save("demo", structure, format="binary")
        assert json_record.digest == binary_record.digest == digest
        # binary -> objects -> canonical digest (the reverse direction).
        assert store.load("demo", binary_record.version).content_digest() == digest
        probes = probe_patterns(counts)
        json_answers = store.load_compiled(
            "demo", json_record.version
        ).query_many(probes)
        binary_answers = store.load_compiled(
            "demo", binary_record.version
        ).query_many(probes)
        assert np.array_equal(np.asarray(json_answers), np.asarray(binary_answers))


class TestCorruptionRejection:
    @pytest.fixture
    def blob(self, tmp_path) -> tuple[Path, PrivateCountingTrie]:
        structure = make_structure({"ab": 4.0, "abc": 2.0, "b": 1.0})
        path = tmp_path / "v0001.dpsb"
        binfmt.write_binary(path, structure)
        return path, structure

    def test_truncated_blob_rejected(self, blob):
        path, _ = blob
        raw = path.read_bytes()
        for keep in (len(raw) - 1, len(raw) // 2, 8, 0):
            path.write_bytes(raw[:keep])
            with pytest.raises(ReleaseFormatError, match="truncated|size mismatch"):
                binfmt.read_binary(path)

    def test_bad_magic_rejected(self, blob):
        path, _ = blob
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(ReleaseFormatError, match="magic"):
            binfmt.read_binary(path)

    def test_unsupported_version_rejected(self, blob):
        path, _ = blob
        raw = bytearray(path.read_bytes())
        raw[4:8] = (binfmt.FORMAT_VERSION + 1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ReleaseFormatError, match="version"):
            binfmt.read_binary(path)

    def test_bit_flip_rejected_everywhere(self, blob):
        """A single flipped bit anywhere in the blob is caught by *some*
        check (header parse, size, checksum or digest) on a verified full
        read — never silently served."""
        path, structure = blob
        raw = path.read_bytes()
        digest = structure.content_digest()
        rng = np.random.default_rng(5)
        positions = set(rng.integers(0, len(raw), size=48).tolist())
        positions.update({0, 5, 12, len(raw) - 1, len(raw) // 2})
        for position in positions:
            flipped = bytearray(raw)
            flipped[position] ^= 0x40
            path.write_bytes(bytes(flipped))
            with pytest.raises((ReleaseFormatError, ReproError)):
                loaded = binfmt.read_binary(
                    path, mmap=False, verify=True, expected_digest=digest
                )
                # Checksums catch the data section; the trailer and header
                # carry their own checks.  Nothing should reach here, but
                # if construction survived, the canonical digest must trip.
                if loaded.content_digest() != digest:
                    raise ReproError("content digest mismatch after bit flip")
        path.write_bytes(raw)
        binfmt.read_binary(path, mmap=False, verify=True, expected_digest=digest)

    def test_error_message_names_file_and_check(self, blob):
        path, _ = blob
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        with pytest.raises(ReleaseFormatError) as excinfo:
            binfmt.read_binary(path)
        assert str(path) in str(excinfo.value)


class TestCrashSafety:
    def test_kill_mid_write_leaves_prior_version_loadable(
        self, tmp_path, monkeypatch
    ):
        store = ReleaseStore(tmp_path / "store", format="binary")
        structure = make_structure({"ab": 4.0})
        record = store.save("demo", structure)
        index_before = (store.root / "index.json").read_text()

        real_replace = fsio.os.replace

        def crash_on_payload(src, dst):
            if str(dst).endswith(binfmt.BINARY_SUFFIX):
                raise OSError("simulated crash during atomic replace")
            return real_replace(src, dst)

        monkeypatch.setattr(fsio.os, "replace", crash_on_payload)
        with pytest.raises(OSError, match="simulated crash"):
            store.save("demo", structure)
        monkeypatch.undo()

        # The index never advanced and v1 still loads, digest-verified.
        assert (store.root / "index.json").read_text() == index_before
        reopened = ReleaseStore(store.root)
        assert reopened.versions("demo") == [1]
        loaded = reopened.load_compiled("demo", mmap=True, verify=True)
        assert loaded.content_digest() == record.digest
        # No half-written payload was published, only (possibly) tmp junk.
        assert sorted(
            p.name for p in (store.root / "demo").iterdir() if not p.name.startswith(".")
        ) == ["v0001.dpsb"]

    def test_kill_mid_migrate_keeps_json_loadable(self, tmp_path, monkeypatch):
        store = ReleaseStore(tmp_path / "store")
        structure = make_structure({"ab": 4.0, "b": 1.0})
        record = store.save("demo", structure, format="json")

        real_replace = fsio.os.replace

        def crash_on_binary(src, dst):
            if str(dst).endswith(binfmt.BINARY_SUFFIX):
                raise OSError("simulated crash during atomic replace")
            return real_replace(src, dst)

        monkeypatch.setattr(fsio.os, "replace", crash_on_binary)
        with pytest.raises(OSError, match="simulated crash"):
            store.migrate("demo")
        monkeypatch.undo()

        # The JSON payload is untouched, the index still says json.
        reopened = ReleaseStore(store.root)
        reloaded_record = reopened.list_releases()[0]
        assert reloaded_record.format == "json"
        assert Path(record.path).exists()
        assert reopened.load("demo").content_digest() == record.digest
        # And the interrupted migration completes cleanly on retry.
        migrated = reopened.migrate("demo")
        assert [r.format for r in migrated] == ["binary"]
        assert not Path(record.path).exists()


class TestMmapParity:
    def test_mmap_assert_immutable(self, tmp_path):
        structure = make_structure({"ab": 4.0, "abc": 2.0})
        path = tmp_path / "v0001.dpsb"
        binfmt.write_binary(path, structure)
        mapped = binfmt.read_binary(path, mmap=True)
        mapped.assert_immutable()  # fresh: no lazy views built yet
        mapped.query("ab")
        mapped.batch_query(["ab", "abc", "zz"])
        mapped.assert_immutable()  # after both lazy view families exist
        with pytest.raises(ValueError):
            mapped._counts[0] = 1.0
        with pytest.raises(ValueError):
            mapped._transitions[0] = 1

    def test_mmap_load_is_lazy(self, tmp_path):
        """An mmap load must not materialize the derived views eagerly —
        that laziness is what makes cold start O(header).  The first single
        query builds the dense table the batch path uses, and no per-node
        Python list."""
        structure = make_structure(
            {"ab": 4.0, "abc": 2.0, "ba": 1.0, "bca": 3.0, "cab": 5.0}
        )
        path = tmp_path / "v0001.dpsb"
        binfmt.write_binary(path, structure)
        mapped = binfmt.read_binary(path, mmap=True)
        lazy = mapped._lazy
        assert lazy.walk is None and lazy.counts_ext is None
        assert mapped.query("ab") == 4.0
        assert isinstance(lazy.transitions, np.ndarray)
        views = (lazy.transitions, lazy.counts_zero, lazy.counts_ext)
        assert all(view.obj is array for view, array in zip(lazy.walk, views))
        per_node_lists = [
            name
            for name, value in vars(mapped).items()
            if isinstance(value, list) and len(value) >= mapped.num_nodes
        ]
        assert per_node_lists == []


class TestStoreFormatDetails:
    def test_collision_scan_covers_both_extensions(self, tmp_path):
        """A binary vNNNN must never silently collide with a JSON vNNNN
        left on disk by a lost index (and vice versa)."""
        structure = make_structure({"a": 1.0})
        store = ReleaseStore(tmp_path / "store")
        store.save("demo", structure, format="json")      # v0001.json
        store.save("demo", structure, format="binary")    # v0002.dpsb
        (store.root / "index.json").unlink()
        fresh = ReleaseStore(store.root)
        record = fresh.save("demo", structure, format="binary")
        # A naive .json-only scan would have landed on v0002 and clobbered
        # the binary payload; both extensions must be skipped.
        assert record.version == 3
        assert sorted(p.name for p in (store.root / "demo").iterdir()) == [
            "v0001.json",
            "v0002.dpsb",
            "v0003.dpsb",
        ]

    def test_invalid_format_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="format"):
            ReleaseStore(tmp_path / "store", format="msgpack")
        store = ReleaseStore(tmp_path / "store")
        with pytest.raises(ReproError, match="format"):
            store.save("demo", make_structure({"a": 1.0}), format="msgpack")

    def test_index_records_format(self, tmp_path):
        store = ReleaseStore(tmp_path / "store")
        structure = make_structure({"a": 1.0})
        store.save("demo", structure, format="json")
        store.save("demo", structure)  # store default: auto -> binary
        index = json.loads((store.root / "index.json").read_text())
        versions = index["releases"]["demo"]["versions"]
        assert versions["1"]["format"] == "json"
        assert versions["2"]["format"] == "binary"
        formats = {r.version: r.format for r in store.list_releases()}
        assert formats == {1: "json", 2: "binary"}

    def test_migrate_noop_on_binary_store(self, tmp_path):
        store = ReleaseStore(tmp_path / "store", format="binary")
        store.save("demo", make_structure({"a": 1.0}))
        assert store.migrate() == []
