"""Tests for the append-only corpus stream and the continual structure kind.

The api-layer guarantees: the stream freezes its public parameters at the
first epoch (every interval build must see identical metadata); the
``heavy-path-continual`` kind combines one base structure per dyadic
cover interval deterministically (digest-stable under replay, exactly one
fresh build per epoch with a cache); and ``Dataset.from_stream`` plugs
the stream into the registry contract without special-casing callers.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.api import CorpusStream, Dataset, build_continual_structure, default_registry
from repro.api.continual import continual_interval_structures
from repro.core.params import ConstructionParams
from repro.dp.composition import PrivacyBudget
from repro.exceptions import InvalidDocumentError, ReproError

EPOCHS = (
    ("abab", "abba"),
    ("baba",),
    ("aabb", "bbaa"),
    ("abab", "bbbb"),
)


@pytest.fixture
def stream():
    return CorpusStream.from_epochs(EPOCHS, name="demo")


@pytest.fixture
def params():
    return ConstructionParams(budget=PrivacyBudget(2.0), beta=0.1)


class TestCorpusStream:
    def test_append_returns_epoch_numbers(self):
        stream = CorpusStream(name="s")
        assert stream.append_epoch(("ab",)) == 1
        assert stream.append_epoch(("ba",)) == 2
        assert stream.num_epochs == 2 and stream.num_documents == 2

    def test_empty_epochs_are_rejected(self):
        stream = CorpusStream(name="s")
        with pytest.raises(InvalidDocumentError):
            stream.append_epoch(())

    def test_public_parameters_freeze_at_first_epoch(self):
        stream = CorpusStream(name="s")
        stream.append_epoch(("abab",))
        assert stream.max_length == 4
        with pytest.raises(InvalidDocumentError):
            stream.append_epoch(("abcab",))  # 'c' outside the frozen alphabet
        with pytest.raises(InvalidDocumentError):
            stream.append_epoch(("aaaaa",))  # longer than the frozen bound

    def test_dyadic_slicing(self, stream):
        assert stream.documents_in(0, 2) == ["abab", "abba", "baba"]
        assert stream.documents_in(2, 3) == ["aabb", "bbaa"]
        assert stream.epoch_documents(2) == ("baba",)
        assert len(stream.full_database()) == 7
        with pytest.raises(ReproError):
            stream.documents_in(0, 9)
        with pytest.raises(ReproError):
            stream.epoch_documents(5)

    def test_interval_databases_share_public_metadata(self, stream):
        full = stream.full_database()
        part = stream.database_for(2, 3)
        assert part.alphabet.symbols == full.alphabet.symbols
        assert part.max_length == full.max_length

    def test_empty_stream_has_no_database(self):
        with pytest.raises(ReproError):
            CorpusStream(name="s").full_database()


class TestContinualKind:
    def test_registered_and_requires_stream(self):
        kind = default_registry().get("heavy-path-continual")
        assert "stream" in kind.requires
        with pytest.raises(ReproError, match="requires keyword"):
            default_registry().build(
                "heavy-path-continual",
                None,
                ConstructionParams(budget=PrivacyBudget(1.0), beta=0.1),
            )

    def test_one_interval_build_per_epoch_with_cache(self, stream, params):
        cache = {}
        continual_interval_structures(stream, params, epoch=3, cache=cache)
        assert set(cache) == {(0, 2), (2, 3)}
        built_before = dict(cache)
        continual_interval_structures(stream, params, epoch=4, cache=cache)
        assert set(cache) == {(0, 2), (2, 3), (0, 4)}
        # Previously built intervals were reused, not rebuilt.
        assert all(cache[key] is built_before[key] for key in built_before)

    def test_cannot_recurse_into_itself(self, stream, params):
        with pytest.raises(ReproError, match="recurse"):
            continual_interval_structures(
                stream, params, epoch=1, base_kind="heavy-path-continual"
            )

    def test_epoch_must_have_arrived(self, stream, params):
        with pytest.raises(ReproError, match="not yet in stream"):
            build_continual_structure(stream, params, epoch=9)

    def test_combined_counts_are_cover_sums(self, stream, params):
        cache = {}
        combined = build_continual_structure(stream, params, epoch=3, cache=cache)
        parts = [cache[key] for key in ((0, 2), (2, 3))]
        for pattern, count in combined.items():
            expected = sum(dict(part.items()).get(pattern, 0.0) for part in parts)
            assert count == pytest.approx(expected)

    def test_digest_stable_under_replay(self, stream, params):
        first = build_continual_structure(stream, params, epoch=4, seed=5)
        second = build_continual_structure(stream, params, epoch=4, seed=5)
        third = build_continual_structure(stream, params, epoch=4, seed=6)
        assert first.content_digest() == second.content_digest()
        assert first.content_digest() != third.content_digest()

    def test_report_documents_the_cover(self, stream, params):
        structure = build_continual_structure(stream, params, epoch=3)
        assert structure.report["cover"] == [[0, 2], [2, 3]]
        assert structure.report["levels_used"] == 2
        assert set(structure.report["interval_digests"]) == {"0:2", "2:3"}


class TestContinualBound:
    """The combined release's advertised bound holds against exact counts:
    Document Count over {A, C}, 8 epochs of 200 random length-4 documents,
    every pattern up to length 4, stored or absent."""

    PATTERNS = ["".join(p) for n in range(1, 5) for p in itertools.product("AC", repeat=n)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_error_within_the_advertised_bound(self, seed):
        params = ConstructionParams.pure(8.0, beta=0.05).for_document_count()
        rng = np.random.default_rng(seed)
        stream = CorpusStream(name="bound")
        documents: list[str] = []
        cache = {}
        releases = []
        for epoch in range(1, 9):
            batch = ["".join(row) for row in rng.choice(["A", "C"], size=(200, 4))]
            stream.append_epoch(batch)
            documents += batch
            release = build_continual_structure(
                stream, params, epoch=epoch, seed=seed, cache=cache
            )
            exact = {p: sum(p in document for document in documents) for p in self.PATTERNS}
            releases.append((epoch, release, exact))
        for epoch, release, exact in releases:
            bound = release.metadata.error_bound
            for pattern, count in release.items():
                assert abs(count - exact[pattern]) <= bound, (epoch, pattern)
        for epoch, release, exact in releases:
            absent = release.report["absent_pattern_bound"]
            assert absent == release.metadata.error_bound
            for pattern in self.PATTERNS:
                assert abs(release.query(pattern) - exact[pattern]) <= absent, (epoch, pattern)
            cover = release.report["cover"]
            assert release.metadata.beta == pytest.approx(0.05 * len(cover))


class TestDatasetFromStream:
    def test_builds_latest_epoch_without_stream_keyword(self, stream, params):
        counter = Dataset.from_stream(stream).with_params(params).build(
            "heavy-path-continual"
        )
        assert counter.metadata.epsilon == pytest.approx(
            stream.num_epochs.bit_length() * params.budget.epsilon
        )
        direct = build_continual_structure(stream, params)
        assert counter.content_digest() == direct.content_digest()

    def test_single_shot_kinds_still_work_on_the_snapshot(self, stream, params):
        counter = Dataset.from_stream(stream).with_params(params).build("baseline")
        assert counter.metadata.num_documents == stream.num_documents
