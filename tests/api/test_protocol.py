"""Every registered structure kind satisfies the PrivateCounter protocol,
builds through the fluent Dataset entry point, and round-trips through the
release store with identical answers."""

from __future__ import annotations

import gc
import types
from typing import Iterator

import numpy as np
import pytest

from repro.api import CorpusStream, Dataset, PrivateCounter, default_registry
from repro.core.private_trie import PrivateCountingTrie
from repro.serving import CompiledTrie, QueryService, ReleaseStore
from repro.strings.trie import TrieNode

DOCUMENTS = ["abab", "abba", "baba", "bbbb", "aabb"]

#: (kind, builder kwargs) for every kind in the default registry; the budget
#: carries delta > 0 so qgram-t4 builds, and noiseless + threshold 1 make
#: the structures deterministic and non-empty on the tiny fixture.  The
#: continual kind builds the same documents as a one-epoch stream — the
#: single-shot special case of the tree schedule.
KIND_KWARGS = {
    "heavy-path": {},
    "heavy-path-continual": {
        "stream": CorpusStream.from_epochs([DOCUMENTS]),
        "seed": 7,
    },
    "qgram-t3": {"q": 2},
    "qgram-t4": {"q": 2},
    "baseline": {"max_nodes": 500},
}


@pytest.fixture(scope="module")
def counters():
    dataset = (
        Dataset.from_documents(DOCUMENTS)
        .with_budget(2.0, 1e-6)
        .with_beta(0.1)
        .noiseless()
        .with_threshold(1.0)
    )
    return {
        kind: dataset.build(kind, rng=np.random.default_rng(7), **kwargs)
        for kind, kwargs in KIND_KWARGS.items()
    }


def test_fixture_covers_every_registered_kind():
    assert set(KIND_KWARGS) == set(default_registry().kinds())


@pytest.mark.parametrize("kind", sorted(KIND_KWARGS))
class TestProtocol:
    def test_satisfies_private_counter(self, counters, kind):
        assert isinstance(counters[kind], PrivateCounter)

    def test_stores_something(self, counters, kind):
        assert counters[kind].num_stored_patterns > 0

    def test_query_many_matches_query_loop(self, counters, kind):
        counter = counters[kind]
        patterns = [p for p, _ in counter.items()] + ["", "zz", "ab", "ba"]
        expected = np.array([counter.query(p) for p in patterns])
        assert np.array_equal(counter.query_many(patterns), expected)

    def test_payload_round_trip_preserves_queries(self, counters, kind):
        counter = counters[kind]
        clone = PrivateCountingTrie.from_payload(counter.to_payload())
        patterns = [p for p, _ in counter.items()] + ["", "zz"]
        for pattern in patterns:
            assert clone.query(pattern) == counter.query(pattern)

    def test_release_store_round_trip(self, counters, kind, tmp_path):
        counter = counters[kind]
        store = ReleaseStore(tmp_path / "store")
        record = counter.release(store, kind)
        assert record.version == 1
        loaded = store.load(kind)
        assert loaded.content_digest() == counter.content_digest()
        patterns = [p for p, _ in counter.items()] + ["", "zz"]
        assert np.array_equal(
            loaded.query_many(patterns), counter.query_many(patterns)
        )

    def test_serves_through_query_service(self, counters, kind):
        counter = counters[kind]
        service = QueryService({kind: counter}, micro_batch=False)
        patterns = [p for p, _ in counter.items()][:5] or ["ab"]
        assert service.batch(patterns, release=kind) == [
            counter.query(p) for p in patterns
        ]

    def test_mine_agrees_with_items(self, counters, kind):
        counter = counters[kind]
        mined = counter.mine(1.0)
        assert set(mined) <= set(counter.items())



def _reachable(root: object) -> Iterator[object]:
    """Every object reachable from ``root`` through ``gc.get_referents``,
    not following classes, modules or functions (program state every
    object reaches, not data the counter holds)."""
    shared = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen = {id(root)}
    stack = [root]
    while stack:
        obj = stack.pop()
        yield obj
        for referent in gc.get_referents(obj):
            if not isinstance(referent, shared) and id(referent) not in seen:
                seen.add(id(referent))
                stack.append(referent)


@pytest.mark.parametrize(
    "kind, backend",
    [(kind, "array") for kind in sorted(KIND_KWARGS)] + [("heavy-path", "object")],
)
def test_release_holds_no_exact_counts(kind, backend):
    """A built counter keeps the released noisy counts only: no candidate
    trie node, and so no exact count, is reachable from it."""
    counter = (
        Dataset.from_documents(DOCUMENTS)
        .with_budget(2.0, 1e-6)
        .with_beta(0.1)
        .noiseless()
        .with_threshold(1.0)
        .with_build_backend(backend)
        .build(kind, rng=np.random.default_rng(7), **KIND_KWARGS[kind])
    )
    assert counter.num_stored_patterns > 0
    reached = list(_reachable(counter))
    assert not [obj for obj in reached if isinstance(obj, TrieNode)]
    # the walk does reach the released counts
    assert any(isinstance(obj, np.ndarray) for obj in reached)


class TestCompiledCounter:
    def test_compiled_trie_is_the_counter_class(self, counters):
        assert CompiledTrie is PrivateCountingTrie
        assert isinstance(counters["heavy-path"], PrivateCounter)

    def test_compiled_from_payload_round_trip(self, counters):
        source = counters["qgram-t3"]
        compiled = CompiledTrie.from_payload(source.to_payload())
        patterns = [p for p, _ in source.items()] + ["", "zz"]
        assert np.array_equal(
            compiled.query_many(patterns), source.query_many(patterns)
        )

    def test_compiled_trie_releases_through_the_store(self, counters, tmp_path):
        """A compiled trie ships through the same ReleaseStore as its
        source, byte-identical (same JSON, same digest)."""
        source = counters["heavy-path"]
        compiled = CompiledTrie.from_payload(source.to_payload())
        assert compiled.content_digest() == source.content_digest()
        store = ReleaseStore(tmp_path / "store")
        record = compiled.release(store, "compiled")
        assert record.digest == source.content_digest()
        loaded = store.load("compiled")
        patterns = [p for p, _ in source.items()] + ["", "zz"]
        assert np.array_equal(
            loaded.query_many(patterns), compiled.query_many(patterns)
        )
