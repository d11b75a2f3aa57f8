"""Property tests: the object and array construction pipelines are
bit-identical.

``ConstructionParams.build_backend`` is a speed knob, nothing else: for any
documents, any structure kind, any seed and any budget flavour the two
pipelines must produce identical noisy counts, identical metadata and
report, identical prune sets and identical release digests — and they must
abort identically when a candidate level overflows.  These tests pin that
contract, plus the array primitives' own equivalences (sort-join counting
vs the engine layer, the flat heavy-path decomposition vs the object one,
the flat prefix-sum release vs the per-sequence one).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Dataset
from repro.core.array_build import SortJoinCounter, pack_strings
from repro.core.candidate_set import build_candidate_set
from repro.core.construction import build_private_counting_structure
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.core.private_trie import PrivateCountingTrie
from repro.core.qgram_structure import (
    theorem3_qgram_structure,
    theorem4_qgram_structure,
)
from repro.counting import make_engine
from repro.dp.mechanisms import GaussianMechanism, LaplaceMechanism
from repro.dp.prefix_sums import PrefixSumMechanism
from repro.exceptions import ConstructionAborted
from repro.strings.trie import Trie
from repro.trees.heavy_path import (
    FlatHeavyPathDecomposition,
    HeavyPathDecomposition,
)

DOCS = st.lists(st.text(alphabet="ab", min_size=1, max_size=8), min_size=1, max_size=6)
WIDE_DOCS = st.lists(
    st.text(alphabet="acé☃", min_size=1, max_size=7), min_size=1, max_size=5
)
SEEDS = st.integers(min_value=0, max_value=2**16)
BUDGETS = st.sampled_from(["noiseless", "pure", "approx"])


def base_params(budget: str) -> ConstructionParams:
    if budget == "noiseless":
        return ConstructionParams.pure(1.0, beta=0.1, noiseless=True, threshold=1.0)
    if budget == "pure":
        return ConstructionParams.pure(8.0, beta=0.1)
    return ConstructionParams.approximate(8.0, 1e-6, beta=0.1)


def run_both(build, params):
    """Run a builder under both backends; abort outcomes count as results."""
    outcomes = []
    for backend in ("object", "array"):
        try:
            outcomes.append(build(replace(params, build_backend=backend)))
        except ConstructionAborted as error:
            outcomes.append(("aborted", str(error), error.level))
    return outcomes


def assert_identical_structures(first, second) -> None:
    aborted = isinstance(first, tuple) or isinstance(second, tuple)
    if aborted:
        assert first == second
        return
    assert first.metadata == second.metadata
    assert first.report == second.report
    assert dict(first.items()) == dict(second.items())
    assert first.query("") == second.query("")
    assert first.content_digest() == second.content_digest()


class TestPipelineEquivalence:
    @given(DOCS, SEEDS, BUDGETS)
    @settings(max_examples=30, deadline=None)
    def test_heavy_path_bit_identical(self, docs, seed, budget):
        database = StringDatabase(docs)
        first, second = run_both(
            lambda params: build_private_counting_structure(
                database, params, rng=np.random.default_rng(seed)
            ),
            base_params(budget),
        )
        assert_identical_structures(first, second)

    @given(WIDE_DOCS, SEEDS, BUDGETS)
    @settings(max_examples=15, deadline=None)
    def test_heavy_path_bit_identical_wide_alphabet(self, docs, seed, budget):
        database = StringDatabase(docs)
        first, second = run_both(
            lambda params: build_private_counting_structure(
                database, params, rng=np.random.default_rng(seed)
            ),
            base_params(budget),
        )
        assert_identical_structures(first, second)

    @given(DOCS, SEEDS, BUDGETS, st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_qgram_t3_bit_identical(self, docs, seed, budget, q):
        database = StringDatabase(docs)
        q = min(q, database.max_length)
        first, second = run_both(
            lambda params: theorem3_qgram_structure(
                database, q, params, rng=np.random.default_rng(seed)
            ),
            base_params(budget),
        )
        assert_identical_structures(first, second)

    @given(DOCS, SEEDS, st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_qgram_t4_bit_identical(self, docs, seed, q):
        database = StringDatabase(docs)
        q = min(q, database.max_length)
        first, second = run_both(
            lambda params: theorem4_qgram_structure(
                database, q, params, rng=np.random.default_rng(seed)
            ),
            base_params("approx"),
        )
        assert_identical_structures(first, second)

    @given(DOCS, SEEDS, BUDGETS)
    @settings(max_examples=25, deadline=None)
    def test_candidate_sets_identical(self, docs, seed, budget):
        database = StringDatabase(docs)
        results = []
        for backend in ("object", "array"):
            params = replace(base_params(budget), build_backend=backend)
            try:
                results.append(
                    build_candidate_set(
                        database, params, rng=np.random.default_rng(seed)
                    )
                )
            except ConstructionAborted as error:
                results.append(("aborted", str(error), error.level))
        first, second = results
        if isinstance(first, tuple) or isinstance(second, tuple):
            assert first == second
            return
        assert first.levels == second.levels
        assert first.by_length == second.by_length
        assert first.noisy_counts == second.noisy_counts
        assert first.alpha == second.alpha
        assert first.threshold == second.threshold

    def test_dataset_backend_knob_round_trips(self, small_db):
        build = lambda backend: (  # noqa: E731 - tiny local factory
            Dataset.from_database(small_db)
            .with_budget(5.0)
            .with_beta(0.1)
            .with_build_backend(backend)
            .build("heavy-path", rng=np.random.default_rng(3))
        )
        array_counter = build("array")
        object_counter = build("object")
        assert array_counter.content_digest() == object_counter.content_digest()
        probes = object_counter.patterns() + ["", "ab", "zz"]
        assert np.array_equal(
            array_counter.query_many(probes), object_counter.query_many(probes)
        )

    def test_timings_are_diagnostics_not_payload(self, small_db, rng):
        params = ConstructionParams.pure(5.0, beta=0.1)
        structure = build_private_counting_structure(small_db, params, rng=rng)
        assert structure.profile is not None
        assert structure.profile.build_backend == "array"
        assert structure.profile.total_seconds > 0
        assert "candidates" in structure.profile.stages()
        payload = structure.to_dict()
        assert "construction_seconds" not in payload["report"]
        assert "timings" not in payload
        assert "profile" not in payload

    def test_array_build_matches_its_payload_rebuild(self, small_db):
        """The array pipeline's counter and the one the pattern -> count
        factory rebuilds from its payload share one layout, column for
        column — every producer of the single counter class agrees."""
        params = ConstructionParams.pure(5.0, beta=0.1, build_backend="array")
        structure = build_private_counting_structure(
            small_db, params, rng=np.random.default_rng(9)
        )
        structure.assert_immutable()
        rebuilt = PrivateCountingTrie.from_payload(structure.to_payload())
        for name, column in structure.arrays().items():
            assert np.array_equal(rebuilt.arrays()[name], column), name
        assert rebuilt._vocab == structure._vocab
        assert rebuilt.content_digest() == structure.content_digest()


class TestArrayPrimitives:
    @given(DOCS, st.integers(min_value=1, max_value=5), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_sortjoin_counts_match_engines(self, docs, width, delta_cap):
        database = StringDatabase(docs)
        counter = SortJoinCounter(database)
        rng = np.random.default_rng(width * 31 + delta_cap)
        patterns = ["".join(rng.choice(list("ab"), size=width)) for _ in range(12)]
        patterns += [doc[:width] for doc in docs if len(doc) >= width]
        matrix, _ = pack_strings(patterns)
        got = counter.counts(matrix, delta_cap)
        expected = make_engine("naive", database.documents).count_many(
            patterns, delta_cap
        )
        assert np.array_equal(got, expected)

    @given(DOCS)
    @settings(max_examples=30, deadline=None)
    def test_flat_decomposition_matches_object(self, docs):
        trie = Trie(docs)
        object_decomposition = HeavyPathDecomposition(
            trie.root, lambda node: list(node.children.values())
        )
        order = [trie.root]
        ids = {id(trie.root): 0}
        for node in order:
            for child in node.children.values():
                ids[id(child)] = len(order)
                order.append(child)
        # Depth-major BFS ids with dict-order siblings, as the radix build
        # lays them out.
        parents = np.array(
            [-1 if nd.parent is None else ids[id(nd.parent)] for nd in order]
        )
        depths = np.array([nd.depth for nd in order])
        children: list[int] = []
        child_start = np.zeros(len(order), dtype=np.int64)
        child_end = np.zeros(len(order), dtype=np.int64)
        for index, node in enumerate(order):
            child_start[index] = len(children)
            children.extend(ids[id(child)] for child in node.children.values())
            child_end[index] = len(children)
        flat = FlatHeavyPathDecomposition(
            parents, depths, child_start, child_end, np.array(children, dtype=np.int64)
        )
        assert flat.num_paths == object_decomposition.num_paths
        assert [ids[id(path.root)] for path in object_decomposition.paths] == (
            flat.path_start.tolist()
        )
        for path in object_decomposition.paths:
            lo = flat.path_offsets[path.index]
            hi = flat.path_offsets[path.index + 1]
            assert [ids[id(node)] for node in path.nodes] == (
                flat.path_nodes[lo:hi].tolist()
            )
        for node in order:
            assert (
                object_decomposition.subtree_size[node]
                == flat.subtree_size[ids[id(node)]]
            )

    @pytest.mark.parametrize(
        "mechanism",
        [LaplaceMechanism(0.5), GaussianMechanism(0.5, 1e-6)],
        ids=["laplace", "gaussian"],
    )
    @given(
        st.lists(
            st.lists(
                st.floats(-1e4, 1e4, allow_nan=False), min_size=0, max_size=24
            ),
            min_size=0,
            max_size=8,
        ),
        SEEDS,
    )
    @settings(max_examples=40, deadline=None)
    def test_flat_prefix_release_bit_identical(self, mechanism, sequences, seed):
        max_length = max([len(seq) for seq in sequences] + [1])
        prefix = PrefixSumMechanism(
            mechanism,
            total_l1_sensitivity=4.0,
            per_sequence_l1_sensitivity=2.0,
            max_length=max_length,
        )
        reference = prefix.release_many(sequences, np.random.default_rng(seed))
        flat = (
            np.concatenate([np.asarray(s, dtype=np.float64) for s in sequences])
            if sequences
            else np.zeros(0)
        )
        offsets = np.concatenate(
            ([0], np.cumsum([len(s) for s in sequences]))
        ).astype(np.int64)
        got = prefix.release_many_flat(flat, offsets, np.random.default_rng(seed))
        expected = (
            np.concatenate([noisy.values for noisy in reference])
            if sequences
            else np.zeros(0)
        )
        assert np.array_equal(expected, got)
