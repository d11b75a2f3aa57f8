"""Property tests: the array construction pipeline is bit-identical to the
linked-object reference pipeline (:mod:`repro.core.reference`).

For any documents, any seed and any budget flavour the production build
and the reference must produce identical noisy counts, identical metadata
and report, identical prune sets and identical release digests — and they
must abort identically when a candidate level overflows.  The candidate
stage is compared alone as well, in both call shapes (the heavy-path one and
the q-gram one).  These tests pin that contract, plus the array
primitives' own equivalences (sort-join counting vs the engine layer, the
flat heavy-path decomposition vs the object one, the flat prefix-sum
release vs the per-sequence one).
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import construction
from repro.core.array_build import SortJoinCounter, pack_strings
from repro.core.candidate_set import build_candidate_set
from repro.core.construction import build_private_counting_structure
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.core.private_trie import PrivateCountingTrie
from repro.core.reference import (
    reference_candidate_set,
    reference_counting_structure,
)
from repro.counting import make_engine
from repro.dp import prefix_sums
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
#: up to five children per node: light children on both sides of the heavy
#: one, and several light siblings per node
BUSHY_DOCS = st.lists(
    st.text(alphabet="abcde", min_size=1, max_size=6), min_size=1, max_size=12
)
SEEDS = st.integers(min_value=0, max_value=2**16)
#: The noisy flavours also run at threshold 1: on corpora this small the
#: default threshold (2 alpha) prunes most builds to the bare root, while the
#: override keeps real noise on nontrivial tries and lets levels overflow.
BUDGETS = st.sampled_from(
    ["noiseless", "pure", "approx", "pure tau=1", "approx tau=1"]
)


#: ``None`` keeps the production block sizes.
BLOCK_SIZES = (None, 1, 3)


@contextmanager
def block_sizes(block: int | None):
    """Run the array pipeline's blocked passes (prefix-sum release, root +
    prefix-sum combine) in blocks of ``block``."""
    if block is None:
        yield
        return
    with mock.patch.object(prefix_sums, "RELEASE_BLOCK", block), mock.patch.object(
        construction, "COMBINE_BLOCK", block
    ):
        yield


def base_params(budget: str) -> ConstructionParams:
    if budget == "noiseless":
        return ConstructionParams.pure(1.0, beta=0.1, noiseless=True, threshold=1.0)
    threshold = 1.0 if budget.endswith("tau=1") else None
    if budget.startswith("pure"):
        return ConstructionParams.pure(8.0, beta=0.1, threshold=threshold)
    return ConstructionParams.approximate(8.0, 1e-6, beta=0.1, threshold=threshold)


def run_both(reference, production, *args, seed, **kwargs):
    """Run the reference and the production builder on the same arguments,
    each from a fresh rng seeded with ``seed``; abort outcomes count as
    results."""
    outcomes = []
    for build in (reference, production):
        try:
            outcomes.append(build(*args, rng=np.random.default_rng(seed), **kwargs))
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
    @example(docs=["abbaab"], seed=11457, budget="pure tau=1")  # aborts at P_4
    @example(docs=["babbaabb"], seed=33057, budget="approx tau=1")  # aborts at P_8
    @settings(max_examples=50, deadline=None)
    def test_heavy_path_bit_identical(self, docs, seed, budget):
        """Identical at the production block sizes and at blocks of 1 and
        3, so release and combine blocks end mid-trie."""
        database = StringDatabase(docs)
        for block in BLOCK_SIZES:
            with block_sizes(block):
                first, second = run_both(
                    reference_counting_structure,
                    build_private_counting_structure,
                    database,
                    base_params(budget),
                    seed=seed,
                )
            assert_identical_structures(first, second)

    @given(WIDE_DOCS, SEEDS, BUDGETS)
    @settings(max_examples=25, deadline=None)
    def test_heavy_path_bit_identical_wide_alphabet(self, docs, seed, budget):
        database = StringDatabase(docs)
        first, second = run_both(
            reference_counting_structure,
            build_private_counting_structure,
            database,
            base_params(budget),
            seed=seed,
        )
        assert_identical_structures(first, second)

    @given(DOCS, SEEDS, BUDGETS, st.one_of(st.none(), st.integers(1, 4)))
    @settings(max_examples=60, deadline=None)
    def test_candidate_sets_identical(self, docs, seed, budget, q):
        """``q=None`` is the heavy-path call; otherwise the q-gram one
        (doubling up to ``q``, completing ``C_q`` only, on a budget
        share)."""
        database = StringDatabase(docs)
        params = base_params(budget)
        shape = {}
        if q is not None:
            q = min(q, database.max_length)
            shape = {
                "doubling_limit": q,
                "lengths": [q],
                "budget": params.budget.split(2),
            }
        first, second = run_both(
            reference_candidate_set,
            build_candidate_set,
            database,
            params,
            seed=seed,
            **shape,
        )
        if isinstance(first, tuple) or isinstance(second, tuple):
            assert first == second
            return
        assert first.levels == second.levels
        assert first.by_length == second.by_length
        assert first.size == second.size
        assert first.alpha == second.alpha
        assert first.threshold == second.threshold
        assert first.accountant.records == second.accountant.records

    def test_timings_are_diagnostics_not_payload(self, small_db, rng):
        params = ConstructionParams.pure(5.0, beta=0.1)
        structure = build_private_counting_structure(small_db, params, rng=rng)
        assert structure.profile is not None
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
        params = ConstructionParams.pure(5.0, beta=0.1)
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

    @given(st.one_of(DOCS, BUSHY_DOCS))
    @settings(max_examples=60, deadline=None)
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
        # lays them out: every node's children are a contiguous id range.
        parents = np.array(
            [-1 if nd.parent is None else ids[id(nd.parent)] for nd in order]
        )
        depths = np.array([nd.depth for nd in order])
        flat = FlatHeavyPathDecomposition(parents, depths)
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
        expected = (
            np.concatenate([noisy.values for noisy in reference])
            if sequences
            else np.zeros(0)
        )
        for block in BLOCK_SIZES:
            with block_sizes(block):
                got = prefix.release_many_flat(
                    flat, offsets, np.random.default_rng(seed)
                )
            assert np.array_equal(expected, got), block
