"""Seeded inputs of every workload, generated here and nowhere else.

The serving workloads serve a synthetic *complete* trie: depth 4 over an
alphabet of 17 symbols (88,741 nodes), every node storing a noisy-looking
count rounded to 3 decimals (the E26/E27 release shape).  Because the trie
is complete, the node that spells a pattern is a closed-form function of
its symbols, so :class:`Oracle` answers every pattern from the generated
arrays without walking any program code.

The publish workload builds from genome-like reads over ``ACGT`` with two
planted motifs (the shape of the E24 construction benchmark); the two
phases against its release ask Zipf-ranked lookups over corpus substrings
and random strings, and uniform batches of corpus substrings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import StringDatabase
from repro.core.private_trie import StructureMetadata
from repro.serving import CompiledTrie
from repro.strings.alphabet import Alphabet

RELEASE_NAME = "synthetic"
DEPTH = 4
#: lookups rank ``r`` with ``r % 5 == MISS_RANK`` are absent patterns; under
#: Zipf(1.1) over 20k ranks that puts ~21% of lookups on misses.
MISS_RANK = 1
ZIPF_S = 1.1


@dataclass(frozen=True)
class ServingSizes:
    alphabet: int = 17
    universe: int = 20_000
    stream: int = 200_000
    batch: int = 4096
    batches: int = 32


@dataclass(frozen=True)
class CorpusSizes:
    documents: int = 4000
    length: int = 16
    epsilon: float = 50.0
    threshold: float = 30.0
    universe: int = 20_000
    stream: int = 200_000
    batch: int = 4096
    batches: int = 32
    batch_length: int = 6


class Oracle:
    """Expected answers of the complete trie, by arithmetic on node indices."""

    def __init__(self, counts: np.ndarray, alphabet: int) -> None:
        self.counts = counts
        self.alphabet = alphabet
        self.symbols = [chr(0x41 + i) for i in range(alphabet)]
        self.codes = {symbol: code for code, symbol in enumerate(self.symbols)}
        level_sizes = [alphabet**k for k in range(DEPTH + 1)]
        self.starts = np.concatenate(([0], np.cumsum(level_sizes))).astype(np.int64)

    def node_of_codes(self, codes: np.ndarray) -> np.ndarray:
        """Node index of each row of 0-based symbol codes (rows of one length)."""
        length = codes.shape[1]
        weights = self.alphabet ** np.arange(length - 1, -1, -1, dtype=np.int64)
        return self.starts[length] + codes.astype(np.int64) @ weights

    def expected(self, pattern: str) -> float:
        if not 1 <= len(pattern) <= DEPTH or any(c not in self.codes for c in pattern):
            return 0.0
        codes = np.array([[self.codes[c] for c in pattern]])
        return float(self.counts[int(self.node_of_codes(codes)[0])])

    def spell(self, codes: np.ndarray) -> list[str]:
        table = np.array(self.symbols)
        return ["".join(row) for row in table[codes]]


def complete_trie(seed: int, alphabet: int) -> tuple[CompiledTrie, Oracle]:
    """The served release as an in-memory :class:`CompiledTrie` plus its oracle.

    In BFS order the children of consecutive nodes occupy consecutive index
    ranges, so the edge arrays follow from the level offsets alone.
    """
    level_sizes = [alphabet**k for k in range(DEPTH + 1)]
    starts = np.concatenate(([0], np.cumsum(level_sizes))).astype(np.int64)
    num_nodes = int(starts[-1])
    vocab_size = alphabet + 1
    rng = np.random.default_rng([seed, 1])
    counts = np.abs(rng.normal(1000.0, 100.0, size=num_nodes)).round(3)
    depths = np.zeros(num_nodes, dtype=np.int64)
    parents = np.full(num_nodes, -1, dtype=np.int64)
    parent_codes = np.zeros(num_nodes, dtype=np.int64)
    child_start = np.full(num_nodes, num_nodes - 1, dtype=np.int64)
    child_end = np.full(num_nodes, num_nodes - 1, dtype=np.int64)
    for level in range(1, DEPTH + 1):
        lo, hi = int(starts[level]), int(starts[level + 1])
        offsets = np.arange(hi - lo, dtype=np.int64)
        depths[lo:hi] = level
        parents[lo:hi] = starts[level - 1] + offsets // alphabet
        parent_codes[lo:hi] = offsets % alphabet + 1
    for level in range(DEPTH):
        lo, hi = int(starts[level]), int(starts[level + 1])
        offsets = np.arange(hi - lo, dtype=np.int64)
        # edge e targets node e + 1, so a node's edge slice starts one below
        # the index of its first child
        child_start[lo:hi] = starts[level + 1] + offsets * alphabet - 1
        child_end[lo:hi] = child_start[lo:hi] + alphabet
    oracle = Oracle(counts, alphabet)
    compiled = CompiledTrie(
        counts=counts,
        depths=depths,
        parents=parents,
        parent_codes=parent_codes,
        child_start=child_start,
        child_end=child_end,
        edge_keys=parents[1:] * vocab_size + parent_codes[1:],
        edge_labels=parent_codes[1:].copy(),
        edge_targets=np.arange(1, num_nodes, dtype=np.int64),
        vocab={symbol: code + 1 for symbol, code in oracle.codes.items()},
        metadata=StructureMetadata(
            epsilon=1.0,
            delta=0.0,
            beta=0.1,
            delta_cap=1,
            max_length=DEPTH,
            num_documents=num_nodes,
            alphabet_size=alphabet,
            error_bound=1.0,
            threshold=0.0,
            construction="synthetic-complete-trie",
        ),
        report={"synthetic": True, "depth": DEPTH, "alphabet": alphabet, "seed": seed},
    )
    return compiled, oracle


@dataclass
class ServingInputs:
    compiled: CompiledTrie
    #: the lookup universe, its expected answers and which entries are stored
    universe: list[str]
    universe_expected: list[float]
    universe_hit: np.ndarray
    #: Zipf-ranked lookup stream, as indices into the universe
    stream: np.ndarray
    batches: list[list[str]]
    batches_expected: list[list[float]]


def serving_inputs(seed: int, sizes: ServingSizes = ServingSizes()) -> ServingInputs:
    compiled, oracle = complete_trie(seed, sizes.alphabet)
    rng = np.random.default_rng([seed, 2])
    num_misses = len(range(MISS_RANK, sizes.universe, 5))
    num_hits = sizes.universe - num_misses
    # hits: distinct stored nodes of depth 1..4 (mostly depth 4, as in the trie)
    nodes = rng.choice(np.arange(1, int(oracle.starts[-1])), size=num_hits, replace=False)
    hits = [compiled.pattern_of(int(node)) for node in nodes]
    # misses: distinct length-5 patterns, one symbol deeper than the trie
    miss_codes = np.unique(rng.integers(0, sizes.alphabet, size=(num_misses * 2, 5)), axis=0)
    miss_codes = miss_codes[rng.permutation(len(miss_codes))[:num_misses]]
    misses = oracle.spell(miss_codes)
    is_miss = np.arange(sizes.universe) % 5 == MISS_RANK
    universe = np.empty(sizes.universe, dtype=object)
    universe[is_miss] = misses
    universe[~is_miss] = hits
    universe = universe.tolist()
    stream = zipf_stream(rng, sizes.universe, sizes.stream)

    batch_codes = rng.integers(0, sizes.alphabet, size=(sizes.batches, sizes.batch, DEPTH))
    batches = [oracle.spell(codes) for codes in batch_codes]
    batches_expected = [
        oracle.counts[oracle.node_of_codes(codes)].tolist() for codes in batch_codes
    ]
    return ServingInputs(
        compiled=compiled,
        universe=universe,
        universe_expected=[oracle.expected(p) for p in universe],
        universe_hit=~is_miss,
        stream=stream,
        batches=batches,
        batches_expected=batches_expected,
    )


def zipf_stream(rng: np.random.Generator, universe: int, length: int) -> np.ndarray:
    """``length`` Zipf(``ZIPF_S``)-ranked indices into a universe."""
    weights = 1.0 / np.arange(1, universe + 1) ** ZIPF_S
    cumulative = np.cumsum(weights / weights.sum())
    stream = np.searchsorted(cumulative, rng.random(length), side="right")
    return np.minimum(stream, universe - 1)


def genome_documents(seed: int, sizes: CorpusSizes = CorpusSizes()) -> list[str]:
    """Reads with GC content 0.42; 60% carry one planted motif."""
    rng = np.random.default_rng([seed, 3])
    probabilities = np.array([0.29, 0.21, 0.21, 0.29])
    codes = rng.choice(4, size=(sizes.documents, sizes.length), p=probabilities)
    documents = ["".join(row) for row in np.array(list("ACGT"))[codes]]
    motifs = ("ACGTAC", "GGCC")
    plant = rng.random(sizes.documents) < 0.6
    which = rng.integers(0, len(motifs), size=sizes.documents)
    offsets = rng.random(sizes.documents)
    for i in np.flatnonzero(plant):
        motif = motifs[which[i]]
        start = int(offsets[i] * (sizes.length - len(motif) + 1))
        documents[i] = documents[i][:start] + motif + documents[i][start + len(motif) :]
    return documents


def genome_database(documents: list[str], sizes: CorpusSizes = CorpusSizes()) -> StringDatabase:
    return StringDatabase(documents, Alphabet(("A", "C", "G", "T")), max_length=sizes.length)


@dataclass
class ReleasePatterns:
    """What the publish workload asks of its release; the expected answers
    come from the in-memory release the build returned."""

    #: the lookup universe: distinct corpus substrings of length 1..10 and,
    #: at ranks ``r % 5 == MISS_RANK``, random strings of length 6..10
    universe: list[str]
    stream: np.ndarray
    batches: list[list[str]]


def release_patterns(documents: list[str], seed: int, sizes: CorpusSizes = CorpusSizes()) -> ReleasePatterns:
    rng = np.random.default_rng([seed, 6])
    table = np.array(list("ACGT"))
    seen: set[str] = set()
    universe: list[str] = []
    for _ in range(100 * sizes.universe):
        if len(universe) == sizes.universe:
            break
        if len(universe) % 5 == MISS_RANK:
            pattern = "".join(table[rng.integers(0, 4, size=int(rng.integers(6, 11)))])
        else:
            text = documents[int(rng.integers(0, len(documents)))]
            length = int(rng.integers(1, 11))
            start = int(rng.integers(0, len(text) - length + 1))
            pattern = text[start : start + length]
        if pattern not in seen:
            seen.add(pattern)
            universe.append(pattern)
    if len(universe) < sizes.universe:
        raise ValueError(f"the corpus has fewer than {sizes.universe} distinct lookup patterns")
    stream = zipf_stream(rng, sizes.universe, sizes.stream)
    docs = rng.integers(0, len(documents), size=(sizes.batches, sizes.batch))
    starts = rng.integers(0, sizes.length - sizes.batch_length + 1, size=(sizes.batches, sizes.batch))
    batches = [
        [documents[int(d)][int(s) : int(s) + sizes.batch_length] for d, s in zip(row_docs, row_starts)]
        for row_docs, row_starts in zip(docs, starts)
    ]
    return ReleasePatterns(universe=universe, stream=stream, batches=batches)
