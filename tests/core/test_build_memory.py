"""Memory regression tests for the array build pipeline.

The Theorem 1 candidate trie is large and almost entirely pruned, so the
build's memory is set by how many whole-trie temporaries the passes after
annotation hold at once.  These build a seeded corpus shaped like the
``publish`` benchmark's (DNA reads of length 16, GC content 0.42, 60%
carrying a planted motif) at 1,000 reads — a 752,939-node candidate trie —
and bound the traced allocation peak:

* of the whole build, per candidate-trie node.  Passes that hold several
  trie-sized temporaries at once read about 390 bytes per node; the level-
  and block-wise passes stay near 160.
* of the candidate stage, per pair of its last doubling level (``k^2`` =
  605,284).  Materializing every pair as a code-matrix row reads about
  180 bytes per pair; counting only the pairs that occur, with rows for
  the survivors alone, stays near 64.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core.candidate_set import build_candidate_set
from repro.core.construction import build_private_counting_structure
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.strings.alphabet import Alphabet

READS = 1000
READ_LENGTH = 16
MOTIFS = ("ACGTAC", "GGCC")
#: the bound on the traced peak, in bytes per candidate-trie node
MAX_BYTES_PER_NODE = 250
#: the bound on the candidate stage's traced peak, in bytes per pair of
#: its last doubling level
MAX_BYTES_PER_PAIR = 100


def genome_reads(seed: int) -> list[str]:
    """Random reads with GC content 0.42; 60% carry one planted motif."""
    rng = np.random.default_rng([seed, 3])
    codes = rng.choice(
        4, size=(READS, READ_LENGTH), p=np.array([0.29, 0.21, 0.21, 0.29])
    )
    reads = ["".join(row) for row in np.array(list("ACGT"))[codes]]
    plant = rng.random(READS) < 0.6
    which = rng.integers(0, len(MOTIFS), size=READS)
    offsets = rng.random(READS)
    for i in np.flatnonzero(plant):
        motif = MOTIFS[which[i]]
        start = int(offsets[i] * (READ_LENGTH - len(motif) + 1))
        reads[i] = reads[i][:start] + motif + reads[i][start + len(motif) :]
    return reads


def genome_database() -> StringDatabase:
    return StringDatabase(
        genome_reads(1), Alphabet(("A", "C", "G", "T")), max_length=READ_LENGTH
    )


def array_params() -> ConstructionParams:
    return ConstructionParams.pure(
        50.0, beta=0.1, threshold=30.0, build_backend="array"
    )


def traced_peak(run):
    """``run()``'s result and the traced allocation peak above the
    allocations live when it started, in bytes."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    baseline, _ = tracemalloc.get_traced_memory()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak - baseline


def test_array_build_peak_per_candidate_node():
    database = genome_database()
    structure, peak = traced_peak(
        lambda: build_private_counting_structure(
            database, array_params(), rng=np.random.default_rng([1, 4])
        )
    )
    nodes = structure.report["trie_nodes_before_pruning"]
    assert nodes >= 500_000
    bytes_per_node = peak / nodes
    assert bytes_per_node <= MAX_BYTES_PER_NODE, (
        f"traced peak {peak / 1e6:.1f} MB over {nodes} candidate "
        f"nodes is {bytes_per_node:.0f} B/node"
    )


def test_candidate_stage_peak_per_last_level_pair():
    """The stage runs with the budget share the full build gives it."""
    database = genome_database()
    params = array_params()
    candidates, peak = traced_peak(
        lambda: build_candidate_set(
            database,
            params,
            budget=params.budget.scaled(params.candidate_budget_fraction),
            rng=np.random.default_rng([1, 4]),
        )
    )
    last = max(candidates.levels)
    pairs = len(candidates.levels[last // 2]) ** 2
    assert pairs >= 500_000
    bytes_per_pair = peak / pairs
    assert bytes_per_pair <= MAX_BYTES_PER_PAIR, (
        f"traced peak {peak / 1e6:.1f} MB over {pairs} level-{last} pairs "
        f"is {bytes_per_pair:.0f} B/pair"
    )
