"""Memory regression test for the array build pipeline.

The Theorem 1 candidate trie is large and almost entirely pruned, so the
build's memory is set by how many whole-trie temporaries the passes after
annotation hold at once.  This builds a seeded corpus shaped like the
``publish`` benchmark's (DNA reads of length 16, GC content 0.42, 60%
carrying a planted motif) at 1,000 reads — a 752,939-node candidate trie —
and bounds the traced allocation peak per candidate-trie node.  Passes that
hold several trie-sized temporaries at once read about 390 bytes per node;
the level- and block-wise passes stay near 160.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core.construction import build_private_counting_structure
from repro.core.database import StringDatabase
from repro.core.params import ConstructionParams
from repro.strings.alphabet import Alphabet

READS = 1000
READ_LENGTH = 16
MOTIFS = ("ACGTAC", "GGCC")
#: the bound on the traced peak, in bytes per candidate-trie node
MAX_BYTES_PER_NODE = 250


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


def test_array_build_peak_per_candidate_node():
    database = StringDatabase(
        genome_reads(1), Alphabet(("A", "C", "G", "T")), max_length=READ_LENGTH
    )
    params = ConstructionParams.pure(
        50.0, beta=0.1, threshold=30.0, build_backend="array"
    )
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    baseline, _ = tracemalloc.get_traced_memory()
    try:
        structure = build_private_counting_structure(
            database, params, rng=np.random.default_rng([1, 4])
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    nodes = structure.report["trie_nodes_before_pruning"]
    assert nodes >= 500_000
    bytes_per_node = (peak - baseline) / nodes
    assert bytes_per_node <= MAX_BYTES_PER_NODE, (
        f"traced peak {(peak - baseline) / 1e6:.1f} MB over {nodes} candidate "
        f"nodes is {bytes_per_node:.0f} B/node"
    )
