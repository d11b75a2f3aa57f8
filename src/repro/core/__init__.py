"""Core library: the paper's differentially private counting structures.

Every export resolves on first access (:mod:`repro._lazy`), so a process
that only loads and serves releases imports :mod:`repro.core.private_trie`
without the construction pipeline.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.baselines import ExactCountingOracle, build_simple_trie_baseline
    from repro.core.candidate_growth import (
        build_onestep_candidate_set,
        onestep_candidate_alpha,
    )
    from repro.core.candidate_set import CandidateSet, build_candidate_set, candidate_alpha
    from repro.core.construction import build_private_counting_structure
    from repro.core.counts import count_delta, document_count, exact_count_table, substring_count
    from repro.core.database import StringDatabase
    from repro.core.lower_bounds import (
        MarginalsReduction,
        PackingInstance,
        exact_marginals,
        marginals_reduction,
        packing_database,
        packing_patterns,
        substring_lower_bound_pair,
    )
    from repro.core.mining import (
        GuaranteeViolations,
        MiningResult,
        check_mining_guarantee,
        mine_frequent_qgrams,
        mine_frequent_substrings,
    )
    from repro.core.params import DOCUMENT_COUNT, SUBSTRING_COUNT, ConstructionParams
    from repro.core.private_trie import PrivateCountingTrie, StructureMetadata
    from repro.core.qgram_structure import (
        qgram_counting_structure,
        theorem3_qgram_structure,
        theorem4_qgram_structure,
    )

__all__ = [
    "ExactCountingOracle",
    "build_simple_trie_baseline",
    "CandidateSet",
    "build_onestep_candidate_set",
    "onestep_candidate_alpha",
    "build_candidate_set",
    "candidate_alpha",
    "build_private_counting_structure",
    "count_delta",
    "document_count",
    "exact_count_table",
    "substring_count",
    "StringDatabase",
    "MarginalsReduction",
    "PackingInstance",
    "exact_marginals",
    "marginals_reduction",
    "packing_database",
    "packing_patterns",
    "substring_lower_bound_pair",
    "GuaranteeViolations",
    "MiningResult",
    "check_mining_guarantee",
    "mine_frequent_qgrams",
    "mine_frequent_substrings",
    "DOCUMENT_COUNT",
    "SUBSTRING_COUNT",
    "ConstructionParams",
    "PrivateCountingTrie",
    "StructureMetadata",
    "qgram_counting_structure",
    "theorem3_qgram_structure",
    "theorem4_qgram_structure",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.baselines": ("ExactCountingOracle", "build_simple_trie_baseline"),
        "repro.core.candidate_growth": ("build_onestep_candidate_set", "onestep_candidate_alpha"),
        "repro.core.candidate_set": ("CandidateSet", "build_candidate_set", "candidate_alpha"),
        "repro.core.construction": ("build_private_counting_structure",),
        "repro.core.counts": (
            "count_delta",
            "document_count",
            "exact_count_table",
            "substring_count",
        ),
        "repro.core.database": ("StringDatabase",),
        "repro.core.lower_bounds": (
            "MarginalsReduction",
            "PackingInstance",
            "exact_marginals",
            "marginals_reduction",
            "packing_database",
            "packing_patterns",
            "substring_lower_bound_pair",
        ),
        "repro.core.mining": (
            "GuaranteeViolations",
            "MiningResult",
            "check_mining_guarantee",
            "mine_frequent_qgrams",
            "mine_frequent_substrings",
        ),
        "repro.core.params": ("DOCUMENT_COUNT", "SUBSTRING_COUNT", "ConstructionParams"),
        "repro.core.private_trie": ("PrivateCountingTrie", "StructureMetadata"),
        "repro.core.qgram_structure": (
            "qgram_counting_structure",
            "theorem3_qgram_structure",
            "theorem4_qgram_structure",
        ),
    },
)
