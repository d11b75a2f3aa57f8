"""repro — differentially private substring and document counting.

A from-scratch reproduction of "Differentially Private Substring and Document
Counting with Near-Optimal Error" (Bernardini, Bille, Gørtz, Steiner;
PODS 2025).  The package builds differentially private data structures that
answer, for *every* possible pattern, how often it occurs in a collection of
documents (Substring Count) or how many documents contain it (Document
Count), with additive error nearly matching the paper's lower bounds.

Quickstart (the unified API; see docs/API.md and README.md)::

    from repro import Dataset

    counter = (
        Dataset.from_documents(["aaaa", "abe", "absab", "babe", "bee", "bees"])
        .with_budget(epsilon=2.0)
        .with_beta(0.1)
        .build("heavy-path")       # or "qgram-t3"/"qgram-t4" (q=...), "baseline"
    )
    counter.query("ab")            # noisy substring count, post-processing
    counter.query_many(["ab", "be"])   # vectorized batch, same counts
    counter.mine(threshold=3.0)    # frequent-pattern mining, no extra privacy cost

Every structure kind builds through the same ``Dataset`` façade, satisfies
the ``PrivateCounter`` protocol, and plugs into the serving stack
(``counter.release(store)``); new kinds register via
``register_structure_kind`` without touching core.

Subpackages
-----------
``repro.api``
    The canonical public surface: the ``PrivateCounter`` protocol, the
    structure-kind registry, and the fluent ``Dataset`` builder
    (see ``docs/API.md``).
``repro.core``
    The paper's contribution: candidate sets, the heavy-path construction
    (Theorems 1-2), q-gram structures (Theorems 3-4), mining, baselines,
    error bounds and lower-bound constructions.
``repro.strings``
    String-algorithm substrate (suffix arrays/trees, tries, Aho-Corasick).
``repro.counting``
    Batched exact-counting engines (naive / suffix-array / Aho-Corasick
    behind one ``count_many`` protocol with an ``auto`` selector); every
    construction stage and the serving build path count through this layer
    (see docs/ARCHITECTURE.md).
``repro.dp``
    Differential-privacy substrate (mechanisms, composition, binary-tree
    prefix sums).
``repro.trees``
    Heavy paths and private counting functions on trees (Theorems 8-9).
``repro.workloads``
    Synthetic workload generators (genome, transit, text, adversarial).
``repro.analysis``
    Error metrics, experiment runners, plain-text reporting.
``repro.serving``
    Production query serving: a versioned release store, a cross-release
    privacy-budget ledger, and a threaded JSON query server with client,
    all over the one array counter every kind builds
    (``PrivateCountingTrie``, exported there as ``CompiledTrie``; see
    ``docs/SERVING.md``).
"""

from repro.api import (
    CorpusStream,
    Dataset,
    PrivateCounter,
    StructureKind,
    StructureRegistry,
    default_registry,
    register_structure_kind,
)
from repro.core import (
    DOCUMENT_COUNT,
    SUBSTRING_COUNT,
    ConstructionParams,
    ExactCountingOracle,
    PrivateCountingTrie,
    StringDatabase,
    build_private_counting_structure,
    build_simple_trie_baseline,
    check_mining_guarantee,
    mine_frequent_qgrams,
    mine_frequent_substrings,
)
from repro.counting import (
    AhoCorasickEngine,
    CountingEngine,
    NaiveEngine,
    SuffixArrayEngine,
    make_engine,
    resolve_backend,
)
from repro.dp import ContinualAccountant, GaussianMechanism, LaplaceMechanism, PrivacyBudget
from repro.serving import (
    BudgetLedger,
    CompiledTrie,
    EpochScheduler,
    QueryService,
    ReleaseStore,
    ServingClient,
    build_release,
)
from repro.trees import private_colored_counts, private_hierarchical_counts, private_tree_counts

__version__ = "1.0.0"

__all__ = [
    "CorpusStream",
    "Dataset",
    "PrivateCounter",
    "StructureKind",
    "StructureRegistry",
    "default_registry",
    "register_structure_kind",
    "DOCUMENT_COUNT",
    "SUBSTRING_COUNT",
    "ConstructionParams",
    "ExactCountingOracle",
    "PrivateCountingTrie",
    "StringDatabase",
    "build_private_counting_structure",
    "build_simple_trie_baseline",
    "check_mining_guarantee",
    "mine_frequent_qgrams",
    "mine_frequent_substrings",
    "AhoCorasickEngine",
    "CountingEngine",
    "NaiveEngine",
    "SuffixArrayEngine",
    "make_engine",
    "resolve_backend",
    "ContinualAccountant",
    "GaussianMechanism",
    "LaplaceMechanism",
    "PrivacyBudget",
    "BudgetLedger",
    "CompiledTrie",
    "EpochScheduler",
    "QueryService",
    "ReleaseStore",
    "ServingClient",
    "build_release",
    "private_colored_counts",
    "private_hierarchical_counts",
    "private_tree_counts",
    "__version__",
]
