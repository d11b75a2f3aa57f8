"""String-algorithm substrate: alphabets, suffix structures, tries.

This subpackage contains every classic string data structure the paper builds
on — suffix arrays with LCP arrays, (generalized) suffix trees, tries,
compacted tries and an Aho-Corasick automaton — implemented from scratch on
top of numpy and the standard library.
"""

from repro.strings.alphabet import Alphabet, infer_alphabet
from repro.strings.aho_corasick import AhoCorasick
from repro.strings.documents import ConcatenatedText, concatenate_documents
from repro.strings.generalized_index import GeneralizedSuffixIndex, MergeSortTree
from repro.strings.naive import (
    all_substrings,
    count_capped,
    count_delta,
    count_occurrences,
    document_count,
    document_count_table,
    substring_count,
    substring_count_table,
)
from repro.strings.qgrams import (
    distinct_qgrams,
    iter_qgrams,
    qgram_capped_counts,
    qgram_document_counts,
    qgram_substring_counts,
)
from repro.strings.suffix_array import SuffixArray, build_lcp_array, build_suffix_array
from repro.strings.suffix_tree import SuffixTree, SuffixTreeNode
from repro.strings.trie import CompactedTrie, Trie, TrieNode

__all__ = [
    "Alphabet",
    "infer_alphabet",
    "AhoCorasick",
    "ConcatenatedText",
    "concatenate_documents",
    "GeneralizedSuffixIndex",
    "MergeSortTree",
    "all_substrings",
    "count_capped",
    "count_delta",
    "count_occurrences",
    "document_count",
    "document_count_table",
    "substring_count",
    "substring_count_table",
    "distinct_qgrams",
    "iter_qgrams",
    "qgram_capped_counts",
    "qgram_document_counts",
    "qgram_substring_counts",
    "SuffixArray",
    "build_lcp_array",
    "build_suffix_array",
    "SuffixTree",
    "SuffixTreeNode",
    "CompactedTrie",
    "Trie",
    "TrieNode",
]
