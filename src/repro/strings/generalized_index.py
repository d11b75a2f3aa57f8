"""Exact counting over a document collection via a generalized suffix array.

:class:`GeneralizedSuffixIndex` answers the paper's exact (non-private)
counting queries for arbitrary patterns:

* ``substring_count(P)`` — total occurrences, ``count(P, D)``;
* ``document_count(P)`` — number of documents containing ``P``,
  ``count_1(P, D)``;
* ``count(P, delta)`` — the capped count ``count_delta(P, D)`` for any cap.

It indexes the sentinel-separated concatenation ``S_1 $_1 ... S_n $_n`` with a
suffix array; occurrences of a pattern over ``Sigma`` never cross a sentinel,
so the SA interval of the pattern enumerates exactly the in-document
occurrences.  Document counts use the classic "previous occurrence of the same
document" trick with a merge-sort tree, giving ``O(log^2 N)`` online queries.

The differentially private construction algorithms consume exact counts from
this index and add calibrated noise; the index itself is *not* private.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from repro.strings.alphabet import Alphabet, infer_alphabet
from repro.strings.documents import ConcatenatedText, concatenate_documents
from repro.strings.suffix_array import SuffixArray
from repro.strings.suffix_tree import SuffixTree

__all__ = ["GeneralizedSuffixIndex", "MergeSortTree"]


class MergeSortTree:
    """Segment tree whose nodes store sorted copies of their range.

    Supports ``count_less_than(lo, hi, threshold)``: the number of elements of
    ``values[lo:hi]`` strictly smaller than ``threshold``, in ``O(log^2 N)``.
    """

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.int64)
        self._n = len(values)
        size = 1
        while size < max(1, self._n):
            size *= 2
        self._size = size
        self._levels: list[np.ndarray] = []
        self._build(values)

    def _build(self, values: np.ndarray) -> None:
        padded = np.full(self._size, np.iinfo(np.int64).max, dtype=np.int64)
        padded[: self._n] = values
        level = padded.reshape(self._size, 1)
        self._levels.append(level)
        width = 1
        while width < self._size:
            width *= 2
            blocks = level.reshape(-1, width)
            level = np.sort(blocks, axis=1)
            self._levels.append(level)

    def count_less_than(self, lo: int, hi: int, threshold: int) -> int:
        """Number of elements of ``values[lo:hi]`` strictly below
        ``threshold``."""
        if not 0 <= lo <= hi <= self._n:
            raise ValueError(f"invalid interval [{lo}, {hi})")
        total = 0
        # Decompose [lo, hi) into canonical segment-tree blocks.
        level = 0
        while lo < hi:
            if lo % 2 == 1:
                block = self._levels[level][lo]
                total += int(np.searchsorted(block, threshold, side="left"))
                lo += 1
            if hi % 2 == 1:
                hi -= 1
                block = self._levels[level][hi]
                total += int(np.searchsorted(block, threshold, side="left"))
            lo //= 2
            hi //= 2
            level += 1
        return total


class GeneralizedSuffixIndex:
    """Exact substring / document / capped counting over a collection.

    Parameters
    ----------
    documents:
        The database ``D = S_1, ..., S_n``.
    alphabet:
        Alphabet of the data universe; inferred from the documents when
        omitted.  Supplying it explicitly matters for differential privacy,
        where the universe must not depend on the data.
    """

    def __init__(
        self, documents: Sequence[str], alphabet: Alphabet | None = None
    ) -> None:
        self.documents = list(documents)
        if alphabet is None:
            alphabet = infer_alphabet(self.documents)
        self.alphabet = alphabet
        self.concatenation: ConcatenatedText = concatenate_documents(
            self.documents, alphabet
        )
        self.suffix_array = SuffixArray.build(self.concatenation.codes)
        # Document id of the suffix at each SA rank.
        self._doc_of_rank = self.concatenation.doc_ids[self.suffix_array.sa]

    # ------------------------------------------------------------------
    # Cached helper structures
    # ------------------------------------------------------------------
    @cached_property
    def _prev_same_document(self) -> np.ndarray:
        """``prev[r]`` is the largest rank ``< r`` whose suffix belongs to the
        same document, or ``-1``."""
        n_ranks = len(self._doc_of_rank)
        prev = np.full(n_ranks, -1, dtype=np.int64)
        last_seen: dict[int, int] = {}
        for rank in range(n_ranks):
            doc = int(self._doc_of_rank[rank])
            if doc in last_seen:
                prev[rank] = last_seen[doc]
            last_seen[doc] = rank
        return prev

    @cached_property
    def _prev_tree(self) -> MergeSortTree:
        return MergeSortTree(self._prev_same_document)

    @cached_property
    def suffix_tree(self) -> SuffixTree:
        """The suffix tree of the concatenation (built lazily)."""
        return SuffixTree(self.suffix_array)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_documents(self) -> int:
        return len(self.documents)

    @property
    def max_document_length(self) -> int:
        return max((len(d) for d in self.documents), default=0)

    @property
    def total_length(self) -> int:
        return self.concatenation.total_length

    # ------------------------------------------------------------------
    # SA intervals
    # ------------------------------------------------------------------
    def pattern_interval(self, pattern: str) -> tuple[int, int]:
        """Half-open SA interval of suffixes starting with ``pattern``.

        Patterns containing characters outside the alphabet have an empty
        interval (they cannot occur in the database).
        """
        if pattern == "":
            return 0, len(self.suffix_array)
        if any(ch not in self.alphabet for ch in pattern):
            return 0, 0
        encoded = self.alphabet.encode(pattern)
        return self.suffix_array.pattern_interval(encoded)

    def extend_interval(
        self, lo: int, hi: int, depth: int, char: str
    ) -> tuple[int, int]:
        """Narrow the SA interval of a length-``depth`` pattern to the
        interval of that pattern extended by ``char``.

        Runs in ``O(log(hi - lo))`` and lets callers (such as the candidate
        trie construction) compute counts of all prefixes of a string
        incrementally.
        """
        if lo >= hi or char not in self.alphabet:
            return lo, lo
        code = self.alphabet.code(char)
        text = self.suffix_array.text
        sa = self.suffix_array.sa
        n = len(text)

        def char_at(rank: int) -> int:
            position = int(sa[rank]) + depth
            # Positions past the end of the text sort as -infinity; they can
            # never equal a character code.
            return int(text[position]) if position < n else -1

        # Lower bound: first rank with char_at >= code.
        left_lo, left_hi = lo, hi
        while left_lo < left_hi:
            mid = (left_lo + left_hi) // 2
            if char_at(mid) < code:
                left_lo = mid + 1
            else:
                left_hi = mid
        lower = left_lo
        # Upper bound: first rank with char_at > code.
        right_lo, right_hi = lower, hi
        while right_lo < right_hi:
            mid = (right_lo + right_hi) // 2
            if char_at(mid) <= code:
                right_lo = mid + 1
            else:
                right_hi = mid
        return lower, right_lo

    # ------------------------------------------------------------------
    # Counting queries
    # ------------------------------------------------------------------
    def substring_count(self, pattern: str) -> int:
        """``count(P, D)`` — total occurrences across the collection."""
        if pattern == "":
            return self.total_length
        lo, hi = self.pattern_interval(pattern)
        return hi - lo

    def document_count(self, pattern: str) -> int:
        """``count_1(P, D)`` — number of documents containing ``P``."""
        if pattern == "":
            return self.num_documents
        lo, hi = self.pattern_interval(pattern)
        return self.document_count_of_interval(lo, hi)

    def document_count_of_interval(self, lo: int, hi: int) -> int:
        """Document count given a precomputed SA interval: the number of
        ranks in ``[lo, hi)`` whose previous same-document rank falls before
        ``lo``."""
        if lo >= hi:
            return 0
        return self._prev_tree.count_less_than(lo, hi, lo)

    def count(self, pattern: str, delta: int) -> int:
        """``count_delta(P, D)`` for an arbitrary cap ``delta``."""
        if delta < 1:
            raise ValueError("delta must be at least 1")
        if pattern == "":
            lengths = np.minimum(self.concatenation.doc_lengths, delta)
            return int(lengths.sum())
        lo, hi = self.pattern_interval(pattern)
        return self.count_of_interval(lo, hi, delta)

    def count_of_interval(self, lo: int, hi: int, delta: int) -> int:
        """Capped count given a precomputed SA interval."""
        if lo >= hi:
            return 0
        if delta == 1:
            return self.document_count_of_interval(lo, hi)
        if delta >= self.max_document_length:
            return hi - lo
        per_document = np.bincount(
            self._doc_of_rank[lo:hi], minlength=self.num_documents
        )
        return int(np.minimum(per_document, delta).sum())

    def counts(self, patterns: Sequence[str], delta: int) -> list[int]:
        """Capped counts of a batch of patterns."""
        return [self.count(pattern, delta) for pattern in patterns]

    def letter_counts(self, delta: int) -> dict[str, int]:
        """``count_delta(gamma, D)`` for every letter ``gamma`` of the
        alphabet (including letters that do not occur)."""
        return {symbol: self.count(symbol, delta) for symbol in self.alphabet}

    # ------------------------------------------------------------------
    # Helpers for the suffix-tree based q-gram algorithm (Lemma 21)
    # ------------------------------------------------------------------
    def is_within_document(self, position: int, length: int) -> bool:
        """Return ``True`` when ``length`` characters starting at text
        position ``position`` stay inside one document (contain no
        sentinel)."""
        return self.concatenation.remaining_in_document(position) >= length

    def decode_prefix(self, position: int, length: int) -> str:
        """Decode ``length`` characters of the concatenation starting at
        ``position``; must stay inside one document."""
        return self.concatenation.substring(position, length)
