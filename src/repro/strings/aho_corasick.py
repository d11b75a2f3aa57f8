"""Aho-Corasick multi-pattern matching.

The differentially private construction algorithms repeatedly need exact
counts of *batches* of candidate strings against the database (Step 1 of the
construction, the baseline trie expansion, the test oracles).  The
Aho-Corasick automaton counts all occurrences of every pattern of a batch in
one pass over each document, independent of the number of patterns, which is
what :class:`repro.counting.AhoCorasickEngine` builds on.

Two matching paths are provided:

* the classic dict API (:meth:`AhoCorasick.count_occurrences`,
  :meth:`AhoCorasick.count_over_documents`), and
* array-based batch counting (:meth:`AhoCorasick.pattern_counts`,
  :meth:`AhoCorasick.capped_counts_over_documents`) that returns numpy
  vectors indexed by pattern index and does the per-document capping
  ``min(delta, count(P, S))`` with vectorized numpy reductions.

``build()`` precomputes the full goto closure (failure transitions resolved
into one dictionary per state) and per-state *output links* (the pattern
indices whose strings are suffixes of the state's string), so the scan does
one dict lookup per character and emits matches without walking failure
chains.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

__all__ = ["AhoCorasick"]


class AhoCorasick:
    """Aho-Corasick automaton over Python strings.

    Usage::

        automaton = AhoCorasick(["ab", "be"])
        automaton.count_occurrences("abe")   # {"ab": 1, "be": 1}
    """

    def __init__(self, patterns: Iterable[str] = ()) -> None:
        # State 0 is the root.
        self._children: list[dict[str, int]] = [{}]
        self._fail: list[int] = [0]
        self._depth: list[int] = [0]
        # pattern index terminating at each state (-1 when none).
        self._terminal: list[int] = [-1]
        self.patterns: list[str] = []
        self._built = False
        # Populated by build():
        self._goto: list[dict[str, int]] = []
        self._outputs: list[tuple[int, ...]] = []
        self._state_of_pattern: np.ndarray | None = None
        for pattern in patterns:
            self.add_pattern(pattern)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def num_patterns(self) -> int:
        return len(self.patterns)

    def add_pattern(self, pattern: str) -> int:
        """Add a non-empty pattern; returns its index.  Duplicate patterns
        share an index."""
        if not pattern:
            raise ValueError("patterns must be non-empty")
        if self._built:
            raise RuntimeError("cannot add patterns after the automaton is built")
        state = 0
        for char in pattern:
            nxt = self._children[state].get(char)
            if nxt is None:
                nxt = len(self._children)
                self._children.append({})
                self._fail.append(0)
                self._depth.append(self._depth[state] + 1)
                self._terminal.append(-1)
                self._children[state][char] = nxt
            state = nxt
        if self._terminal[state] >= 0:
            return self._terminal[state]
        index = len(self.patterns)
        self.patterns.append(pattern)
        self._terminal[state] = index
        return index

    def build(self) -> None:
        """Compute failure links, the goto closure and the per-state output
        links (idempotent)."""
        if self._built:
            return
        queue: deque[int] = deque()
        for child in self._children[0].values():
            self._fail[child] = 0
            queue.append(child)
        order: list[int] = []
        while queue:
            state = queue.popleft()
            order.append(state)
            for char, child in self._children[state].items():
                # Follow failure links of the parent to find the failure of
                # the child.
                fallback = self._fail[state]
                while fallback and char not in self._children[fallback]:
                    fallback = self._fail[fallback]
                self._fail[child] = self._children[fallback].get(char, 0)
                if self._fail[child] == child:
                    self._fail[child] = 0
                queue.append(child)
        # Goto closure and output links, in BFS order so the failure target
        # (which is strictly shallower) is always finished first.
        self._goto = [dict(self._children[0])] + [{}] * (len(self._children) - 1)
        self._outputs = [()] * len(self._children)
        if self._terminal[0] >= 0:  # unreachable (patterns are non-empty)
            self._outputs[0] = (self._terminal[0],)
        for state in order:
            fail = self._fail[state]
            transitions = dict(self._goto[fail])
            transitions.update(self._children[state])
            self._goto[state] = transitions
            if self._terminal[state] >= 0:
                self._outputs[state] = self._outputs[fail] + (self._terminal[state],)
            else:
                self._outputs[state] = self._outputs[fail]
        states = np.zeros(len(self.patterns), dtype=np.int64)
        for state, pattern_index in enumerate(self._terminal):
            if pattern_index >= 0:
                states[pattern_index] = state
        self._state_of_pattern = states
        self._built = True

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def pattern_counts(self, text: str) -> np.ndarray:
        """Occurrences of every pattern in ``text`` as an int64 vector
        indexed by pattern index (one pass over ``text``)."""
        self.build()
        matches: list[int] = []
        extend = matches.extend
        goto = self._goto
        outputs = self._outputs
        state = 0
        for char in text:
            state = goto[state].get(char, 0)
            if outputs[state]:
                extend(outputs[state])
        if not matches:
            return np.zeros(len(self.patterns), dtype=np.int64)
        return np.bincount(
            np.asarray(matches, dtype=np.int64), minlength=len(self.patterns)
        )

    def count_occurrences(self, text: str) -> dict[str, int]:
        """Exact number of (possibly overlapping) occurrences of every
        pattern in ``text``."""
        counts = self.pattern_counts(text)
        return {pattern: int(counts[i]) for i, pattern in enumerate(self.patterns)}

    def capped_counts_over_documents(
        self, documents: Sequence[str], delta: int
    ) -> np.ndarray:
        """``count_delta(P, D)`` for every pattern as an int64 vector indexed
        by pattern index.

        One pass over the concatenated collection emits every match as a
        ``(pattern, document)`` pair; the per-document capping
        ``sum_S min(delta, count(P, S))`` is then a vectorized numpy
        reduction over the match list, independent of the number of states.
        """
        if delta < 1:
            raise ValueError("delta must be at least 1")
        self.build()
        num_patterns = len(self.patterns)
        if num_patterns == 0:
            return np.zeros(0, dtype=np.int64)
        goto = self._goto
        outputs = self._outputs
        num_documents = len(documents)
        match_keys: list[int] = []
        extend = match_keys.extend
        for doc_id, document in enumerate(documents):
            state = 0
            for char in document:
                state = goto[state].get(char, 0)
                out = outputs[state]
                if out:
                    # Key = pattern * num_documents + document, so one
                    # np.unique pass groups matches per (pattern, document).
                    extend(p * num_documents + doc_id for p in out)
        if not match_keys:
            return np.zeros(num_patterns, dtype=np.int64)
        keys, counts = np.unique(
            np.asarray(match_keys, dtype=np.int64), return_counts=True
        )
        np.minimum(counts, delta, out=counts)
        return np.bincount(
            keys // num_documents, weights=counts, minlength=num_patterns
        ).astype(np.int64)

    def count_over_documents(
        self, documents: Sequence[str], delta: int
    ) -> dict[str, int]:
        """``count_delta(P, D)`` for every pattern ``P`` of the automaton.

        Equivalent to summing ``min(delta, count(P, S))`` over the documents.
        """
        totals = self.capped_counts_over_documents(documents, delta)
        return {pattern: int(totals[i]) for i, pattern in enumerate(self.patterns)}
