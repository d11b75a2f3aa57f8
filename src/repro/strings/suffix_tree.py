"""Generalized suffix tree built from a suffix array and LCP array.

The paper's fast q-gram algorithm (Lemma 21) works on the suffix tree of the
concatenation ``S_1 $_1 ... S_n $_n`` and needs, for each phase ``k``:

* the *2^k-minimal* branching nodes — nodes whose string depth is at least
  ``2^k`` while their parent's string depth is smaller;
* the frequency ``f(v)`` (number of leaves below ``v``), which equals the
  number of occurrences of the length-``2^k`` prefix of ``str(v)``;
* *weighted ancestor* queries: the highest ancestor of a leaf whose string
  depth is at least a target value.

The tree is constructed in linear time from the suffix array and LCP array by
inserting suffixes in lexicographic order while maintaining the rightmost
root-to-leaf path on a stack.  Weighted ancestors are answered with binary
lifting in ``O(log N)`` (the paper uses an ``O(1)`` structure [5, 39]; see
DESIGN.md for this substitution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.strings.suffix_array import SuffixArray

__all__ = ["SuffixTreeNode", "SuffixTree"]


@dataclass
class SuffixTreeNode:
    """A node of the suffix tree.

    Attributes
    ----------
    node_id:
        Dense identifier (0 is the root).
    string_depth:
        ``|str(v)|`` — length of the string spelled from the root to ``v``.
    parent:
        Parent node id, or ``-1`` for the root.
    children:
        Child node ids.
    leaf_position:
        Starting text position of the suffix when the node is a leaf,
        otherwise ``-1``.
    sa_lo, sa_hi:
        Half-open interval of suffix-array ranks of the leaves below the node.
    """

    node_id: int
    string_depth: int
    parent: int = -1
    children: list[int] = field(default_factory=list)
    leaf_position: int = -1
    sa_lo: int = 0
    sa_hi: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.leaf_position >= 0

    @property
    def frequency(self) -> int:
        """Number of leaves in the subtree (occurrences of ``str(v)``)."""
        return self.sa_hi - self.sa_lo


class SuffixTree:
    """Suffix tree of an integer text with unique terminator(s).

    Parameters
    ----------
    suffix_array:
        Suffix array of the text.  The text must end with a symbol that occurs
        nowhere else (sentinel-terminated texts produced by
        :func:`repro.strings.documents.concatenate_documents` satisfy this),
        which guarantees that no suffix is a proper prefix of another.
    """

    def __init__(self, suffix_array: SuffixArray) -> None:
        self._sa = suffix_array
        self.text = suffix_array.text
        self.nodes: list[SuffixTreeNode] = []
        self._leaf_of_rank: np.ndarray = np.zeros(0, dtype=np.int64)
        self._leaf_of_position: dict[int, int] = {}
        self._lift: np.ndarray | None = None
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, text: np.ndarray) -> "SuffixTree":
        """Build the suffix tree of ``text`` (appending a unique terminator
        when the last symbol is not already unique)."""
        text = np.asarray(text, dtype=np.int64)
        if len(text) == 0 or np.count_nonzero(text == text[-1]) != 1:
            terminator = (int(text.max()) + 1) if len(text) else 0
            text = np.concatenate([text, np.array([terminator], dtype=np.int64)])
        return cls(SuffixArray.build(text))

    def _new_node(self, string_depth: int, parent: int) -> int:
        node = SuffixTreeNode(
            node_id=len(self.nodes), string_depth=string_depth, parent=parent
        )
        self.nodes.append(node)
        return node.node_id

    def _build(self) -> None:
        sa = self._sa.sa
        lcp = self._sa.lcp
        n = len(sa)
        text_length = len(self.text)

        root = self._new_node(string_depth=0, parent=-1)
        stack = [root]
        self._leaf_of_rank = np.zeros(n, dtype=np.int64)

        for rank in range(n):
            depth = int(lcp[rank]) if rank > 0 else 0
            last_popped = -1
            while self.nodes[stack[-1]].string_depth > depth:
                last_popped = stack.pop()
            top = stack[-1]
            if self.nodes[top].string_depth < depth:
                # Split: insert an internal node between `top` and the node we
                # just popped off the rightmost path.
                mid = self._new_node(string_depth=depth, parent=top)
                self.nodes[top].children.remove(last_popped)
                self.nodes[top].children.append(mid)
                self.nodes[mid].children.append(last_popped)
                self.nodes[last_popped].parent = mid
                stack.append(mid)
                top = mid
            leaf = self._new_node(
                string_depth=text_length - int(sa[rank]), parent=top
            )
            self.nodes[leaf].leaf_position = int(sa[rank])
            self.nodes[top].children.append(leaf)
            stack.append(leaf)
            self._leaf_of_rank[rank] = leaf
            self._leaf_of_position[int(sa[rank])] = leaf

        self._assign_intervals()

    def _assign_intervals(self) -> None:
        """Compute ``sa_lo``/``sa_hi`` for every node with an iterative DFS."""
        rank_of_leaf = {int(self._leaf_of_rank[r]): r for r in range(len(self._leaf_of_rank))}
        order: list[int] = []
        stack = [0]
        while stack:
            node_id = stack.pop()
            order.append(node_id)
            stack.extend(self.nodes[node_id].children)
        for node_id in reversed(order):
            node = self.nodes[node_id]
            if node.is_leaf:
                rank = rank_of_leaf[node_id]
                node.sa_lo, node.sa_hi = rank, rank + 1
            else:
                node.sa_lo = min(self.nodes[c].sa_lo for c in node.children)
                node.sa_hi = max(self.nodes[c].sa_hi for c in node.children)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def root(self) -> SuffixTreeNode:
        return self.nodes[0]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[SuffixTreeNode]:
        return iter(self.nodes)

    def leaf_for_position(self, position: int) -> int:
        """Node id of the leaf representing the suffix starting at
        ``position``."""
        return self._leaf_of_position[position]

    def node_prefix_start(self, node_id: int) -> int:
        """A witness text position where ``str(v)`` occurs (the leftmost
        descending leaf in the paper's terminology)."""
        node = self.nodes[node_id]
        return int(self._sa.sa[node.sa_lo])

    # ------------------------------------------------------------------
    # x-minimal nodes
    # ------------------------------------------------------------------
    def minimal_nodes_at_depth(
        self,
        depth: int,
        is_valid_prefix: Callable[[int, int], bool] | None = None,
    ) -> list[int]:
        """Return the ``depth``-minimal nodes.

        A node ``v`` is ``x``-minimal when ``|str(v)| >= x`` and the string
        depth of its parent is smaller than ``x``: each distinct length-``x``
        substring of the text has exactly one such locus, and the node's
        frequency equals the number of occurrences of that substring.

        Parameters
        ----------
        depth:
            The target string depth ``x``.
        is_valid_prefix:
            Optional predicate ``(witness_position, depth) -> bool``; nodes
            whose length-``depth`` prefix fails the predicate are skipped
            (used to exclude prefixes that cross a document sentinel).
        """
        result: list[int] = []
        for node in self.nodes:
            if node.parent < 0:
                continue
            if node.string_depth < depth:
                continue
            if self.nodes[node.parent].string_depth >= depth:
                continue
            if is_valid_prefix is not None:
                witness = self.node_prefix_start(node.node_id)
                if not is_valid_prefix(witness, depth):
                    continue
            result.append(node.node_id)
        return result

    # ------------------------------------------------------------------
    # Weighted ancestors
    # ------------------------------------------------------------------
    def _build_lifting(self) -> None:
        num_nodes = len(self.nodes)
        levels = max(1, num_nodes.bit_length())
        lift = np.full((levels, num_nodes), -1, dtype=np.int64)
        for node in self.nodes:
            lift[0, node.node_id] = node.parent
        for level in range(1, levels):
            previous = lift[level - 1]
            current = np.where(previous >= 0, previous, 0)
            lifted = previous[current]
            lift[level] = np.where(previous >= 0, lifted, -1)
        self._lift = lift

    def weighted_ancestor(self, node_id: int, min_depth: int) -> int:
        """Return the highest (closest to the root) ancestor of ``node_id``
        (possibly the node itself) whose string depth is at least
        ``min_depth``, or ``-1`` when even ``node_id`` is too shallow."""
        if self.nodes[node_id].string_depth < min_depth:
            return -1
        if self._lift is None:
            self._build_lifting()
        assert self._lift is not None
        current = node_id
        for level in range(self._lift.shape[0] - 1, -1, -1):
            candidate = int(self._lift[level, current])
            if candidate >= 0 and self.nodes[candidate].string_depth >= min_depth:
                current = candidate
        return current

    # ------------------------------------------------------------------
    # Compacted-trie style statistics (for the storage-size claims)
    # ------------------------------------------------------------------
    def height(self) -> int:
        """Number of edges on the longest root-to-leaf path."""
        depth = {0: 0}
        best = 0
        stack = [0]
        while stack:
            node_id = stack.pop()
            for child in self.nodes[node_id].children:
                depth[child] = depth[node_id] + 1
                best = max(best, depth[child])
                stack.append(child)
        return best
