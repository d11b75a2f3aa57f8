"""Tries and compacted tries over string collections.

The candidate trie ``T_C`` of the construction algorithm is a :class:`Trie`
whose nodes carry exact and noisy counts while the object reference
pipeline builds it; the released structure
(:class:`repro.core.private_trie.PrivateCountingTrie`) keeps only the noisy
counts, in arrays.  :class:`CompactedTrie` implements the classic compaction
(dissolving non-branching internal nodes) used to discuss storage bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = ["TrieNode", "Trie", "CompactedTrie"]


class TrieNode:
    """A trie node.

    Attributes
    ----------
    char:
        Label of the edge from the parent ('' for the root).
    parent:
        Parent node (``None`` for the root).
    children:
        Mapping from edge character to child node.
    depth:
        String depth (length of the spelled string).
    count:
        Exact count attached by construction algorithms (optional).
    noisy_count:
        Differentially private count attached by construction algorithms
        (optional).
    """

    __slots__ = ("char", "parent", "children", "depth", "count", "noisy_count")

    def __init__(self, char: str = "", parent: "TrieNode | None" = None) -> None:
        self.char = char
        self.parent = parent
        self.children: dict[str, TrieNode] = {}
        self.depth = 0 if parent is None else parent.depth + 1
        self.count: float | None = None
        self.noisy_count: float | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrieNode(char={self.char!r}, depth={self.depth})"

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def string(self) -> str:
        """The string spelled from the root to this node (``str(v)``)."""
        parts: list[str] = []
        node: TrieNode | None = self
        while node is not None and node.parent is not None:
            parts.append(node.char)
            node = node.parent
        return "".join(reversed(parts))


class Trie:
    """A rooted labeled trie supporting insertion, search and traversal."""

    def __init__(self, strings: Iterable[str] = ()) -> None:
        self.root = TrieNode()
        self._num_nodes = 1
        for string in strings:
            self.insert(string)

    # ------------------------------------------------------------------
    # Modification
    # ------------------------------------------------------------------
    def insert(self, string: str) -> TrieNode:
        """Insert ``string`` and return the node spelling it (creating
        intermediate nodes as needed)."""
        node = self.root
        for char in string:
            child = node.children.get(char)
            if child is None:
                child = TrieNode(char, node)
                node.children[char] = child
                self._num_nodes += 1
            node = child
        return node

    def delete_subtree(self, node: TrieNode) -> int:
        """Remove ``node`` and its subtree; return the number of removed
        nodes.  The root cannot be removed."""
        if node.parent is None:
            raise ValueError("cannot delete the trie root")
        removed = sum(1 for _ in self._iter_subtree(node))
        del node.parent.children[node.char]
        node.parent = None
        self._num_nodes -= removed
        return removed

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find(self, string: str) -> TrieNode | None:
        """Return the node spelling ``string``, or ``None``."""
        node = self.root
        for char in string:
            node = node.children.get(char)
            if node is None:
                return None
        return node

    def __contains__(self, string: str) -> bool:
        return self.find(string) is not None

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    @staticmethod
    def _iter_subtree(node: TrieNode) -> Iterator[TrieNode]:
        stack = [node]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(current.children.values())

    def iter_nodes(self, include_root: bool = True) -> Iterator[TrieNode]:
        """Iterate over all nodes in DFS preorder."""
        for node in self._iter_subtree(self.root):
            if include_root or node is not self.root:
                yield node

    def iter_strings(self) -> Iterator[str]:
        """Iterate over the strings spelled by all non-root nodes."""
        # A DFS that carries the spelled string avoids the O(depth) cost of
        # TrieNode.string() per node.
        stack: list[tuple[TrieNode, str]] = [(self.root, "")]
        while stack:
            node, prefix = stack.pop()
            if node is not self.root:
                yield prefix
            for char, child in node.children.items():
                stack.append((child, prefix + char))

    def leaves(self) -> list[TrieNode]:
        return [node for node in self.iter_nodes() if node.is_leaf]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def height(self) -> int:
        """Maximum string depth over all nodes."""
        return max((node.depth for node in self.iter_nodes()), default=0)

    def subtree_size(self, node: TrieNode) -> int:
        return sum(1 for _ in self._iter_subtree(node))


@dataclass
class CompactedTrieNode:
    """Node of a compacted trie; edges carry string labels."""

    label: str
    depth: int
    children: dict[str, "CompactedTrieNode"] = field(default_factory=dict)
    is_terminal: bool = False

    @property
    def is_leaf(self) -> bool:
        return not self.children


class CompactedTrie:
    """Compacted trie (branching nodes, the root and the leaves only).

    Built from a set of strings; non-branching unary paths are collapsed into
    single edges labeled by strings, which bounds the number of nodes by twice
    the number of inserted strings.
    """

    def __init__(self, strings: Iterable[str] = ()) -> None:
        trie = Trie(strings)
        terminal_nodes = {id(trie.find(s)) for s in set(strings) if s}
        self.root = self._compact(trie.root, terminal_nodes, depth=0)
        self._num_nodes = sum(1 for _ in self.iter_nodes())

    def _compact(
        self, node: TrieNode, terminal_nodes: set[int], depth: int
    ) -> CompactedTrieNode:
        compacted = CompactedTrieNode(
            label="", depth=depth, is_terminal=id(node) in terminal_nodes
        )
        for char, child in node.children.items():
            # Walk down unary, non-terminal chains.
            label_parts = [char]
            current = child
            while (
                len(current.children) == 1
                and id(current) not in terminal_nodes
            ):
                (next_char, next_child), = current.children.items()
                label_parts.append(next_char)
                current = next_child
            label = "".join(label_parts)
            subtree = self._compact(current, terminal_nodes, depth + len(label))
            subtree.label = label
            compacted.children[char] = subtree
        return compacted

    # ------------------------------------------------------------------
    def iter_nodes(self) -> Iterator[CompactedTrieNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def find(self, string: str) -> CompactedTrieNode | None:
        """Return the node whose spelled string equals ``string`` exactly
        (i.e. ``string`` ends precisely at a node), or ``None``."""
        node = self.root
        position = 0
        while position < len(string):
            child = node.children.get(string[position])
            if child is None:
                return None
            label = child.label
            if string[position : position + len(label)] != label:
                return None
            position += len(label)
            node = child
        return node
