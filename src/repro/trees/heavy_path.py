"""Heavy path decomposition (Sleator-Tarjan).

A heavy path decomposition partitions the edges of a rooted tree into *heavy*
and *light* edges: every internal node has exactly one heavy edge, pointing to
the child whose subtree contains the most nodes.  Maximal chains of heavy
edges are *heavy paths*.  The key property (Lemma 9 of the paper) is that any
root-to-leaf path crosses at most ``floor(log2 N)`` light edges, hence at most
``floor(log2 N) + 1`` heavy paths.

The decomposition is generic: it works on any rooted tree described by a root
object and a ``children`` callable, so the same code serves the candidate trie
``T_C`` (nodes are :class:`repro.strings.trie.TrieNode`), the generic tree
counting of Theorems 8/9 (nodes are arbitrary hashables) and the test-suite's
random trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterable, TypeVar

import numpy as np

__all__ = ["HeavyPath", "HeavyPathDecomposition", "FlatHeavyPathDecomposition"]

Node = TypeVar("Node", bound=Hashable)


@dataclass
class HeavyPath(Generic[Node]):
    """One heavy path, listed from its topmost node (the *root* of the path)
    downwards."""

    index: int
    nodes: list[Node]

    @property
    def root(self) -> Node:
        return self.nodes[0]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)


class HeavyPathDecomposition(Generic[Node]):
    """Heavy path decomposition of a rooted tree.

    Parameters
    ----------
    root:
        The root node.
    children:
        Callable returning the children of a node.  The tree must be finite
        and acyclic; nodes must be hashable.
    """

    def __init__(self, root: Node, children: Callable[[Node], Iterable[Node]]) -> None:
        self.root = root
        self._children = children
        self.subtree_size: dict[Node, int] = {}
        self.parent: dict[Node, Node | None] = {}
        self.depth: dict[Node, int] = {}
        self.paths: list[HeavyPath[Node]] = []
        #: node -> (path index, position within the path)
        self.position: dict[Node, tuple[int, int]] = {}
        self._decompose()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _decompose(self) -> None:
        order = self._postorder()
        # Subtree sizes bottom-up.
        for node in order:
            self.subtree_size[node] = 1 + sum(
                self.subtree_size[child] for child in self._children(node)
            )
        # Heavy child of every internal node.
        heavy_child: dict[Node, Node] = {}
        for node in order:
            children = list(self._children(node))
            if children:
                heavy_child[node] = max(children, key=lambda c: self.subtree_size[c])
        # Build the paths: each path starts at the tree root or at a node
        # reached through a light edge.
        path_starts: list[Node] = [self.root]
        stack = [self.root]
        while stack:
            node = stack.pop()
            heavy = heavy_child.get(node)
            for child in self._children(node):
                if child is not heavy:
                    path_starts.append(child)
                stack.append(child)
        for start in path_starts:
            nodes = [start]
            current = start
            while current in heavy_child:
                current = heavy_child[current]
                nodes.append(current)
            path = HeavyPath(index=len(self.paths), nodes=nodes)
            self.paths.append(path)
            for offset, node in enumerate(nodes):
                self.position[node] = (path.index, offset)

    def _postorder(self) -> list[Node]:
        """Iterative post-order traversal (children before parents)."""
        order: list[Node] = []
        stack: list[Node] = [self.root]
        self.parent[self.root] = None
        self.depth[self.root] = 0
        while stack:
            node = stack.pop()
            order.append(node)
            for child in self._children(node):
                self.parent[child] = node
                self.depth[child] = self.depth[node] + 1
                stack.append(child)
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.subtree_size)

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    def path_roots(self) -> list[Node]:
        """The topmost node of every heavy path."""
        return [path.root for path in self.paths]

    def path_of(self, node: Node) -> HeavyPath[Node]:
        """The heavy path containing ``node``."""
        index, _ = self.position[node]
        return self.paths[index]

    def offset_on_path(self, node: Node) -> int:
        """Position of ``node`` within its heavy path (0 for the path root)."""
        _, offset = self.position[node]
        return offset

    def is_path_root(self, node: Node) -> bool:
        return self.offset_on_path(node) == 0

    def light_edges_to(self, node: Node) -> int:
        """Number of light edges on the root-to-``node`` path (Lemma 9 bounds
        this by ``floor(log2 N)``)."""
        count = 0
        current: Node | None = node
        while current is not None:
            parent = self.parent[current]
            if parent is not None and not self._is_heavy_edge(parent, current):
                count += 1
            current = parent
        return count

    def heavy_paths_crossed_by(self, node: Node) -> list[int]:
        """Indices of the heavy paths intersected by the root-to-``node``
        path, from the deepest upwards."""
        crossed: list[int] = []
        current: Node | None = node
        while current is not None:
            path_index, offset = self.position[current]
            crossed.append(path_index)
            # Jump to the parent of the path root.
            path_root = self.paths[path_index].nodes[0]
            current = self.parent[path_root]
        return crossed

    def _is_heavy_edge(self, parent: Node, child: Node) -> bool:
        path_index, offset = self.position[child]
        if offset == 0:
            return False
        return self.paths[path_index].nodes[offset - 1] is parent or (
            self.paths[path_index].nodes[offset - 1] == parent
        )

    # ------------------------------------------------------------------
    # Derived data used by the private counting algorithms
    # ------------------------------------------------------------------
    def difference_sequences(
        self, counts: Callable[[Node], float]
    ) -> list[list[float]]:
        """The difference sequence of ``counts`` along every heavy path.

        For a path ``v_0, v_1, ..., v_{t-1}`` the sequence has ``t - 1``
        entries ``counts(v_i) - counts(v_{i-1})`` (empty for single-node
        paths).
        """
        sequences: list[list[float]] = []
        for path in self.paths:
            values = [counts(node) for node in path.nodes]
            sequences.append(
                [values[i] - values[i - 1] for i in range(1, len(values))]
            )
        return sequences

    def max_path_length(self) -> int:
        """Length (number of nodes) of the longest heavy path."""
        return max((len(path) for path in self.paths), default=0)


class FlatHeavyPathDecomposition:
    """Heavy path decomposition over a tree stored as flat numpy arrays.

    The tree is described in the radix layout the array construction
    pipeline (:mod:`repro.core.array_build`) produces: node ``0`` is the
    root, node ids are depth-major (all depth-1 nodes, then depth-2, ...),
    ``parents`` holds each node's parent id (``-1`` for the root) and
    ``depths`` the string depths.  Inside a level, nodes are grouped by
    parent in sibling order, so every node's children are a contiguous id
    range of the next level.

    The decomposition is **order-identical** to running
    :class:`HeavyPathDecomposition` on the same tree with ``children``
    returning the children in the same sibling order: identical heavy-child
    choices (first maximal-subtree child wins ties), identical path index
    order (the object version appends path starts while popping a DFS stack
    that visits children in *descending* sibling order, so a node's light
    children are numbered after every light child of the nodes that DFS
    visits before it), and identical per-path node offsets.  The array
    construction pipeline relies on this to draw its noise in exactly the
    linked-object reference pipeline's RNG order;
    ``tests/core/test_build_backends.py`` asserts the equivalence on random
    tries.

    Everything is computed one level at a time — subtree sizes and light
    edge counts bottom-up, path ids and offsets top-down — so no pass holds
    a temporary larger than one level, and no per-node Python work.
    """

    def __init__(self, parents: np.ndarray, depths: np.ndarray) -> None:
        n = int(parents.size)
        self.num_nodes = n
        max_depth = int(depths[-1])
        # Depth-major node ids make every level a contiguous id slice.
        level_bounds = np.searchsorted(depths, np.arange(max_depth + 2)).tolist()

        # --------------------------------------------------------------
        # Bottom-up: subtree sizes, the heavy child of every internal node
        # (the *first* child in sibling order whose subtree is maximal,
        # exactly like max(children, key=subtree_size)) and the number of
        # light edges inside every subtree.
        # --------------------------------------------------------------
        size = np.ones(n, dtype=np.int64)
        light_below = np.zeros(n, dtype=np.int64)
        heavy = np.zeros(n, dtype=bool)
        for depth in range(max_depth, 0, -1):
            lo, hi = level_bounds[depth], level_bounds[depth + 1]
            first, ends, run_of = _sibling_runs(parents[lo:hi])
            owners = parents[lo + first]
            sizes = size[lo:hi]
            maximal = np.flatnonzero(np.maximum.reduceat(sizes, first)[run_of] == sizes)
            heavy[lo + maximal[np.searchsorted(maximal, first)]] = True
            size[owners] += np.add.reduceat(sizes, first)
            light_below[owners] += (ends - first - 1) + np.add.reduceat(
                light_below[lo:hi], first
            )
        self.subtree_size = size

        # --------------------------------------------------------------
        # Top-down: a heavy child continues its parent's path one offset
        # further; a light child starts a path.  The object version numbers
        # a node's light children (in sibling order) right after every light
        # child of the nodes its DFS pops earlier: the node's ancestors'
        # light children counted so far plus the subtrees of its *later*
        # siblings, which the descending DFS visits first.
        # --------------------------------------------------------------
        path_id = np.zeros(n, dtype=np.int64)
        offset = np.zeros(n, dtype=np.int64)
        # light children numbered before each node's own, for one level
        lights_before = np.zeros(1, dtype=np.int64)
        for depth in range(1, max_depth + 1):
            lo, hi = level_bounds[depth], level_bounds[depth + 1]
            level_parents = parents[lo:hi]
            first, ends, run_of = _sibling_runs(level_parents)
            owner_before = lights_before[level_parents - level_bounds[depth - 1]]
            is_heavy = heavy[lo:hi]
            index = np.arange(hi - lo)
            heavy_index = np.flatnonzero(is_heavy)[run_of]
            light_rank = index - first[run_of] - (heavy_index < index)
            path_id[lo:hi] = np.where(
                is_heavy, path_id[level_parents], 1 + owner_before + light_rank
            )
            offset[lo:hi] = np.where(is_heavy, offset[level_parents] + 1, 0)
            running = np.cumsum(light_below[lo:hi])
            later_siblings = running[ends - 1][run_of] - running
            lights_before = owner_before + (ends - first - 1)[run_of] + later_siblings
        self.path_id = path_id
        self.offset_on_path = offset
        self.num_paths = int(light_below[0]) + 1
        self.path_length = np.bincount(path_id, minlength=self.num_paths)
        self.path_offsets = np.concatenate(
            ([0], np.cumsum(self.path_length))
        ).astype(np.int64)

        # --------------------------------------------------------------
        # Path starts and node ids ordered by (path, offset), scattered one
        # level at a time: path p's nodes are the slice
        # path_nodes[path_offsets[p]:path_offsets[p + 1]], topmost first.
        # --------------------------------------------------------------
        self.path_start = np.zeros(self.num_paths, dtype=np.int64)
        self.path_nodes = np.zeros(n, dtype=np.int64)
        for depth in range(max_depth + 1):
            lo, hi = level_bounds[depth], level_bounds[depth + 1]
            level_paths = path_id[lo:hi]
            level_offsets = offset[lo:hi]
            nodes = np.arange(lo, hi)
            self.path_nodes[self.path_offsets[level_paths] + level_offsets] = nodes
            starts = level_offsets == 0
            self.path_start[level_paths[starts]] = nodes[starts]

    def max_path_length(self) -> int:
        """Length (number of nodes) of the longest heavy path."""
        return int(self.path_length.max()) if self.num_paths else 0

    def difference_offsets(self) -> np.ndarray:
        """Boundaries of the per-path difference sequences in the flat
        layout of :meth:`difference_sequences_flat` (length
        ``num_paths + 1``; sequence ``p`` has ``path_length[p] - 1``
        entries)."""
        return np.concatenate(([0], np.cumsum(self.path_length - 1)))

    def difference_sequences_flat(self, counts: np.ndarray) -> np.ndarray:
        """All per-path difference sequences, concatenated path-major.

        Equivalent to flattening
        :meth:`HeavyPathDecomposition.difference_sequences`: entry ``m - 1``
        of path ``p``'s sequence is ``counts[v_m] - counts[v_{m-1}]`` along
        the path's nodes — consecutive entries of :attr:`path_nodes`, minus
        the steps that cross into the next path.
        """
        along = counts[self.path_nodes]
        steps = np.ones(self.num_nodes, dtype=bool)
        steps[self.path_offsets[:-1]] = False
        return (along[1:] - along[:-1])[steps[1:]]


def _sibling_runs(
    level_parents: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sibling groups of one level slice whose (nondecreasing) parents are
    ``level_parents``: each group's first and one-past-last index, and each
    node's group."""
    new_run = np.ones(level_parents.size, dtype=bool)
    new_run[1:] = level_parents[1:] != level_parents[:-1]
    first = np.flatnonzero(new_run)
    return first, np.append(first[1:], level_parents.size), np.cumsum(new_run) - 1
