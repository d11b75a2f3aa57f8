"""Array primitives of the ``build_backend="array"`` construction pipeline.

The object pipeline builds Python ``TrieNode`` graphs and walks them one node
at a time; this module supplies the numpy building blocks that let the same
construction run as a handful of flat-array passes:

* **Code matrices** — every candidate set is an ``(k, length)`` int32 matrix
  of Unicode code points (:func:`pack_strings` / :func:`decode_rows`), padded
  with :data:`PAD` (which sorts before every real code, so a padded
  ``lexsort`` reproduces Python's string order exactly).
* **Sort-join counting** (:class:`SortJoinCounter`) — exact ``count_Delta``
  for a uniform-length pattern batch by sorting the corpus windows of that
  length once and binary-searching the patterns into them; bit-identical to
  the :mod:`repro.counting` engines (integers are integers), typically much
  faster than building a per-batch automaton.
* **Radix trie construction** (:func:`build_array_trie`) — the candidate
  trie as CSR-style arrays built in one pass over the lexsorted candidate
  matrix; node patterns are slices of the sorted matrix, never
  ``node.string()`` parent walks.
* **Suffix/prefix joins** (:func:`match_overlap_pairs`) — the hash-bucketed
  replacement for the O(k^2) LCE double loop of the completion step.
* **Counter assembly** (:func:`counter_columns`) — the pruned arrays become
  the columns of the released :class:`~repro.core.private_trie.
  PrivateCountingTrie` directly, with no object graph in between; every
  other producer reaches the same layout through
  :meth:`~repro.core.private_trie.PrivateCountingTrie.from_counts`.

Everything here is exact bookkeeping — no randomness, no privacy logic; the
mechanisms are applied by the callers in :mod:`repro.core.candidate_set` and
:mod:`repro.core.construction`, in the same order as the object pipeline.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.database import StringDatabase

__all__ = [
    "PAD",
    "ArrayTrie",
    "SortJoinCounter",
    "build_array_trie",
    "counter_columns",
    "decode_rows",
    "dedup_rows",
    "lexsort_rows",
    "match_overlap_pairs",
    "pack_strings",
    "row_bytes",
]

#: Padding code for positions past a string's end.  Any real code point is
#: non-negative, so PAD sorts first — exactly Python's "prefix before
#: extension" string order under a padded lexsort.
PAD = -1


# ----------------------------------------------------------------------
# String <-> code-matrix codecs
# ----------------------------------------------------------------------
def pack_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Encode ``strings`` as a PAD-padded ``(k, max_len)`` int32 code matrix
    plus the vector of true lengths.

    One bulk UTF-32 encode replaces the per-character ``np.fromiter`` loops;
    the codes are raw ``ord`` values, so lexicographic comparisons on rows
    match Python string comparisons.
    """
    k = len(strings)
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=k)
    max_len = int(lengths.max()) if k else 0
    matrix = np.full((k, max_len), PAD, dtype=np.int32)
    if k and max_len:
        codes = np.frombuffer(
            "".join(strings).encode("utf-32-le", "surrogatepass"), dtype=np.uint32
        ).astype(np.int32)
        mask = np.arange(max_len)[None, :] < lengths[:, None]
        matrix[mask] = codes
    return matrix, lengths


def decode_rows(matrix: np.ndarray, lengths: np.ndarray | None = None) -> list[str]:
    """Decode code-matrix rows back into strings with one bulk UTF-32 decode.

    ``lengths`` gives each row's true length; omitted means every row spans
    the full matrix width (no padding).
    """
    k, width = matrix.shape
    if k == 0:
        return []
    if lengths is None:
        joined = matrix.astype("<u4").tobytes().decode("utf-32-le")
        return [joined[i * width : (i + 1) * width] for i in range(k)]
    mask = np.arange(width)[None, :] < np.asarray(lengths)[:, None]
    joined = matrix[mask].astype("<u4").tobytes().decode("utf-32-le")
    bounds = np.concatenate(([0], np.cumsum(lengths))).tolist()
    return [joined[bounds[i] : bounds[i + 1]] for i in range(k)]


def row_bytes(matrix: np.ndarray) -> np.ndarray:
    """Each row as one fixed-width big-endian byte string (dtype ``S4w``).

    Byte-wise comparisons on the result order rows exactly like
    lexicographic comparison of their code points, which makes whole rows
    sortable / searchable with numpy's string machinery.  Rows must be
    unpadded (uniform width).
    """
    k, width = matrix.shape
    if k == 0 or width == 0:
        return np.zeros(k, dtype="S1")
    buffer = np.ascontiguousarray(matrix).astype(">u4").tobytes()
    return np.frombuffer(buffer, dtype=f"S{4 * width}")


def lexsort_rows(matrix: np.ndarray) -> np.ndarray:
    """Indices sorting the matrix rows lexicographically (first column most
    significant) — with PAD padding this is Python's string sort order."""
    if matrix.shape[0] <= 1 or matrix.shape[1] == 0:
        return np.arange(matrix.shape[0])
    return np.lexsort(matrix.T[::-1])


def dedup_rows(matrix: np.ndarray) -> np.ndarray:
    """Sort the rows lexicographically and drop duplicates — the array form
    of ``sorted(set(strings))`` for uniform-length strings."""
    if matrix.shape[0] <= 1:
        return matrix.copy()
    ordered = matrix[lexsort_rows(matrix)]
    keep = np.empty(ordered.shape[0], dtype=bool)
    keep[0] = True
    keep[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[keep]


# ----------------------------------------------------------------------
# Suffix/prefix overlap joins
# ----------------------------------------------------------------------
def match_overlap_pairs(
    suffix_keys: np.ndarray, prefix_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs ``(i, j)`` with ``suffix_keys[i] == prefix_keys[j]``.

    Keys are compared exactly (byte keys from :func:`row_bytes`), so this is
    the hash-bucketed equivalent of asking an LCE structure whether string
    ``i``'s suffix equals string ``j``'s prefix — O(k log k) instead of the
    O(k^2) double loop.  Pairs come out ``i``-major with ``j`` ascending
    inside each ``i`` (the double loop's order).
    """
    if suffix_keys.size == 0 or prefix_keys.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    _, inverse = np.unique(
        np.concatenate([suffix_keys, prefix_keys]), return_inverse=True
    )
    suffix_labels = inverse[: suffix_keys.size]
    prefix_labels = inverse[suffix_keys.size :]
    by_label = np.argsort(prefix_labels, kind="stable")
    sorted_labels = prefix_labels[by_label]
    group_lo = np.searchsorted(sorted_labels, suffix_labels, side="left")
    group_hi = np.searchsorted(sorted_labels, suffix_labels, side="right")
    counts = group_hi - group_lo
    total = int(counts.sum())
    left = np.repeat(np.arange(suffix_keys.size), counts)
    within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    right = by_label[np.repeat(group_lo, counts) + within]
    return left, right


# ----------------------------------------------------------------------
# Sort-join exact counting
# ----------------------------------------------------------------------
class SortJoinCounter:
    """Exact ``count_Delta`` for uniform-length pattern batches.

    For a batch of width-``w`` patterns the corpus has at most ``N`` windows
    of width ``w``; sorting those windows once and binary-searching every
    pattern answers the whole batch in ``O((N + k) log N)`` C-level work.
    Per-document capping folds runs of equal ``(window, document)`` pairs
    and caps each run at ``Delta``.  Counts are integers, hence bitwise
    identical to every :mod:`repro.counting` engine
    (``tests/core/test_build_backends.py`` asserts this) — which is what
    lets the array pipeline use it under ``count_backend="auto"`` without
    perturbing any released value.
    """

    def __init__(self, database: StringDatabase) -> None:
        self.database = database
        documents = database.documents
        self._codes = np.frombuffer(
            "".join(documents).encode("utf-32-le"), dtype=np.uint32
        ).astype(np.int32)
        doc_lengths = np.fromiter(
            map(len, documents), dtype=np.int64, count=len(documents)
        )
        self._doc_of = np.repeat(np.arange(len(documents)), doc_lengths)
        self._max_doc_length = int(doc_lengths.max()) if len(documents) else 0
        #: width -> (sorted window keys, sorted window docs), LRU-evicted
        #: once the cached arrays exceed the byte budget below.
        self._window_cache: "OrderedDict[int, tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        self._window_cache_bytes = 0

    @classmethod
    def shared(cls, database: StringDatabase) -> "SortJoinCounter":
        """The database's cached counter (one corpus encode per database;
        the candidate, annotation and q-gram stages of a build all reuse
        it — and with it the sorted-window cache below)."""
        counter = getattr(database, "_sortjoin_counter", None)
        if counter is None:
            counter = cls(database)
            database._sortjoin_counter = counter
        return counter

    #: cap on the cached sorted-window arrays (LRU beyond this).  Power-of-
    #: two widths are the ones every build needs twice (doubling levels,
    #: then trie annotation one stage later); on corpora large enough to
    #: blow this budget the duplicate sort is cheaper than pinning gigabytes
    #: on a long-lived database object.
    WINDOW_CACHE_BUDGET = 128 << 20

    def _sorted_windows(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted byte keys and document ids of every width-``width`` corpus
        window.  Power-of-two widths are memoized (within the byte budget):
        the doubling levels count them and the trie annotation counts them
        again one stage later, while every other width is needed at most
        once per build (so caching it would only grow memory)."""
        cached = self._window_cache.get(width)
        if cached is not None:
            self._window_cache.move_to_end(width)
            return cached
        total = self._codes.size
        windows = np.lib.stride_tricks.sliding_window_view(self._codes, width)
        # A window is valid when it stays inside one document.
        valid = self._doc_of[: total - width + 1] == self._doc_of[width - 1 :]
        window_keys = row_bytes(windows[valid])
        window_docs = self._doc_of[: total - width + 1][valid]
        if window_keys.size:
            order = np.argsort(window_keys, kind="stable")
            window_keys = window_keys[order]
            window_docs = window_docs[order]
        result = (window_keys, window_docs)
        nbytes = int(window_keys.nbytes + window_docs.nbytes)
        if width & (width - 1) == 0 and nbytes <= self.WINDOW_CACHE_BUDGET:
            self._window_cache[width] = result
            self._window_cache_bytes += nbytes
            while self._window_cache_bytes > self.WINDOW_CACHE_BUDGET:
                _, (old_keys, old_docs) = self._window_cache.popitem(last=False)
                self._window_cache_bytes -= int(old_keys.nbytes + old_docs.nbytes)
        return result

    def counts(self, patterns: np.ndarray, delta_cap: int) -> np.ndarray:
        """Counts for a ``(k, w)`` unpadded pattern code matrix."""
        k, width = patterns.shape
        if k == 0:
            return np.zeros(0, dtype=np.int64)
        if width == 0:
            empty = sum(
                min(len(document), delta_cap) for document in self.database.documents
            )
            return np.full(k, empty, dtype=np.int64)
        if width > self._max_doc_length:
            return np.zeros(k, dtype=np.int64)
        window_keys, window_docs = self._sorted_windows(width)
        if window_keys.size == 0:
            return np.zeros(k, dtype=np.int64)
        pattern_keys = row_bytes(patterns)
        lo = np.searchsorted(window_keys, pattern_keys, side="left")
        hi = np.searchsorted(window_keys, pattern_keys, side="right")
        if delta_cap >= self._max_doc_length:
            return (hi - lo).astype(np.int64)
        # Runs of equal (window, document); each run is capped at Delta.
        new_run = np.empty(window_keys.size, dtype=bool)
        new_run[0] = True
        new_run[1:] = (window_keys[1:] != window_keys[:-1]) | (
            window_docs[1:] != window_docs[:-1]
        )
        run_starts = np.flatnonzero(new_run)
        run_lengths = np.diff(np.append(run_starts, window_keys.size))
        capped = np.concatenate(
            ([0], np.cumsum(np.minimum(run_lengths, delta_cap)))
        )
        run_lo = np.searchsorted(run_starts, lo, side="left")
        run_hi = np.searchsorted(run_starts, hi, side="left")
        return (capped[run_hi] - capped[run_lo]).astype(np.int64)


# ----------------------------------------------------------------------
# Radix trie construction over a lexsorted candidate matrix
# ----------------------------------------------------------------------
@dataclass
class ArrayTrie:
    """The candidate trie as flat arrays (node ``0`` is the root).

    Node ids are depth-major — all depth-1 nodes (rows ascending, i.e.
    lexicographic), then depth-2, ... — so every depth is the contiguous id
    slice ``level_bounds[d]:level_bounds[d + 1]``.  Edges are stored in
    child-id order (``children[e]`` is node ``e + 1``), which groups them by
    parent with siblings in ascending label order.  Node ``v`` spells
    ``matrix[node_row[v], :depths[v]]`` — one flat codes buffer backs every
    node pattern.
    """

    num_nodes: int
    parents: np.ndarray
    depths: np.ndarray
    char_codes: np.ndarray
    child_start: np.ndarray
    child_end: np.ndarray
    children: np.ndarray
    node_row: np.ndarray
    level_bounds: np.ndarray
    matrix: np.ndarray
    row_lengths: np.ndarray

    @property
    def max_depth(self) -> int:
        return int(self.level_bounds.size - 2)

    def level(self, depth: int) -> np.ndarray:
        """Node ids at string depth ``depth`` (a contiguous range)."""
        return np.arange(
            int(self.level_bounds[depth]), int(self.level_bounds[depth + 1])
        )

    def level_patterns(self, depth: int) -> np.ndarray:
        """The code matrix of the depth-``depth`` node patterns (one row per
        node, sliced straight from the sorted candidate matrix)."""
        lo, hi = int(self.level_bounds[depth]), int(self.level_bounds[depth + 1])
        return self.matrix[self.node_row[lo:hi], :depth]

    def node_strings(self) -> list[str]:
        """Every non-root node's pattern, in node-id order (depth-major)."""
        patterns: list[str] = []
        for depth in range(1, self.max_depth + 1):
            patterns.extend(decode_rows(self.level_patterns(depth)))
        return patterns


def build_array_trie(matrix: np.ndarray, lengths: np.ndarray) -> ArrayTrie:
    """Build the trie of all prefixes of the (distinct, lexsorted) rows.

    One radix pass: consecutive-row LCPs mark, per depth, exactly the rows
    whose depth-``d`` prefix is new; those prefixes are the depth-``d``
    nodes, parents fall out of a ``searchsorted`` against the previous
    depth's creation rows, and the child CSR slices fall out of the
    depth-major id layout.  No per-node Python work.
    """
    num_rows, width = matrix.shape
    if num_rows == 0 or width == 0:
        return ArrayTrie(
            num_nodes=1,
            parents=np.full(1, -1, dtype=np.int64),
            depths=np.zeros(1, dtype=np.int64),
            char_codes=np.full(1, PAD, dtype=np.int64),
            child_start=np.zeros(1, dtype=np.int64),
            child_end=np.zeros(1, dtype=np.int64),
            children=np.zeros(0, dtype=np.int64),
            node_row=np.zeros(1, dtype=np.int64),
            level_bounds=np.array([0, 1], dtype=np.int64),
            matrix=matrix,
            row_lengths=lengths,
        )
    lcp = np.zeros(num_rows, dtype=np.int64)
    if num_rows > 1:
        equal = matrix[1:] == matrix[:-1]
        lcp[1:] = np.cumprod(equal, axis=1).sum(axis=1)
    creation_rows: list[np.ndarray] = []
    for depth in range(1, width + 1):
        creation_rows.append(np.flatnonzero((lengths >= depth) & (lcp < depth)))
    while creation_rows and creation_rows[-1].size == 0:
        creation_rows.pop()
    max_depth = len(creation_rows)
    counts = np.array([rows.size for rows in creation_rows], dtype=np.int64)
    level_bounds = np.concatenate(([0, 1], 1 + np.cumsum(counts))).astype(np.int64)
    num_nodes = int(level_bounds[-1])

    parents = np.full(num_nodes, -1, dtype=np.int64)
    depths = np.zeros(num_nodes, dtype=np.int64)
    char_codes = np.full(num_nodes, PAD, dtype=np.int64)
    node_row = np.zeros(num_nodes, dtype=np.int64)
    for depth in range(1, max_depth + 1):
        lo, hi = int(level_bounds[depth]), int(level_bounds[depth + 1])
        rows = creation_rows[depth - 1]
        node_row[lo:hi] = rows
        depths[lo:hi] = depth
        char_codes[lo:hi] = matrix[rows, depth - 1]
        if depth == 1:
            parents[lo:hi] = 0
        else:
            previous = creation_rows[depth - 2]
            covering = np.searchsorted(previous, rows, side="right") - 1
            parents[lo:hi] = level_bounds[depth - 1] + covering

    # Edges in child-id order are grouped by parent (parents are
    # nondecreasing inside every depth block and blocks never interleave),
    # so the CSR slices come from searchsorted per depth block.
    child_start = np.zeros(num_nodes, dtype=np.int64)
    child_end = np.zeros(num_nodes, dtype=np.int64)
    children = np.arange(1, num_nodes, dtype=np.int64)
    for depth in range(1, max_depth + 1):
        lo, hi = int(level_bounds[depth]), int(level_bounds[depth + 1])
        block_parents = parents[lo:hi]
        parent_lo = int(level_bounds[depth - 1])
        parent_hi = int(level_bounds[depth])
        parent_ids = np.arange(parent_lo, parent_hi)
        child_start[parent_lo:parent_hi] = (lo - 1) + np.searchsorted(
            block_parents, parent_ids, side="left"
        )
        child_end[parent_lo:parent_hi] = (lo - 1) + np.searchsorted(
            block_parents, parent_ids, side="right"
        )
    return ArrayTrie(
        num_nodes=num_nodes,
        parents=parents,
        depths=depths,
        char_codes=char_codes,
        child_start=child_start,
        child_end=child_end,
        children=children,
        node_row=node_row,
        level_bounds=level_bounds,
        matrix=matrix,
        row_lengths=lengths,
    )


def annotate_counts_array(
    trie: ArrayTrie,
    database: StringDatabase,
    delta_cap: int,
    *,
    count_backend: str = "auto",
) -> np.ndarray:
    """Exact ``count_Delta`` of every node pattern, as a float64 vector.

    ``"auto"`` routes every depth level (a uniform-length batch sliced off
    the sorted candidate matrix) through :class:`SortJoinCounter`; a
    concrete backend name is honored by decoding the node patterns into one
    :meth:`~repro.core.database.StringDatabase.count_many` batch.  Counts
    are integers either way, so the choice never changes a released value.
    """
    counts = np.zeros(trie.num_nodes, dtype=np.float64)
    counts[0] = float(
        sum(min(len(document), delta_cap) for document in database.documents)
    )
    if trie.num_nodes == 1:
        return counts
    if count_backend == "auto":
        counter = SortJoinCounter.shared(database)
        for depth in range(1, trie.max_depth + 1):
            lo, hi = int(trie.level_bounds[depth]), int(trie.level_bounds[depth + 1])
            counts[lo:hi] = counter.counts(trie.level_patterns(depth), delta_cap)
    else:
        counts[1:] = database.count_many(
            trie.node_strings(), delta_cap, backend=count_backend
        )
    return counts


# ----------------------------------------------------------------------
# Counter assembly: pruned arrays -> the counter's canonical columns
# ----------------------------------------------------------------------
def counter_columns(trie: ArrayTrie, noisy: np.ndarray, keep: np.ndarray) -> dict:
    """The constructor columns of the :class:`~repro.core.private_trie.
    PrivateCountingTrie` storing the ``keep`` nodes of ``trie`` with counts
    ``noisy`` (``NaN`` for a node that stores none).

    ``keep`` must be ancestor-closed.  Survivors keep the depth-major id
    order with ascending sibling labels, so parents precede children and
    edge keys come out globally sorted, the layout the counter's batch walk
    requires.  Labels are coded in code point order.
    """
    survivors = np.flatnonzero(keep)
    new_id = np.cumsum(keep) - 1
    non_root = survivors[1:]
    parent_ids = new_id[trie.parents[non_root]]
    points, label_codes = np.unique(trie.char_codes[non_root], return_inverse=True)
    vocab = {chr(point): code + 1 for code, point in enumerate(points.tolist())}
    vocab_size = len(vocab) + 1
    num_survivors = int(survivors.size)
    parent_codes = np.zeros(num_survivors, dtype=np.int64)
    parent_codes[1:] = label_codes.reshape(-1) + 1
    edge_keys = parent_ids * vocab_size + parent_codes[1:]
    nodes = np.arange(num_survivors)
    return {
        "counts": noisy[survivors].astype(np.float64),
        "depths": trie.depths[survivors].astype(np.int64),
        "parents": np.concatenate(([-1], parent_ids)).astype(np.int64),
        "parent_codes": parent_codes,
        "child_start": np.searchsorted(parent_ids, nodes, side="left").astype(np.int64),
        "child_end": np.searchsorted(parent_ids, nodes, side="right").astype(np.int64),
        "edge_keys": edge_keys,
        "edge_labels": parent_codes[1:].copy(),
        "edge_targets": np.arange(1, num_survivors, dtype=np.int64),
        "vocab": vocab,
    }
