"""Array primitives of the ``build_backend="array"`` construction pipeline.

The object pipeline builds Python ``TrieNode`` graphs and walks them one node
at a time; this module supplies the numpy building blocks that let the same
construction run as a handful of flat-array passes:

* **Code matrices** — every candidate set is an ``(k, length)`` int32 matrix
  of Unicode code points (:func:`pack_strings` / :func:`decode_rows`), padded
  with :data:`PAD` past each string's end.
* **Packed keys** (:class:`PackedKeys`) — one order-preserving int64 (or
  fixed-width byte string) per row, built from alphabet ranks: sorting,
  searching and joining rows is sorting, searching and joining keys.
* **Sort-join counting** (:class:`SortJoinCounter`) — exact ``count_Delta``
  for a uniform-length pattern batch by binary-searching the key of every
  corpus window of that length into the sorted pattern keys, and for a
  doubling level's ``k^2`` concatenations by counting only the pairs whose
  windows occur; bit-identical to the :mod:`repro.counting` engines
  (integers are integers).
* **Radix trie construction** (:func:`build_array_trie`) — the candidate
  trie as depth-major parent arrays built in one pass over the lexsorted
  candidate matrix; node patterns are slices of the sorted matrix, never
  ``node.string()`` parent walks.
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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.database import StringDatabase

__all__ = [
    "PAD",
    "ArrayTrie",
    "PackedKeys",
    "SortJoinCounter",
    "build_array_trie",
    "counter_columns",
    "decode_rows",
    "pack_strings",
]

#: Padding code for positions past a string's end.  :class:`PackedKeys`
#: ranks it below every real code point, which is exactly Python's "prefix
#: before extension" string order.
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


class PackedKeys:
    """One order-preserving key per code-matrix row.

    Every code point of ``points`` gets its 1-based rank in code point
    order and :data:`PAD` gets rank 0; a row's ranks are packed big-endian,
    ``per_word`` of them to a 63-bit word.  Comparing keys therefore
    compares rows exactly as Python compares the strings they spell, and a
    shorter row sorts before its extensions because its missing positions
    are rank 0.  Rows that fit one word get a plain ``int64`` key, wider
    rows an ``S{8 * words}`` string of big-endian words (numpy compares
    those byte-wise).  Keys of different widths are comparable only when
    they have the same number of words, so callers mixing widths pass the
    widest one.

    A code outside ``points`` also reads rank 0.  Such a row can equal no
    corpus window (whose positions are all ranked), so counts stay exact;
    only sorting needs every code to be ranked.
    """

    #: rows packed per block, so that one block's columns stay in cache
    BLOCK = 1 << 14

    def __init__(self, points) -> None:
        self.points = np.unique(np.asarray(points, dtype=np.int64))
        self.bits = max(1, int(self.points.size).bit_length())
        self.per_word = 63 // self.bits
        # rank of code c at _table[c + 1]; PAD and unranked codes read 0,
        # and codes past the last point are clipped onto the final 0.
        size = int(self.points[-1]) + 3 if self.points.size else 2
        self._table = np.zeros(size, dtype=np.int64)
        self._table[self.points + 1] = np.arange(1, self.points.size + 1)

    @classmethod
    def of_symbols(cls, symbols) -> "PackedKeys":
        return cls([ord(symbol) for symbol in symbols])

    def words(self, width: int) -> int:
        """Words per key of a width-``width`` row (at least one)."""
        return max(1, -(-width // self.per_word))

    def _shift(self, slot: int) -> int:
        return (self.per_word - 1 - slot) * self.bits

    def keys(self, matrix: np.ndarray, width: int | None = None) -> np.ndarray:
        """The key of every row of ``matrix``, packed as ``width`` columns
        (default: the matrix width)."""
        rows, columns = matrix.shape
        packed = np.zeros(
            (rows, self.words(columns if width is None else width)), dtype=np.int64
        )
        for lo in range(0, rows, self.BLOCK):
            block, out = matrix[lo : lo + self.BLOCK], packed[lo : lo + self.BLOCK]
            for column in range(columns):
                word, slot = divmod(column, self.per_word)
                ranks = np.take(self._table, block[:, column] + 1, mode="clip")
                ranks <<= self._shift(slot)
                out[:, word] |= ranks
        return _comparable(packed)

    def prefix_keys(self, keys: np.ndarray, depth: int) -> np.ndarray:
        """The keys of the length-``depth`` prefixes of the rows keyed by
        ``keys``: later positions are zeroed, as PAD would be."""
        words = self.words(depth)
        kept = depth - (words - 1) * self.per_word
        mask = ((1 << (kept * self.bits)) - 1) << self._shift(kept - 1)
        if keys.dtype == np.int64:
            return keys & mask
        packed = keys.view(">i8").reshape(keys.size, -1)[:, :words].astype(np.int64)
        packed[:, -1] &= mask
        return _comparable(packed)


def _comparable(packed: np.ndarray) -> np.ndarray:
    """``(rows, words)`` int64 words as one comparable key per row."""
    if packed.shape[1] == 1:
        return packed[:, 0].copy()
    return packed.astype(">i8").view(f"S{8 * packed.shape[1]}").reshape(-1)


def _lookup(sorted_keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Index of each probe in the sorted, distinct ``sorted_keys``; -1 when
    absent."""
    if sorted_keys.size == 0:
        return np.full(probes.size, -1, dtype=np.int64)
    position = np.minimum(np.searchsorted(sorted_keys, probes), sorted_keys.size - 1)
    return np.where(sorted_keys[position] == probes, position, -1)


# ----------------------------------------------------------------------
# Sort-join exact counting
# ----------------------------------------------------------------------
class SortJoinCounter:
    """Exact ``count_Delta`` over the corpus windows of one width.

    Every width-``w`` window of the corpus gets a :class:`PackedKeys` key
    under the database alphabet's ranks.  A batch of width-``w`` patterns
    is counted by binary-searching every window key into the sorted
    pattern keys — ``O(N log k)`` C-level work, then one ``bincount``.
    Per-document capping folds runs of equal ``(pattern, document)``
    pairs and caps each run at ``Delta``.  Counts are integers, hence
    bitwise identical to every :mod:`repro.counting` engine
    (``tests/core/test_build_backends.py`` asserts this) — which is what
    lets the array pipeline use it under ``count_backend="auto"`` without
    perturbing any released value.
    """

    def __init__(self, database: StringDatabase) -> None:
        self.database = database
        #: the key codec every array-pipeline key is packed with
        self.codec = PackedKeys.of_symbols(database.alphabet)
        documents = database.documents
        self._codes = np.frombuffer(
            "".join(documents).encode("utf-32-le"), dtype=np.uint32
        ).astype(np.int32)
        doc_lengths = np.fromiter(
            map(len, documents), dtype=np.int64, count=len(documents)
        )
        self._doc_of = np.repeat(np.arange(len(documents)), doc_lengths)
        self._max_doc_length = int(doc_lengths.max()) if len(documents) else 0

    @classmethod
    def shared(cls, database: StringDatabase) -> "SortJoinCounter":
        """The database's cached counter: one corpus encode per database,
        reused by the candidate, annotation and q-gram stages of a build."""
        counter = getattr(database, "_sortjoin_counter", None)
        if counter is None:
            counter = cls(database)
            database._sortjoin_counter = counter
        return counter

    def _window_keys(self, width: int) -> np.ndarray:
        """The key of the width-``width`` window at every corpus position,
        document boundaries ignored (see :meth:`_in_document`)."""
        return self.codec.keys(
            np.lib.stride_tricks.sliding_window_view(self._codes, width)
        )

    def _in_document(self, width: int) -> np.ndarray:
        """Whether the width-``width`` window at each position stays inside
        one document."""
        total = self._codes.size
        return self._doc_of[: total - width + 1] == self._doc_of[width - 1 :]

    def _capped_counts(
        self, ids: np.ndarray, docs: np.ndarray, size: int, delta_cap: int
    ) -> np.ndarray:
        """``count_Delta`` of ids ``0..size-1`` from the id of every corpus
        window (-1: none) and its document, both in corpus order."""
        found = ids >= 0
        ids = ids[found]
        if delta_cap >= self._max_doc_length:
            return np.bincount(ids, minlength=size)
        # Stable, so documents stay ascending inside each id and every run
        # of equal (id, document) is contiguous; each run is capped at Delta.
        order = np.argsort(ids, kind="stable")
        ids, docs = ids[order], docs[found][order]
        counts = np.zeros(size, dtype=np.int64)
        if ids.size:
            new_run = np.empty(ids.size, dtype=bool)
            new_run[0] = True
            new_run[1:] = (ids[1:] != ids[:-1]) | (docs[1:] != docs[:-1])
            run_starts = np.flatnonzero(new_run)
            run_lengths = np.diff(np.append(run_starts, ids.size))
            np.add.at(counts, ids[run_starts], np.minimum(run_lengths, delta_cap))
        return counts

    def count_keys(self, keys: np.ndarray, width: int, delta_cap: int) -> np.ndarray:
        """Counts of width-``width`` patterns given by their keys.  Sorted,
        distinct keys (every trie level's) are used as they are; any
        other batch is deduplicated first."""
        if keys.size == 0 or width > self._max_doc_length:
            return np.zeros(keys.size, dtype=np.int64)
        inverse = None
        if not (keys[1:] > keys[:-1]).all():
            keys, inverse = np.unique(keys, return_inverse=True)
        valid = self._in_document(width)
        ids = _lookup(keys, self._window_keys(width)[valid])
        counts = self._capped_counts(
            ids, self._doc_of[: valid.size][valid], keys.size, delta_cap
        )
        return counts if inverse is None else counts[inverse]

    def counts(self, patterns: np.ndarray, delta_cap: int) -> np.ndarray:
        """Counts for a ``(k, w)`` unpadded pattern code matrix."""
        k, width = patterns.shape
        if k and width == 0:
            empty = sum(
                min(len(document), delta_cap) for document in self.database.documents
            )
            return np.full(k, empty, dtype=np.int64)
        return self.count_keys(self.codec.keys(patterns), width, delta_cap)

    def pair_counts(self, level: np.ndarray, delta_cap: int) -> np.ndarray:
        """Counts of every concatenation ``level[i] + level[j]``, as one
        vector of length ``k * k`` indexed ``i * k + j``.

        ``level`` is a sorted, duplicate-free ``(k, w)`` code matrix.  Only
        pairs that occur can count anything, so instead of materializing
        the ``k^2`` patterns this maps both halves of every width-``2w``
        corpus window to their row of ``level``; every other pair stays 0.
        """
        k, width = level.shape
        if k == 0 or 2 * width > self._max_doc_length:
            return np.zeros(k * k, dtype=np.int64)
        rows = _lookup(self.codec.keys(level), self._window_keys(width))
        starts = np.flatnonzero(self._in_document(2 * width))
        left, right = rows[starts], rows[starts + width]
        pairs = np.where((left >= 0) & (right >= 0), left * k + right, -1)
        return self._capped_counts(pairs, self._doc_of[starts], k * k, delta_cap)


# ----------------------------------------------------------------------
# Radix trie construction over a lexsorted candidate matrix
# ----------------------------------------------------------------------
@dataclass
class ArrayTrie:
    """The candidate trie as flat arrays (node ``0`` is the root).

    Node ids are depth-major — all depth-1 nodes (rows ascending, i.e.
    lexicographic), then depth-2, ... — so every depth is the contiguous id
    slice ``level_bounds[d]:level_bounds[d + 1]``.  Inside a level, nodes
    are grouped by parent with siblings in ascending label order, so a
    node's children are a contiguous id range of the next level (edge ``e``
    is node ``e + 1``).
    """

    num_nodes: int
    parents: np.ndarray
    depths: np.ndarray
    char_codes: np.ndarray
    level_bounds: np.ndarray

    @property
    def max_depth(self) -> int:
        return int(self.level_bounds.size - 2)


def build_array_trie(
    matrix: np.ndarray, lengths: np.ndarray
) -> tuple[ArrayTrie, np.ndarray]:
    """Build the trie of all prefixes of the (distinct, lexsorted) rows.

    One radix pass: consecutive-row LCPs mark, per depth, exactly the rows
    whose depth-``d`` prefix is new; those prefixes are the depth-``d``
    nodes, and parents fall out of a ``searchsorted`` against the previous
    depth's creation rows.  No per-node Python work.  Also returns each
    node's creation row: node ``v`` spells ``matrix[node_row[v], :depths[v]]``.
    """
    num_rows, width = matrix.shape
    if num_rows == 0 or width == 0:
        trie = ArrayTrie(
            num_nodes=1,
            parents=np.full(1, -1, dtype=np.int64),
            depths=np.zeros(1, dtype=np.int64),
            char_codes=np.full(1, PAD, dtype=np.int64),
            level_bounds=np.array([0, 1], dtype=np.int64),
        )
        return trie, np.zeros(1, dtype=np.int64)
    # The LCP is the first column where consecutive rows differ (distinct
    # rows always differ before both are padded).
    lcp = np.zeros(num_rows, dtype=np.int64)
    if num_rows > 1:
        differs = matrix[1:] != matrix[:-1]
        lcp[1:] = differs.argmax(axis=1)
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
    trie = ArrayTrie(
        num_nodes=num_nodes,
        parents=parents,
        depths=depths,
        char_codes=char_codes,
        level_bounds=level_bounds,
    )
    return trie, node_row


def annotate_counts_array(
    trie: ArrayTrie,
    matrix: np.ndarray,
    row_keys: np.ndarray,
    node_row: np.ndarray,
    database: StringDatabase,
    delta_cap: int,
    *,
    count_backend: str = "auto",
) -> np.ndarray:
    """Exact ``count_Delta`` of every node pattern, as a float64 vector.

    ``matrix`` and ``node_row`` are :func:`build_array_trie`'s input and
    creation rows, and ``row_keys`` the matrix rows' keys under the shared
    counter's codec, so a depth-``d`` node's key is its creation row's key
    cut to ``d`` positions.  ``"auto"`` counts each depth level through
    :class:`SortJoinCounter`; a concrete backend name is honored by
    decoding the node patterns into one :meth:`~repro.core.database.
    StringDatabase.count_many` batch.  Counts are integers either way, so
    the choice never changes a released value.
    """
    counts = np.zeros(trie.num_nodes, dtype=np.float64)
    counts[0] = float(
        sum(min(len(document), delta_cap) for document in database.documents)
    )
    if trie.num_nodes == 1:
        return counts
    levels = [
        (int(trie.level_bounds[depth]), int(trie.level_bounds[depth + 1]), depth)
        for depth in range(1, trie.max_depth + 1)
    ]
    if count_backend == "auto":
        counter = SortJoinCounter.shared(database)
        for lo, hi, depth in levels:
            keys = counter.codec.prefix_keys(row_keys[node_row[lo:hi]], depth)
            counts[lo:hi] = counter.count_keys(keys, depth, delta_cap)
    else:
        patterns: list[str] = []
        for lo, hi, depth in levels:
            patterns.extend(decode_rows(matrix[node_row[lo:hi], :depth]))
        counts[1:] = database.count_many(patterns, delta_cap, backend=count_backend)
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
    non_root = survivors[1:]
    parent_ids = np.searchsorted(survivors, trie.parents[non_root])
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
