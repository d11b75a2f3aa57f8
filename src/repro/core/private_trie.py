"""The output data structure: an array trie of noisy counts.

Both main constructions (Theorems 1 and 2), the q-gram constructions
(Theorems 3 and 4), the baseline and the continual combine all output a
:class:`PrivateCountingTrie`: a pruned trie whose nodes store differentially
private counts for the strings they spell.  Since the *construction*
satisfies differential privacy, the structure can be queried, mined,
serialized and served arbitrarily often without any further privacy loss —
every operation here is post-processing.  The structure holds only the
released noisy counts: the exact counts a construction randomized never
reach it.

The trie is a handful of contiguous numpy arrays:

* ``counts[v]`` — the stored noisy count of node ``v`` (``NaN`` when the node
  stores no count, e.g. an inner node of a q-gram structure);
* ``child_start[v]:child_end[v]`` — the slice of ``edge_labels`` /
  ``edge_targets`` holding ``v``'s outgoing edges, sorted by label code;
* ``edge_keys[e] = source * |Sigma'| + label_code`` — a globally sorted key
  array that lets a *batch* of patterns advance one character per step with a
  single vectorized ``searchsorted``.

Every constructor emits parents before children, which lets :meth:`items`
spell each node from its parent's string.  Every query is one root-to-node
walk of the dense, pre-scaled transition table built from these arrays: a
single pattern steps through it one character at a time in ``O(|P|)``, and a
batch of ``m`` patterns runs in ``O(max|P|)`` vectorized rounds over all
``m`` patterns at once, which is where the serving throughput comes from
(see ``benchmarks/bench_serving.py``).  Past
:attr:`PrivateCountingTrie.DENSE_TRANSITION_LIMIT` there is no table, and
both walks binary-search ``edge_keys`` instead.  The serving stack knows the
class as :class:`repro.serving.CompiledTrie`; it is the same class object.

Thread safety
-------------
A counter is served concurrently by thread-per-connection server handler
threads, so it guarantees an *immutable snapshot*: every shared numpy array
is marked read-only after construction (:meth:`PrivateCountingTrie.
assert_immutable` verifies this) and query paths only allocate thread-local
scratch.  The one piece of mutable state is the set of lazily built walk
views, built once under a lock and published read-only.  Any number of
threads may call ``query`` / ``batch_query`` / ``mine`` concurrently and
observe exactly the serial results (``tests/serving/test_concurrency.py``
races the first calls on a freshly loaded release).

Lazy views and mmap zero-copy loads
-----------------------------------
Construction keeps only the nine canonical arrays plus O(alphabet) tables:
the dense transition table and the NaN-folded count gathers are built on
the *first query* of either kind.  That makes ``__init__`` O(header) over
the node count — which is what lets :mod:`repro.serving.binfmt` construct a
counter straight over ``mmap``-ed, page-cache-shared buffers of a binary
release without faulting in a single node page at load time.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from repro.core.array_build import build_array_trie, counter_columns, pack_strings
from repro.dp.composition import PrivacyBudget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import BuildProfile

__all__ = ["PrivateCountingTrie", "StructureMetadata", "payload_metadata"]


def payload_metadata(metadata: "StructureMetadata") -> dict:
    """``metadata`` as stored in release payloads.

    Structures predating the engine layer serialized without a
    ``count_backend`` key, so an empty default is omitted to keep their
    digests stable.
    """
    payload = dict(metadata.__dict__)
    if not payload.get("count_backend"):
        payload.pop("count_backend", None)
    return payload


@dataclass(frozen=True)
class StructureMetadata:
    """Public metadata attached to a private counting structure."""

    #: the privacy budget the construction was run with.
    epsilon: float
    delta: float
    #: failure probability of the accuracy guarantee.
    beta: float
    #: contribution cap Delta of count_Delta.
    delta_cap: int
    #: declared maximum document length ell.
    max_length: int
    #: number of documents n.
    num_documents: int
    #: alphabet size |Sigma|.
    alphabet_size: int
    #: high-probability additive error bound of the stored counts.
    error_bound: float
    #: pruning threshold used by the construction.
    threshold: float
    #: fixed pattern length for q-gram structures (None for the general ones).
    qgram_length: int | None = None
    #: free-form name of the construction that produced the structure.
    construction: str = ""
    #: fixed counting label of the kind: "auto" for heavy-path and
    #: qgram-t3, "suffix-array" for qgram-t4, "" for the baseline and for
    #: structures predating the engine layer; kept for digest stability.
    count_backend: str = ""


#: "not built yet" marker for lazily constructed views (``None`` is a valid
#: built value: the dense transition table of an over-limit alphabet).
_UNSET = object()


class _LazyViews:
    """Query-acceleration structures derived from the canonical arrays.

    Built on the first query so that loading an mmap'd release stays
    O(header): the dense transition table, the NaN-folded count gathers
    and ``walk``, memoryviews of those arrays for the single-pattern walk
    (indexing a memoryview yields a plain Python scalar, several times
    cheaper than a numpy scalar).
    """

    __slots__ = ("lock", "transitions", "counts_ext", "counts_zero", "walk")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.transitions: object = _UNSET
        self.counts_ext: np.ndarray | None = None
        self.counts_zero: np.ndarray | None = None
        #: ``(transitions, counts_zero, counts_ext)`` as memoryviews; the
        #: first is ``None`` when there is no dense table.
        self.walk: tuple | None = None


class PrivateCountingTrie:
    """An array trie storing an (epsilon, delta)-differentially private
    count for every string it contains.

    Queries run in ``O(|P|)`` time: the pattern is walked through the trie
    and the stored noisy count is returned, or 0 when the pattern is absent
    (patterns absent from the structure have true count below the error
    bound with high probability).  Build one from a pattern -> noisy count
    map with :meth:`from_counts`; the constructor takes the nine canonical
    columns directly (the array construction pipeline, the binary release
    reader and synthetic releases use it).
    """

    #: largest dense transition table (entries) built eagerly; ~256 MiB.
    DENSE_TRANSITION_LIMIT = 1 << 25

    def __init__(
        self,
        *,
        counts: np.ndarray,
        depths: np.ndarray,
        parents: np.ndarray,
        parent_codes: np.ndarray,
        child_start: np.ndarray,
        child_end: np.ndarray,
        edge_keys: np.ndarray,
        edge_labels: np.ndarray,
        edge_targets: np.ndarray,
        vocab: dict[str, int],
        metadata: StructureMetadata,
        report: dict | None = None,
    ) -> None:
        self._counts = counts
        self._depths = depths
        self._parents = parents
        self._parent_codes = parent_codes
        self._child_start = child_start
        self._child_end = child_end
        self._edge_keys = edge_keys
        self._edge_labels = edge_labels
        self._edge_targets = edge_targets
        self._vocab = vocab
        self._chars = [""] * (len(vocab) + 1)
        for char, code in vocab.items():
            self._chars[code] = char
        self._vocab_size = len(vocab) + 1
        # Dense codepoint -> code table for vectorized pattern encoding.
        # Unknown characters (and the NUL separator) map to the reserved
        # code 0, whose transition column is entirely dead.  Covering the
        # whole BMP lets the common case skip bounds checks completely, and
        # the extra guard slot past every vocab character stays 0 so
        # ``take(..., mode="clip")`` maps astral-plane codepoints to
        # "unknown" without a per-batch bounds scan.
        max_point = max((ord(c) for c in vocab), default=0)
        table = np.zeros(max(0x10000, max_point + 2), dtype=np.int32)
        for char, code in vocab.items():
            table[ord(char)] = code
        self._code_table = table
        self._dead = int(counts.size)
        # Everything derived from the node/edge arrays — the dense
        # transition table and the NaN-folded count gathers — is built
        # lazily on first use (see _LazyViews), so construction never
        # touches a node page: an mmap'd release loads in O(header) and N
        # processes share one page-cache copy.
        self._lazy = _LazyViews()
        self.metadata = metadata
        #: optional per-construction diagnostics (sizes, stage error bounds, ...).
        self.report = dict(report or {})
        #: build diagnostics: the construction's tracing-span tree wrapped in
        #: a :class:`repro.obs.BuildProfile` (total/per-stage wall and CPU
        #: seconds, pipeline backend; ``None`` when telemetry was disabled or
        #: the structure was loaded).  Deliberately *not* part of the
        #: serialized payload or the content digest: two builds with
        #: identical released content must have identical digests regardless
        #: of how long they took or which pipeline produced them
        #: (``dpsc mine --profile`` prints this).
        self.profile: "BuildProfile | None" = None
        # Immutable-snapshot guarantee: all shared arrays are frozen so a
        # rogue writer faults loudly instead of racing readers.
        for array in self._shared_arrays():
            array.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_counts(
        cls,
        counts: Mapping[str, float],
        metadata: StructureMetadata,
        report: dict | None = None,
    ) -> "PrivateCountingTrie":
        """The counter storing ``counts`` (pattern -> noisy count; the empty
        pattern's entry is the root count).

        Every prefix of a stored pattern becomes a node, storing no count
        unless it is a key itself.  The trie is radix-built over the sorted
        patterns by the array pipeline's own :func:`~repro.core.array_build.
        build_array_trie` and assembled by :func:`~repro.core.array_build.
        counter_columns`, so every producer shares one layout.
        """
        patterns = sorted(pattern for pattern in counts if pattern)
        matrix, lengths = pack_strings(patterns)
        trie, node_row = build_array_trie(matrix, lengths)
        values = np.fromiter(
            (counts[pattern] for pattern in patterns),
            dtype=np.float64,
            count=len(patterns),
        )
        # A node stores a count iff it spells its creation row in full: a
        # stored prefix sorts before every pattern extending it.
        stored = np.flatnonzero(lengths[node_row[1:]] == trie.depths[1:]) + 1
        noisy = np.full(trie.num_nodes, np.nan, dtype=np.float64)
        noisy[stored] = values[node_row[stored]]
        if "" in counts:
            noisy[0] = float(counts[""])
        columns = counter_columns(trie, noisy, np.ones(trie.num_nodes, dtype=bool))
        return cls(**columns, metadata=metadata, report=report)

    @classmethod
    def from_payload(cls, payload: dict) -> "PrivateCountingTrie":
        """Rebuild a structure from :meth:`to_payload` output."""
        return cls.from_counts(
            payload["counts"],
            StructureMetadata(**payload["metadata"]),
            payload.get("report"),
        )

    #: the dict-form spelling of :meth:`from_payload`.
    from_dict = from_payload

    @classmethod
    def from_json(cls, payload: str) -> "PrivateCountingTrie":
        return cls.from_payload(json.loads(payload))

    @classmethod
    def load(cls, path: "str | Path") -> "PrivateCountingTrie":
        """Read a structure previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------
    # Lazily built query-acceleration views
    # ------------------------------------------------------------------
    def _batch_tables(
        self,
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """``(transitions, counts_ext, counts_zero)``, built on first use.

        ``transitions`` is the dense, pre-scaled transition table (``None``
        when ``(nodes + 1) * vocab`` exceeds :attr:`DENSE_TRANSITION_LIMIT`
        — read at build time, so tests may monkeypatch it before the first
        query); ``counts_ext`` appends a NaN sentinel so the dead state
        gathers to "no count"; ``counts_zero`` is the same array with NaN
        already folded to 0.  Double-checked under the views lock; every
        view is frozen before publication.
        """
        lazy = self._lazy
        if lazy.transitions is not _UNSET:
            return lazy.transitions, lazy.counts_ext, lazy.counts_zero
        with lazy.lock:
            if lazy.transitions is not _UNSET:
                return lazy.transitions, lazy.counts_ext, lazy.counts_zero
            counts_ext = np.append(self._counts, np.nan)
            counts_zero = np.where(np.isnan(counts_ext), 0.0, counts_ext)
            counts_ext.setflags(write=False)
            counts_zero.setflags(write=False)
            num_nodes = self._dead
            entries = (num_nodes + 1) * self._vocab_size
            transitions: np.ndarray | None = None
            if entries <= self.DENSE_TRANSITION_LIMIT:
                transitions = np.full(entries, num_nodes, dtype=np.int32)
                transitions[self._edge_keys] = self._edge_targets
                # Pre-scaled by vocab_size: table values are *row offsets*,
                # so a batch round is one add and one gather.
                transitions *= self._vocab_size
                transitions.setflags(write=False)
            lazy.counts_ext = counts_ext
            lazy.counts_zero = counts_zero
            lazy.walk = (
                None if transitions is None else memoryview(transitions),
                memoryview(counts_zero),
                memoryview(counts_ext),
            )
            # Published last: the sentinel flipping is what tells lock-free
            # readers the other views are already in place.
            lazy.transitions = transitions
            return transitions, counts_ext, counts_zero

    @property
    def _transitions(self) -> np.ndarray | None:
        """The dense transition table (building it if necessary); ``None``
        past :attr:`DENSE_TRANSITION_LIMIT`."""
        return self._batch_tables()[0]

    # ------------------------------------------------------------------
    # Single-pattern queries (post-processing; no privacy cost)
    # ------------------------------------------------------------------
    def _node(self, pattern: str) -> int:
        """Index of the node spelling ``pattern``; the dead state (one past
        the last node, which stores no count) when it is absent."""
        walk = self._lazy.walk
        if walk is None:
            self._batch_tables()
            walk = self._lazy.walk
        table = walk[0]
        if table is None:
            return self._node_sparse(pattern)
        vocab = self._vocab
        state = 0
        for char in pattern:
            # Unknown characters (and NUL) get code 0, whose column is dead
            # like the whole dead row, so no step needs a branch.
            state = table[state + vocab.get(char, 0)]
        return state // self._vocab_size

    def _node_sparse(self, pattern: str) -> int:
        """:meth:`_node` without a dense table: a binary search of each
        node's slice of ``edge_keys``."""
        keys = self._edge_keys
        vocab = self._vocab
        vocab_size = self._vocab_size
        node = 0
        for char in pattern:
            code = vocab.get(char)
            if code is None:
                return self._dead
            key = node * vocab_size + code
            end = int(self._child_end[node])
            position = bisect_left(keys, key, int(self._child_start[node]), end)
            if position >= end or keys[position] != key:
                return self._dead
            node = int(self._edge_targets[position])
        return node

    def lookup_node(self, pattern: str) -> int:
        """Index of the node spelling ``pattern``, or ``-1`` when absent."""
        node = self._node(pattern)
        return -1 if node == self._dead else node

    def query(self, pattern: str) -> float:
        """Noisy ``count_Delta(pattern, D)`` estimate (0 when absent)."""
        node = self._node(pattern)
        return self._lazy.walk[1][node]

    def __contains__(self, pattern: str) -> bool:
        node = self._node(pattern)
        return not math.isnan(self._lazy.walk[2][node])

    # ------------------------------------------------------------------
    # Batch queries (vectorized)
    # ------------------------------------------------------------------
    #: separator used to split a joined batch in one vectorized pass; NUL is
    #: outside every data-universe alphabet (and guarded against anyway).
    _SEPARATOR = "\x00"

    def batch_query(self, patterns: Sequence[str]) -> np.ndarray:
        """Noisy counts for every pattern, advancing all of them through the
        trie one character per vectorized round.

        Patterns are joined with NUL separators so their codes and lengths
        come from one vectorized encode + separator scan (falling back to
        per-pattern ``len()`` when a pattern contains NUL itself; the guard
        slot of the code table absorbs astral-plane codepoints via a clipped
        gather, and a lone surrogate encodes to a code point of its own —
        an unknown character, as in :meth:`query`).  Uniform-length batches
        take a dedicated fast path; mixed batches are sorted by length so
        each round operates on a contiguous suffix of still-running
        patterns — no per-round boolean compaction.  A pattern that ends
        simply drops out of the next round's suffix with its node frozen; a
        pattern that mismatches moves to the dead state and stays there.
        Total work is proportional to the number of characters consumed, in
        a few numpy kernels per round.
        """
        if not isinstance(patterns, list):
            patterns = list(patterns)
        if not patterns:
            return np.zeros(0, dtype=np.float64)
        return self._batch_walk(self._SEPARATOR.join(patterns), patterns)

    def batch_query_joined(self, joined: str) -> np.ndarray:
        """:meth:`batch_query` of ``joined.split("\\x00")``, without the split:
        the noisy counts of the ``joined.count("\\x00") + 1`` NUL-separated
        patterns of ``joined`` (so ``""`` is one empty pattern).  A binary
        ``/batch`` request arrives in this form."""
        return self._batch_walk(joined)

    def _batch_walk(self, joined: str, patterns: list[str] | None = None) -> np.ndarray:
        """The batch walk of the NUL-separated patterns of ``joined``, or of
        the list ``patterns`` that ``joined`` joins: then a pattern may
        contain NUL itself, and the lengths come from the list."""
        points = np.frombuffer(
            joined.encode("utf-32-le", "surrogatepass"), dtype=np.uint32
        )
        flat_codes = self._code_table.take(points, mode="clip")
        is_separator = points == 0
        separators = int(np.count_nonzero(is_separator))
        m = separators + 1 if patterns is None else len(patterns)
        transitions, counts_ext, counts_zero = self._batch_tables()
        if transitions is not None and m > 1 and separators == m - 1:
            # Uniform-length fast path: q-gram releases serve fixed-length
            # traffic, where the length sort, per-step activity cuts and the
            # final unscramble are pure overhead.  With exactly m - 1 NULs,
            # all of them separators, the patterns share one length when
            # the text is m * (length + 1) - 1 code points long and every
            # (length + 1)-th of them is a NUL; then one (L, m) gather of
            # the codes up front and two kernels per round answer the batch.
            length, rest = divmod(points.size + 1, m)
            length -= 1
            if rest == 0 and bool(is_separator[length :: length + 1].all()):
                return self._batch_query_uniform(
                    flat_codes, length, m, transitions, counts_zero
                )
        if separators == m - 1:
            separator_at = np.flatnonzero(is_separator)
            bounds = np.concatenate((separator_at, [points.size]))
            starts = np.concatenate(([0], separator_at + 1))
            lengths = bounds - starts
        else:  # some pattern of the list contains NUL itself
            lengths = np.fromiter(map(len, patterns), dtype=np.int64, count=m)
            starts = np.concatenate(([0], np.cumsum(lengths + 1)))[:-1]
        # Grouping by length only needs buckets, not a stable order; uint16
        # keys keep the sort in numpy's radix path.
        if int(lengths.max()) < 0x10000:
            order = np.argsort(lengths.astype(np.uint16), kind="stable")
        else:  # patterns longer than 65535 characters
            order = np.argsort(lengths, kind="stable")
        sorted_lengths = lengths[order]
        positions = starts[order].astype(np.intp)
        max_len = int(sorted_lengths[-1])
        # First index whose pattern still has characters left at each step.
        cuts = np.searchsorted(
            sorted_lengths, np.arange(max_len + 1), side="right"
        ).tolist()
        nodes = np.zeros(m, dtype=np.int32)
        vocab_size = self._vocab_size
        for step in range(max_len):
            lo = cuts[step]
            active_positions = positions[lo:]
            codes = flat_codes.take(active_positions)
            if transitions is not None:
                # States are row offsets (node * vocab_size); unknown
                # characters carry code 0, whose transition column (like
                # the dead state's whole row) is entirely dead.
                nodes[lo:] = transitions.take(nodes[lo:] + codes)
            else:
                nodes[lo:] = self._advance_sparse(nodes[lo:], codes)
            active_positions += 1  # in place: ready for the next round
        if transitions is not None:
            nodes //= vocab_size  # row offsets back to node indices
        counts = counts_ext.take(nodes)
        results_sorted = np.where(np.isnan(counts), 0.0, counts)
        results = np.empty(m, dtype=np.float64)
        results[order] = results_sorted
        return results

    def _batch_query_uniform(
        self,
        flat_codes: np.ndarray,
        length: int,
        m: int,
        transitions: np.ndarray,
        counts_zero: np.ndarray,
    ) -> np.ndarray:
        """Dense-table batch walk for a batch whose patterns all have the
        same ``length`` — bit-for-bit the counts of the general path, minus
        its per-length bookkeeping.

        Pattern ``i`` starts at flat offset ``i * (length + 1)`` (one NUL
        separator apart), so padding the flat codes by one slot makes them
        an ``(m, length + 1)`` matrix; its first ``length`` columns,
        transposed and copied to ``(length, m)``, let each round read one
        contiguous row.  The two round kernels reuse preallocated buffers.
        """
        codes = (
            np.append(flat_codes, np.int32(0))
            .reshape(m, length + 1)[:, :length]
            .T.copy()
        )
        nodes = np.zeros(m, dtype=np.int32)
        scratch = np.empty(m, dtype=np.int32)
        for step in range(length):
            # Same row-offset arithmetic as the general path: table values
            # are pre-scaled node offsets, codes index columns.
            np.add(nodes, codes[step], out=scratch)
            transitions.take(scratch, out=nodes)
        if length:
            nodes //= self._vocab_size
        return counts_zero.take(nodes)

    def query_many(self, patterns: Sequence[str]) -> np.ndarray:
        """Alias of :meth:`batch_query` — the :class:`repro.api.PrivateCounter`
        spelling (bit-for-bit ``[self.query(p) for p in patterns]``)."""
        return self.batch_query(patterns)

    def _advance_sparse(self, nodes: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """One batch step by binary search on ``edge_keys`` — the fallback
        when the alphabet is too large for a dense transition table."""
        num_edges = self._edge_keys.size
        if num_edges == 0:
            return np.full(nodes.size, self._dead, dtype=np.int32)
        keys = nodes.astype(np.int64) * self._vocab_size + codes
        found_at = np.minimum(np.searchsorted(self._edge_keys, keys), num_edges - 1)
        # Code 0 (unknown character) never occurs among edge keys, and the
        # dead state's keys are past every real key, so misses stay dead.
        hit = self._edge_keys[found_at] == keys
        return np.where(hit, self._edge_targets[found_at], self._dead).astype(
            np.int32
        )

    # ------------------------------------------------------------------
    # Mining and enumeration (post-processing)
    # ------------------------------------------------------------------
    def pattern_of(self, node: int) -> str:
        """The string spelled from the root to node ``node``."""
        chars: list[str] = []
        while node > 0:
            chars.append(self._chars[self._parent_codes[node]])
            node = int(self._parents[node])
        return "".join(reversed(chars))

    def mine(
        self,
        threshold: float,
        *,
        min_length: int = 1,
        max_length: int | None = None,
        exact_length: int | None = None,
    ) -> list[tuple[str, float]]:
        """All stored patterns whose noisy count reaches ``threshold``.

        This implements alpha-approximate Substring Mining (Definition 2)
        and, with ``exact_length=q``, alpha-approximate q-Gram Mining.  Any
        number of thresholds can be tried without additional privacy loss.
        """
        mask = ~np.isnan(self._counts)
        mask &= np.where(np.isnan(self._counts), -np.inf, self._counts) >= threshold
        mask &= self._depths >= max(1, min_length)
        if exact_length is not None:
            mask &= self._depths == exact_length
        if max_length is not None:
            mask &= self._depths <= max_length
        hits = np.flatnonzero(mask)
        results = [(self.pattern_of(int(v)), float(self._counts[v])) for v in hits]
        results.sort(key=lambda item: (-item[1], item[0]))
        return results

    def items(self) -> Iterator[tuple[str, float]]:
        """``(pattern, noisy count)`` for every stored node except the root
        (whose count answers the empty pattern), in node order."""
        chars = self._chars
        codes = self._parent_codes.tolist()
        parents = self._parents.tolist()
        # Parents precede their children, so one forward pass spells every
        # node from its parent's string.
        spelled = [""] * len(parents)
        for node in range(1, len(parents)):
            spelled[node] = spelled[parents[node]] + chars[codes[node]]
        stored = np.flatnonzero(~np.isnan(self._counts[1:])) + 1
        return zip(
            [spelled[node] for node in stored.tolist()],
            self._counts[stored].tolist(),
        )

    def patterns(self) -> list[str]:
        return [pattern for pattern, _ in self.items()]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self._counts.size)

    @property
    def num_stored_patterns(self) -> int:
        stored = ~np.isnan(self._counts)
        stored[0] = False
        return int(stored.sum())

    @property
    def error_bound(self) -> float:
        return self.metadata.error_bound

    def mining_alpha(self, threshold: float) -> float:
        """The approximation slack with which mining at ``threshold``
        satisfies Definition 2.

        Stored patterns carry error at most ``error_bound``.  Patterns absent
        from the structure have true count below
        ``report['absent_pattern_bound']`` (they were either excluded from
        the candidate set or pruned), so they can only be "clearly frequent"
        when the threshold is small; the slack accounts for that.
        """
        absent_bound = float(
            self.report.get(
                "absent_pattern_bound",
                self.metadata.threshold + self.metadata.error_bound,
            )
        )
        return max(self.metadata.error_bound, absent_bound - threshold)

    @property
    def privacy_budget(self) -> PrivacyBudget:
        return PrivacyBudget(self.metadata.epsilon, self.metadata.delta)

    def depth(self) -> int:
        """Maximum string depth over all nodes."""
        return int(self._depths.max())

    def arrays(self) -> dict[str, np.ndarray]:
        """The nine canonical flat arrays by name, in the fixed column order
        the binary release format (:mod:`repro.serving.binfmt`) serializes
        them in.  These — plus vocab, metadata and report — fully determine
        the counter; every other array is a derived view."""
        return {
            "counts": self._counts,
            "depths": self._depths,
            "parents": self._parents,
            "parent_codes": self._parent_codes,
            "child_start": self._child_start,
            "child_end": self._child_end,
            "edge_keys": self._edge_keys,
            "edge_labels": self._edge_labels,
            "edge_targets": self._edge_targets,
        }

    def _shared_arrays(self) -> tuple[np.ndarray, ...]:
        """Every numpy array reachable by more than one serving thread.

        Lazily built views are included only once built — checking a fresh
        (e.g. just-mmap'd) instance must not force their construction.
        """
        arrays = list(self.arrays().values())
        arrays.append(self._code_table)
        lazy = self._lazy
        if lazy.counts_ext is not None:
            arrays.append(lazy.counts_ext)
        if lazy.counts_zero is not None:
            arrays.append(lazy.counts_zero)
        if lazy.transitions is not _UNSET and lazy.transitions is not None:
            arrays.append(lazy.transitions)
        return tuple(arrays)

    def assert_immutable(self) -> None:
        """Raise :class:`AssertionError` unless every shared array is
        read-only — the snapshot guarantee concurrent query paths rely on.
        Raised explicitly (not via ``assert``) so the check survives
        ``python -O``."""
        for array in self._shared_arrays():
            if array.flags.writeable:
                raise AssertionError("shared counter array is writable")

    @property
    def nbytes(self) -> int:
        """Total array storage of the counter."""
        return int(sum(array.nbytes for array in self._shared_arrays()))

    # ------------------------------------------------------------------
    # Serialization (post-processing)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The release payload: stored counts (the empty pattern's included
        when the root stores one, so save -> load preserves every query),
        metadata and report.  Shared by every structure kind, so releases
        of any kind round-trip through the same stores and servers."""
        counts = dict(self.items())
        root_count = float(self._counts[0])
        if not math.isnan(root_count):
            counts[""] = root_count
        return {
            "metadata": payload_metadata(self.metadata),
            "counts": counts,
            "report": self.report,
        }

    #: the dict-form spelling of :meth:`to_payload`.
    to_dict = to_payload

    def to_json(self) -> str:
        """The canonical JSON of :meth:`to_payload` (sorted keys)."""
        return json.dumps(self.to_payload(), sort_keys=True)

    def content_digest(self) -> str:
        """SHA-256 of the canonical JSON form.

        Two structures storing the same counts, metadata and report have the
        same digest whatever their node layout; the release store uses this
        to detect tampered or corrupted files on load.
        """
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def save(self, path: "str | Path") -> "Path":
        """Write the structure to ``path`` as JSON and return the path.

        The file contains only the released (noisy) counts and public
        metadata, so sharing it carries no privacy cost beyond the
        construction's budget.
        """
        target = Path(path)
        target.write_text(self.to_json())
        return target

    def release(self, store, name: str = "release", *, format: str | None = None):
        """Persist this structure as the next version of release ``name`` in
        ``store`` (any object with a ``save(name, structure)`` method, e.g.
        :class:`repro.serving.ReleaseStore`) and return the store's record.

        ``format`` picks the payload format (``"json"`` / ``"binary"``)
        when the store supports the choice; ``None`` keeps the store's
        default.  This is the tail of the fluent workflow
        ``Dataset.from_documents(...).with_budget(...).build(kind).release(store)``;
        like every operation on a built structure it is post-processing.
        """
        if format is not None:
            return store.save(name, self, format=format)
        return store.save(name, self)
