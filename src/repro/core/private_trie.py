"""The output data structure: a trie of noisy counts.

Both main constructions (Theorems 1 and 2) and the q-gram constructions
(Theorems 3 and 4) output a :class:`PrivateCountingTrie`: a pruned trie whose
nodes store differentially private counts for the strings they spell.  Since
the *construction* satisfies differential privacy, the structure can be
queried (and mined, and serialized) arbitrarily often without any further
privacy loss — every operation here is post-processing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.dp.composition import PrivacyBudget
from repro.strings.trie import Trie, TrieNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs import BuildProfile
    from repro.serving.compiled import CompiledTrie

__all__ = ["PrivateCountingTrie", "StructureMetadata", "payload_metadata"]


def payload_metadata(metadata: "StructureMetadata") -> dict:
    """``metadata`` as stored in release payloads.

    Single source of the payload's metadata rules for every counter form
    (in-memory and compiled): structures predating the engine layer
    serialized without a ``count_backend`` key, so an empty default is
    omitted to keep their digests stable.
    """
    payload = dict(metadata.__dict__)
    if not payload.get("count_backend"):
        payload.pop("count_backend", None)
    return payload


def release_payload(
    counts: dict,
    root_count: "float | None",
    metadata: "StructureMetadata",
    report: dict,
) -> dict:
    """Assemble the canonical release payload.

    One source of truth for the payload schema, shared by
    :meth:`PrivateCountingTrie.to_dict` and
    :meth:`repro.serving.CompiledTrie.to_payload` so the two forms stay
    byte-identical (the release store's digest check depends on it).
    ``counts`` maps stored patterns to noisy counts (copied, never
    mutated); the root / empty pattern's count is added when present so
    save -> load preserves every query.
    """
    counts = dict(counts)
    if root_count is not None:
        counts[""] = float(root_count)
    return {
        "metadata": payload_metadata(metadata),
        "counts": counts,
        "report": report,
    }


def payload_json(payload: dict) -> str:
    """The canonical JSON form every counter serializes (and digests)."""
    return json.dumps(payload, sort_keys=True)


def payload_digest(payload_text: str) -> str:
    """SHA-256 of a canonical JSON payload (the release-store digest)."""
    return hashlib.sha256(payload_text.encode("utf-8")).hexdigest()


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
    #: repro.counting backend that produced the exact counts the mechanisms
    #: randomized ("" for structures predating the engine layer).
    count_backend: str = ""


@dataclass
class PrivateCountingTrie:
    """A trie storing an (epsilon, delta)-differentially private count for
    every string it contains.

    Queries run in ``O(|P|)`` time: the pattern is matched in the trie and the
    stored noisy count is returned, or 0 when the pattern is absent (patterns
    absent from the structure have true count below the error bound with high
    probability).
    """

    trie: Trie
    metadata: StructureMetadata
    #: optional per-construction diagnostics (sizes, stage error bounds, ...).
    report: dict = field(default_factory=dict)
    #: build diagnostics: the construction's tracing-span tree wrapped in a
    #: :class:`repro.obs.BuildProfile` (total/per-stage wall and CPU
    #: seconds, pipeline backend; ``None`` when telemetry was disabled).
    #: Deliberately *not* part of the serialized payload or the content
    #: digest: two builds with identical released content must have
    #: identical digests regardless of how long they took or which pipeline
    #: produced them (``dpsc mine --profile`` prints this).
    profile: "BuildProfile | None" = field(default=None, repr=False, compare=False)
    #: the view :meth:`compiled` returns, compiled lazily (rebuilt if the
    #: trie's node count changes; structures are immutable after
    #: construction).
    _batch_view: "CompiledTrie | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Queries (post-processing; no privacy cost)
    # ------------------------------------------------------------------
    def query(self, pattern: str) -> float:
        """Noisy ``count_Delta(pattern, D)`` estimate (0 when absent)."""
        node = self.trie.find(pattern)
        if node is None or node.noisy_count is None:
            return 0.0
        return float(node.noisy_count)

    def query_many(self, patterns: Sequence[str]) -> np.ndarray:
        """Noisy counts for a whole batch of patterns at once.

        Bit-for-bit equal to ``[self.query(p) for p in patterns]`` but
        answered by the compiled-trie batch machinery (all patterns advance
        one character per vectorized numpy round), so large batches run
        orders of magnitude faster than a per-pattern Python loop — see
        ``benchmarks/bench_query_many.py`` (E22).  Like every query, this is
        post-processing with no privacy cost.

        The compiled view is cached; a structure is treated as read-only
        once built.  Code that mutates stored nodes in place (tests,
        ablations) must call :meth:`invalidate_cached_views` afterwards —
        adding or pruning nodes is detected automatically via the node
        count, but an in-place count edit is not observable cheaply.
        """
        return self.compiled().batch_query(patterns)

    def invalidate_cached_views(self) -> None:
        """Drop the cached compiled view so the next :meth:`compiled` or
        :meth:`query_many` recompiles.  Required after mutating
        ``noisy_count`` values in place; structural changes (insert/prune)
        invalidate automatically."""
        self._batch_view = None

    def __contains__(self, pattern: str) -> bool:
        node = self.trie.find(pattern)
        return node is not None and node.noisy_count is not None

    def items(self) -> Iterator[tuple[str, float]]:
        """Iterate over ``(pattern, noisy count)`` pairs for every stored
        node (excluding the root / empty pattern)."""
        stack: list[tuple[TrieNode, str]] = [(self.trie.root, "")]
        while stack:
            node, prefix = stack.pop()
            if prefix and node.noisy_count is not None:
                yield prefix, float(node.noisy_count)
            for char, child in node.children.items():
                stack.append((child, prefix + char))

    def patterns(self) -> list[str]:
        return [pattern for pattern, _ in self.items()]

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
        results = []
        for pattern, count in self.items():
            if count < threshold:
                continue
            if exact_length is not None and len(pattern) != exact_length:
                continue
            if len(pattern) < min_length:
                continue
            if max_length is not None and len(pattern) > max_length:
                continue
            results.append((pattern, count))
        results.sort(key=lambda item: (-item[1], item[0]))
        return results

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.trie.num_nodes

    @property
    def num_stored_patterns(self) -> int:
        return sum(1 for _ in self.items())

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
        return self.trie.height()

    # ------------------------------------------------------------------
    # Serialization (post-processing)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serializable representation of the structure."""
        # items() excludes the root, but query("") answers from it;
        # release_payload() keeps the empty pattern's count so save -> load
        # preserves every query.
        return release_payload(
            {pattern: count for pattern, count in self.items()},
            self.trie.root.noisy_count,
            self.metadata,
            self.report,
        )

    def to_payload(self) -> dict:
        """The :class:`repro.api.PrivateCounter` payload form — an alias of
        :meth:`to_dict`, shared by every structure kind so releases of any
        kind round-trip through the same stores and servers."""
        return self.to_dict()

    def to_json(self) -> str:
        return payload_json(self.to_dict())

    def content_digest(self) -> str:
        """SHA-256 of the canonical JSON form.

        Two structures storing the same counts, metadata and report have the
        same digest; the release store uses this to detect tampered or
        corrupted files on load.
        """
        return payload_digest(self.to_json())

    def compiled(self) -> "CompiledTrie":
        """This structure flattened into a
        :class:`repro.serving.CompiledTrie` for high-throughput serving
        (pure post-processing, identical query answers).

        The compiled view is built once and cached: every call returns the
        same immutable object (a structure built by the array pipeline
        starts with it already in place, so nothing is re-flattened).  Code
        that mutates stored counts in place must call
        :meth:`invalidate_cached_views` first, exactly as for
        :meth:`query_many`.
        """
        from repro.serving.compiled import CompiledTrie

        view = self._batch_view
        if view is None or view.num_nodes != self.trie.num_nodes:
            view = CompiledTrie.from_structure(self)
            self._batch_view = view
        return view

    @classmethod
    def from_dict(cls, payload: dict) -> "PrivateCountingTrie":
        metadata = StructureMetadata(**payload["metadata"])
        trie = Trie()
        for pattern, count in payload["counts"].items():
            node = trie.insert(pattern)
            node.noisy_count = float(count)
        return cls(trie=trie, metadata=metadata, report=dict(payload.get("report", {})))

    @classmethod
    def from_payload(cls, payload: dict) -> "PrivateCountingTrie":
        """Rebuild a structure from :meth:`to_payload` output (the
        :class:`repro.api.PrivateCounter` counterpart of :meth:`from_dict`)."""
        return cls.from_dict(payload)

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

    @classmethod
    def from_json(cls, payload: str) -> "PrivateCountingTrie":
        return cls.from_dict(json.loads(payload))

    def save(self, path: "str | Path") -> "Path":
        """Write the structure to ``path`` as JSON and return the path.

        The file contains only the released (noisy) counts and public
        metadata, so sharing it carries no privacy cost beyond the
        construction's budget.
        """
        target = Path(path)
        target.write_text(self.to_json())
        return target

    @classmethod
    def load(cls, path: "str | Path") -> "PrivateCountingTrie":
        """Read a structure previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())
