"""Differentially private prefix sums via the binary-tree mechanism.

This module implements the generalized binary-tree mechanism of Lemma 11
(pure DP) and Lemma 18 (approximate DP): given ``k`` sequences whose summed
L1 sensitivity is ``L`` (and, for the Gaussian variant, whose per-sequence
L1 sensitivity is at most ``Delta``), it releases *all prefix sums of all
sequences* with additive error

* ``O(epsilon^{-1} L log T log(Tk / beta))`` under pure DP, and
* ``O(epsilon^{-1} sqrt(L Delta) log T log(Tk / beta))`` under approximate DP,

where ``T`` is the maximum sequence length.  The paper applies it to the
difference sequences along the heavy paths of the candidate trie (Step 4 of
the construction and Corollaries 5/8) and to generic tree counting
(Theorems 8/9).

The mechanism decomposes ``[0, T)`` into dyadic intervals, releases one noisy
partial sum per interval per sequence, and reconstructs each prefix sum from
at most ``floor(log T) + 1`` noisy partial sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dp.distributions import (
    gaussian_tail_bound,
    laplace_sum_tail_bound,
    sample_gaussian,
    sample_laplace,
)
from repro.dp.mechanisms import (
    CountingMechanism,
    GaussianMechanism,
    LaplaceMechanism,
    NoiselessMechanism,
)
from repro.exceptions import SensitivityError

__all__ = [
    "dyadic_intervals",
    "canonical_cover",
    "NoisyPrefixSums",
    "PrefixSumMechanism",
]

#: flat elements per block of :meth:`PrefixSumMechanism.release_many_flat`
#: (blocks hold whole sequences, so a block can exceed this by one
#: sequence); the interval temporaries of a block are a few times its size.
RELEASE_BLOCK = 1 << 16


def dyadic_intervals(length: int) -> list[tuple[int, int]]:
    """All dyadic intervals of ``[0, length)``.

    Intervals are half-open ``[lo, hi)`` with ``hi - lo = 2^i`` for
    ``i = 0 .. floor(log2 length)``; the last interval of each level is
    clipped to ``length``.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    intervals: list[tuple[int, int]] = []
    if length == 0:
        return intervals
    max_level = int(math.floor(math.log2(length))) if length > 1 else 0
    for level in range(max_level + 1):
        width = 1 << level
        start = 0
        while start < length:
            intervals.append((start, min(start + width, length)))
            start += width
    return intervals


def canonical_cover(prefix_length: int, total_length: int) -> list[tuple[int, int]]:
    """Decompose ``[0, prefix_length)`` into at most ``floor(log2 T) + 1``
    disjoint dyadic intervals of ``[0, total_length)``.

    The greedy decomposition repeatedly takes the largest power-of-two block
    aligned at the current position that fits inside the remaining prefix.
    """
    if not 0 <= prefix_length <= total_length:
        raise ValueError("prefix_length must lie in [0, total_length]")
    cover: list[tuple[int, int]] = []
    position = 0
    remaining = prefix_length
    while remaining > 0:
        # Largest power of two that divides `position` (or everything when
        # position == 0) and does not exceed `remaining`.
        if position == 0:
            width = 1 << (remaining.bit_length() - 1)
        else:
            alignment = position & (-position)
            width = min(alignment, 1 << (remaining.bit_length() - 1))
        cover.append((position, position + width))
        position += width
        remaining -= width
    return cover


@dataclass
class NoisyPrefixSums:
    """Noisy prefix sums of one sequence.

    ``values[i]`` estimates ``a[0] + ... + a[i]`` (the ``(i+1)``-st prefix
    sum).  ``partial_sums`` maps each dyadic interval to its noisy partial
    sum, which callers may reuse (e.g. for suffix sums).
    """

    values: np.ndarray
    partial_sums: dict[tuple[int, int], float]

    def prefix(self, length: int) -> float:
        """Noisy estimate of the sum of the first ``length`` elements."""
        if length == 0:
            return 0.0
        return float(self.values[length - 1])


class PrefixSumMechanism:
    """Binary-tree mechanism for ``k`` sequences sharing one privacy budget.

    Parameters
    ----------
    mechanism:
        The noise mechanism carrying the ``(epsilon, delta)`` budget for the
        *whole* collection of prefix sums.  :class:`LaplaceMechanism` yields
        Lemma 11, :class:`GaussianMechanism` yields Lemma 18 and
        :class:`NoiselessMechanism` yields exact prefix sums (testing only).
    total_l1_sensitivity:
        ``L`` — bound on the summed L1 distance of all ``k`` sequences between
        neighboring databases.
    per_sequence_l1_sensitivity:
        ``Delta`` — bound on the L1 distance of any single sequence between
        neighboring databases.  Only used by the Gaussian variant (where it
        sharpens the L2 sensitivity via Hoelder / Lemma 14); defaults to
        ``L``.
    max_length:
        ``T`` — an upper bound on the length of every sequence.  The noise
        scale depends on ``floor(log2 T) + 1``, so the same bound must be
        used for privacy accounting and for error bounds.
    """

    def __init__(
        self,
        mechanism: CountingMechanism,
        *,
        total_l1_sensitivity: float,
        max_length: int,
        per_sequence_l1_sensitivity: float | None = None,
    ) -> None:
        if total_l1_sensitivity <= 0:
            raise SensitivityError("total_l1_sensitivity must be positive")
        if max_length < 1:
            raise ValueError("max_length must be at least 1")
        self.mechanism = mechanism
        self.total_l1_sensitivity = float(total_l1_sensitivity)
        self.per_sequence_l1_sensitivity = float(
            per_sequence_l1_sensitivity
            if per_sequence_l1_sensitivity is not None
            else total_l1_sensitivity
        )
        if self.per_sequence_l1_sensitivity > self.total_l1_sensitivity:
            self.per_sequence_l1_sensitivity = self.total_l1_sensitivity
        self.max_length = int(max_length)
        #: number of dyadic levels: floor(log2 T) + 1.
        self.levels = int(math.floor(math.log2(self.max_length))) + 1

    # ------------------------------------------------------------------
    # Noise calibration
    # ------------------------------------------------------------------
    def partial_sum_noise_scale(self) -> float:
        """Scale of the noise added to each individual partial sum.

        Any element contributes to at most ``levels`` partial sums, so the L1
        sensitivity of the full vector of partial sums is ``L * levels`` and
        its L2 sensitivity is ``sqrt(L * Delta * levels)`` (Lemma 14).
        """
        l1 = self.total_l1_sensitivity * self.levels
        l2 = math.sqrt(
            self.total_l1_sensitivity * self.per_sequence_l1_sensitivity * self.levels
        )
        return self.mechanism.noise_scale(l1, l2)

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------
    def release(
        self, sequence: Sequence[float] | np.ndarray, rng: np.random.Generator
    ) -> NoisyPrefixSums:
        """Release all prefix sums of one sequence.

        Call once per sequence; the noise scale already accounts for all
        ``k`` sequences through ``total_l1_sensitivity``.
        """
        array = np.asarray(sequence, dtype=np.float64)
        if len(array) > self.max_length:
            raise ValueError(
                f"sequence of length {len(array)} exceeds max_length={self.max_length}"
            )
        scale = self.partial_sum_noise_scale()
        intervals = dyadic_intervals(len(array))
        partial_sums: dict[tuple[int, int], float] = {}
        if intervals:
            exact = np.array([array[lo:hi].sum() for lo, hi in intervals])
            noise = self._sample(scale, len(intervals), rng)
            for (interval, value) in zip(intervals, exact + noise):
                partial_sums[interval] = float(value)
        prefix_values = np.zeros(len(array), dtype=np.float64)
        for m in range(1, len(array) + 1):
            cover = canonical_cover(m, max(len(array), 1))
            prefix_values[m - 1] = sum(partial_sums[interval] for interval in cover)
        return NoisyPrefixSums(values=prefix_values, partial_sums=partial_sums)

    def release_many(
        self, sequences: Sequence[Sequence[float]], rng: np.random.Generator
    ) -> list[NoisyPrefixSums]:
        """Release all prefix sums of all ``k`` sequences."""
        return [self.release(sequence, rng) for sequence in sequences]

    def release_many_flat(
        self,
        flat: np.ndarray,
        offsets: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorized :meth:`release_many` over a flattened sequence batch.

        ``flat`` concatenates all ``k`` sequences; ``offsets`` (length
        ``k + 1``) marks their boundaries, so sequence ``p`` is
        ``flat[offsets[p]:offsets[p + 1]]``.  Returns the noisy prefix sums
        in the same flat layout: position ``offsets[p] + m - 1`` estimates
        the ``m``-th prefix sum of sequence ``p``.

        Bit-identical to :meth:`release_many`
        (``tests/core/test_build_backends.py`` asserts this at several block
        sizes).  Sequences are released in contiguous blocks of whole sequences
        (about :data:`RELEASE_BLOCK` elements each), so the temporaries stay
        block-sized; each block draws the noise of all its intervals in one
        RNG call — numpy generators fill element by element, so the
        concatenated stream equals the per-sequence calls.  The exact
        partial sums replicate ``array[lo:hi].sum()`` by grouping
        equal-width intervals into one row-wise ``np.sum`` (same pairwise
        reduction), and the canonical covers are accumulated left to right
        exactly like the per-interval Python sum.
        """
        flat = np.asarray(flat, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.diff(offsets)
        if lengths.size and int(lengths.max()) > self.max_length:
            raise ValueError(
                f"sequence of length {int(lengths.max())} exceeds "
                f"max_length={self.max_length}"
            )
        values = np.zeros(flat.size, dtype=np.float64)
        if flat.size == 0:
            return values
        covers = _CoverTable(int(lengths.max()))
        # A block starts at the first sequence starting at or after each
        # multiple of RELEASE_BLOCK.
        starts = np.searchsorted(offsets[:-1], np.arange(0, flat.size, RELEASE_BLOCK))
        cuts = np.unique(np.append(starts, lengths.size)).tolist()
        for first, last in zip(cuts[:-1], cuts[1:]):
            lo, hi = int(offsets[first]), int(offsets[last])
            if hi > lo:
                values[lo:hi] = self._release_block(
                    flat[lo:hi], lengths[first:last], covers, rng
                )
        return values

    def _release_block(
        self,
        flat: np.ndarray,
        lengths: np.ndarray,
        covers: "_CoverTable",
        rng: np.random.Generator,
    ) -> np.ndarray:
        """The noisy prefix sums of one block of whole sequences."""
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        # ------------------------------------------------------------------
        # Enumerate every dyadic interval of every sequence, in the exact
        # per-sequence order dyadic_intervals() produces (level-major,
        # ascending start) so the one-call noise vector lines up with the
        # per-sequence draws of release().
        # ------------------------------------------------------------------
        part_path: list[np.ndarray] = []
        part_level: list[np.ndarray] = []
        part_pos: list[np.ndarray] = []
        for level in range(covers.num_levels):
            width = 1 << level
            # A sequence of length t has levels 0..floor(log2 t), i.e. the
            # level exists iff 2^level <= t, with ceil(t / width) intervals.
            counts = np.where(lengths >> level > 0, -(-lengths // width), 0)
            total = int(counts.sum())
            if total == 0:
                continue
            paths = np.repeat(np.arange(lengths.size), counts)
            starts_in_group = np.arange(total) - np.repeat(
                np.concatenate(([0], np.cumsum(counts)[:-1])), counts
            )
            part_path.append(paths)
            part_level.append(np.full(total, level, dtype=np.int64))
            part_pos.append(starts_in_group)
        interval_path = np.concatenate(part_path)
        interval_level = np.concatenate(part_level)
        interval_pos = np.concatenate(part_pos)
        # Reorder level-major-global -> path-major (level-major within path).
        order = np.lexsort((interval_pos, interval_level, interval_path))
        interval_path = interval_path[order]
        interval_level = interval_level[order]
        interval_pos = interval_pos[order]
        t_of_interval = lengths[interval_path]
        interval_lo = interval_pos << interval_level
        interval_len = np.minimum(
            interval_lo + (np.int64(1) << interval_level), t_of_interval
        ) - interval_lo
        flat_lo = offsets[interval_path] + interval_lo

        # Exact partial sums, grouped by interval width so each group is one
        # contiguous row-wise np.sum (bitwise equal to the per-slice sums).
        exact = np.empty(interval_path.size, dtype=np.float64)
        for width in np.unique(interval_len):
            group = np.flatnonzero(interval_len == width)
            rows = flat[flat_lo[group][:, None] + np.arange(int(width))[None, :]]
            exact[group] = np.sum(rows, axis=1)

        scale = self.partial_sum_noise_scale()
        noise = self._sample(scale, interval_path.size, rng)
        partials = exact + noise

        # ------------------------------------------------------------------
        # Reconstruct every prefix sum from its canonical cover, accumulating
        # cover blocks left to right (the same float-addition order as the
        # per-interval Python sum in release()).
        # ------------------------------------------------------------------
        # Index base of each sequence's interval block.
        interval_counts = np.bincount(interval_path, minlength=lengths.size)
        interval_base = np.concatenate(([0], np.cumsum(interval_counts)[:-1]))
        values = np.zeros(flat.size, dtype=np.float64)
        element_path = np.repeat(np.arange(lengths.size), lengths)
        element_m = np.arange(flat.size) - offsets[element_path] + 1
        element_t = lengths[element_path]
        for slot in range(covers.max_cover):
            active = covers.cover_len[element_m] > slot
            if not active.any():
                break
            m_active = element_m[active]
            level = covers.cover_level[slot, m_active]
            pos = covers.cover_pos[slot, m_active]
            collides = (m_active == element_t[active]) & (
                covers.cover_len[m_active] - 1 == slot
            )
            level = np.where(collides, covers.final_level[m_active], level)
            pos = np.where(collides, covers.final_pos[m_active], pos)
            idx = (
                interval_base[element_path[active]]
                + covers.level_offset[element_t[active], level]
                + pos
            )
            values[active] += partials[idx]
        return values

    def _sample(
        self, scale: float, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        if isinstance(self.mechanism, NoiselessMechanism) or scale == 0.0:
            return np.zeros(size)
        if isinstance(self.mechanism, LaplaceMechanism):
            return sample_laplace(scale, size, rng)
        if isinstance(self.mechanism, GaussianMechanism):
            return sample_gaussian(scale, size, rng)
        raise TypeError(f"unsupported mechanism type {type(self.mechanism)!r}")

    # ------------------------------------------------------------------
    # Error bounds
    # ------------------------------------------------------------------
    def sup_error_bound(self, num_sequences: int, beta: float) -> float:
        """High-probability bound on the error of *every* prefix sum of
        ``num_sequences`` sequences (Lemma 11 / Lemma 18 with the constants
        of this implementation)."""
        if not 0 < beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        scale = self.partial_sum_noise_scale()
        if scale == 0.0:
            return 0.0
        total_prefixes = max(1, num_sequences * self.max_length)
        per_prefix_beta = beta / total_prefixes
        if isinstance(self.mechanism, LaplaceMechanism):
            # Each prefix sum adds at most `levels` independent Laplace
            # variables (Lemma 12).
            return laplace_sum_tail_bound(scale, self.levels, per_prefix_beta)
        if isinstance(self.mechanism, GaussianMechanism):
            # The sum of `levels` Gaussians is Gaussian with std
            # scale * sqrt(levels) (Fact 1).
            return gaussian_tail_bound(scale * math.sqrt(self.levels), per_prefix_beta)
        return 0.0


class _CoverTable:
    """Where every prefix sum's canonical cover blocks sit in a sequence's
    level-major interval layout, for every sequence length up to ``max_t``
    (shared by all blocks of one :meth:`PrefixSumMechanism.
    release_many_flat` call)."""

    def __init__(self, max_t: int) -> None:
        self.num_levels = num_levels = int(math.floor(math.log2(max_t))) + 1
        # Per-(t, level) offsets of the level-major interval layout.
        self.level_offset = np.zeros((max_t + 1, num_levels + 1), dtype=np.int64)
        ts = np.arange(max_t + 1)
        for level in range(num_levels):
            per_level = np.where(ts >> level > 0, -(-ts // (1 << level)), 0)
            self.level_offset[:, level + 1] = self.level_offset[:, level] + per_level
        # Canonical covers by prefix length (independent of t).
        cover_lists = [canonical_cover(m, max_t) for m in range(max_t + 1)]
        self.max_cover = max(len(cover) for cover in cover_lists)
        self.cover_len = np.array([len(cover) for cover in cover_lists])
        self.cover_level = np.full((self.max_cover, max_t + 1), -1, dtype=np.int64)
        self.cover_pos = np.zeros((self.max_cover, max_t + 1), dtype=np.int64)
        for m, cover in enumerate(cover_lists):
            for slot, (lo, hi) in enumerate(cover):
                level = (hi - lo).bit_length() - 1
                self.cover_level[slot, m] = level
                self.cover_pos[slot, m] = lo >> level
        # release() keys partial sums by (lo, hi), so a clipped interval of a
        # higher level that also ends at t overwrites any lower-level
        # interval with the same bounds (e.g. t = 3: the clipped level-1
        # interval (2, 3) replaces the level-0 one).  Only the final cover
        # block of the full prefix m = t can hit such a collision; resolve
        # it to the highest colliding level, exactly like the dict does.
        self.final_level = np.zeros(max_t + 1, dtype=np.int64)
        self.final_pos = np.zeros(max_t + 1, dtype=np.int64)
        for t in range(1, max_t + 1):
            lo, hi = cover_lists[t][-1]
            level = (hi - lo).bit_length() - 1
            for candidate in range(t.bit_length() - 1, level - 1, -1):
                if ((t - 1) >> candidate) << candidate == lo:
                    level = candidate
                    break
            self.final_level[t] = level
            self.final_pos[t] = lo >> level
