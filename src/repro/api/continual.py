"""The ``heavy-path-continual`` structure kind: re-releases under the tree
schedule.

The builder realizes the release side of the continual-observation pipeline
(:class:`~repro.dp.ContinualAccountant` is the accounting side): the release
after epoch ``t`` of a :class:`~repro.api.CorpusStream` is assembled from one
standard ``heavy-path`` structure per dyadic interval of
``canonical_cover(t)``, each built over *only its interval's documents* with
the full per-epoch budget and a deterministic per-interval RNG seeded as
``(seed, lo, hi)``.

Why this is cheap and sound:

* exactly one new interval — ``[t - lowbit(t), t)`` — completes at epoch
  ``t``, so with a cache only one ``heavy-path`` build runs per epoch;
* intervals of one dyadic level hold disjoint documents, so a level costs one
  epoch budget under parallel composition, and the cumulative spend through
  epoch ``t`` is ``(floor(log2 t) + 1)`` epoch budgets (the ``O(log T)``
  bound the ledger's :meth:`~repro.serving.BudgetLedger.charge_epoch`
  enforces);
* summing the cover structures' noisy counts per pattern is post-processing
  — free, and deterministic, so the combined release's digest is stable
  under replay with the same seed (each interval build inherits the
  bit-identical array/object backend guarantees of the plain ``heavy-path``
  kind).

The advertised error is the sum of the cover intervals'
``absent_pattern_bound``: a pattern pruned from an interval contributes 0
there, although its true count in that interval can reach that bound, and
a stored one errs by at most its interval's ``error_bound``, which is never
larger.  It holds with probability ``1 - sum(beta_i)`` (a union bound over
the cover), which the release advertises as its ``beta``.
"""

from __future__ import annotations

from typing import MutableMapping

import numpy as np

from repro.api.stream import CorpusStream
from repro.core.params import ConstructionParams
from repro.core.private_trie import PrivateCountingTrie, StructureMetadata
from repro.dp.composition import ContinualAccountant
from repro.exceptions import ReproError

__all__ = ["build_continual_structure", "continual_interval_structures"]

#: cache key of one per-interval structure.
IntervalKey = tuple[int, int]


def _interval_rng(seed: int, lo: int, hi: int) -> np.random.Generator:
    """The deterministic RNG of interval ``[lo, hi)`` — a pure function of
    ``(seed, lo, hi)``, so any interval rebuilt in any epoch (or any replay)
    draws identical noise."""
    return np.random.default_rng([int(seed), int(lo), int(hi)])


def continual_interval_structures(
    stream: CorpusStream,
    params: ConstructionParams,
    *,
    epoch: int,
    seed: int = 0,
    base_kind: str = "heavy-path",
    registry=None,
    cache: "MutableMapping[IntervalKey, PrivateCountingTrie] | None" = None,
    **kwargs,
) -> list[tuple[IntervalKey, PrivateCountingTrie]]:
    """One private structure per interval of epoch ``epoch``'s canonical
    cover, in cover (left-to-right) order.

    ``cache`` maps interval keys to already-built structures; missing
    intervals are built and inserted, so an :class:`EpochScheduler` that
    keeps one cache across epochs runs exactly one fresh build per epoch.
    The cache must be used with one fixed ``(params, seed, base_kind)`` —
    the determinism story keys intervals by bounds alone.
    """
    if registry is None:
        from repro.api.registry import default_registry

        registry = default_registry()
    if base_kind == "heavy-path-continual":
        raise ReproError("the continual kind cannot recurse into itself")
    if epoch > stream.num_epochs:
        raise ReproError(
            f"epoch {epoch} not yet in stream {stream.name!r} "
            f"({stream.num_epochs} epoch(s) appended)"
        )
    from repro.dp.prefix_sums import canonical_cover

    structures: list[tuple[IntervalKey, PrivateCountingTrie]] = []
    for lo, hi in canonical_cover(epoch, epoch):
        key = (lo, hi)
        structure = cache.get(key) if cache is not None else None
        if structure is None:
            structure = registry.build(
                base_kind,
                stream.database_for(lo, hi),
                params,
                rng=_interval_rng(seed, lo, hi),
                **kwargs,
            )
            if cache is not None:
                cache[key] = structure
        structures.append((key, structure))
    return structures


def build_continual_structure(
    stream: CorpusStream,
    params: ConstructionParams,
    *,
    epoch: int | None = None,
    seed: int = 0,
    base_kind: str = "heavy-path",
    registry=None,
    cache: "MutableMapping[IntervalKey, PrivateCountingTrie] | None" = None,
    **kwargs,
) -> PrivateCountingTrie:
    """The combined release after ``epoch`` epochs of ``stream``.

    ``epoch`` defaults to the stream's latest.  The result is an ordinary
    :class:`PrivateCountingTrie` — it stores every pattern present in any
    cover structure with the *sum* of its per-interval noisy counts (a
    pattern pruned from an interval contributes zero), so it releases
    through the same stores, servers and clusters as any single-shot
    structure.  Its metadata records the *cumulative* tree-schedule budget
    ``levels_used(epoch) * params.budget``, not the single-interval budget,
    and the sound cover-wide ``error_bound`` and ``beta`` of the module
    docstring.
    """
    if epoch is None:
        epoch = stream.num_epochs
    if epoch < 1:
        raise ReproError("a continual release needs at least one epoch")
    structures = continual_interval_structures(
        stream,
        params,
        epoch=epoch,
        seed=seed,
        base_kind=base_kind,
        registry=registry,
        cache=cache,
        **kwargs,
    )
    combined: dict[str, float] = {}
    absent_bound = 0.0
    beta = 0.0
    threshold = 0.0
    interval_digests: dict[str, str] = {}
    for (lo, hi), structure in structures:
        for pattern, count in structure.items():
            combined[pattern] = combined.get(pattern, 0.0) + count
        if "" in structure:  # the root count answers the empty pattern
            combined[""] = combined.get("", 0.0) + structure.query("")
        # the larger of the interval's stored-pattern error bound and the
        # bound on the true count of a pattern it pruned
        absent_bound += structure.mining_alpha(0.0)
        beta += structure.metadata.beta
        threshold = max(threshold, structure.metadata.threshold)
        interval_digests[f"{lo}:{hi}"] = structure.content_digest()
    template = structures[0][1].metadata
    levels = ContinualAccountant.levels_used(epoch)
    metadata = StructureMetadata(
        epsilon=levels * params.budget.epsilon,
        delta=levels * params.budget.delta,
        beta=beta,
        delta_cap=template.delta_cap,
        max_length=template.max_length,
        num_documents=sum(
            s.metadata.num_documents for _, s in structures
        ),
        alphabet_size=template.alphabet_size,
        error_bound=absent_bound,
        threshold=threshold,
        qgram_length=template.qgram_length,
        construction=(
            f"heavy-path-continual epoch {epoch} "
            f"({len(structures)} dyadic interval(s), base {base_kind})"
        ),
        count_backend=template.count_backend,
    )
    report = {
        "epoch": epoch,
        "cover": [[lo, hi] for (lo, hi), _ in structures],
        "levels_used": levels,
        "epoch_epsilon": params.budget.epsilon,
        "epoch_delta": params.budget.delta,
        "absent_pattern_bound": absent_bound,
        "interval_digests": interval_digests,
    }
    return PrivateCountingTrie.from_counts(combined, metadata, report)


def _build_heavy_path_continual(
    database,
    params: ConstructionParams,
    *,
    rng: np.random.Generator | None = None,
    stream: CorpusStream,
    epoch: int | None = None,
    seed: int = 0,
    cache: "MutableMapping[IntervalKey, PrivateCountingTrie] | None" = None,
    registry=None,
    **kwargs,
) -> PrivateCountingTrie:
    """Registry builder for the ``heavy-path-continual`` kind.

    The ``database`` positional of the builder contract is ignored — the
    stream is the data source — and so is ``rng``: interval noise must be a
    pure function of ``(seed, interval)`` or rebuilding an interval in a
    later epoch (or a replay) would draw different noise and break digest
    stability, so the kind takes an integer ``seed`` instead of a generator.
    """
    del database, rng
    return build_continual_structure(
        stream,
        params,
        epoch=epoch,
        seed=seed,
        registry=registry,
        cache=cache,
        **kwargs,
    )
