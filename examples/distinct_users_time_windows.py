"""Privately counting user activity over time windows, continually.

Section 1.1.3 of the paper discusses counting over *time windows*: data
arrives bucketed by time slot, and the curator wants to publish counts
after every window, not once at the end.  Naive sequential composition
makes that ruinously expensive — T windows cost ``T * epsilon``.  The
continual-release pipeline brings it down to ``O(log T)``: windows are
epochs on an append-only :class:`~repro.api.CorpusStream`, and every
epoch's release is the *post-processing sum* of per-dyadic-interval
heavy-path structures (the classic binary-tree trick of
:func:`~repro.dp.canonical_cover`, applied to the epoch axis).  Each
window of documents lands in exactly one dyadic interval per level, so
same-level structures compose in parallel, and the total spend after T
windows is ``bit_length(T) * epsilon`` — the ``O(log T)`` tree bound.

This example streams eight windows of user trajectories (strings of
station ids) through an :class:`~repro.serving.EpochScheduler`:

1. every window publishes a fresh substring-count release into a
   versioned store, charged against a shared budget ledger;
2. the per-window *marginal* charge is the full epoch budget only at
   power-of-two windows and zero otherwise;
3. after the stream drains, any window's snapshot can still be queried:
   versions are pinned by epoch, and querying is free post-processing.

Run with::

    python examples/distinct_users_time_windows.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import CorpusStream, PrivacyBudget
from repro.core.params import ConstructionParams
from repro.serving import BudgetLedger, EpochScheduler, ReleaseStore

NUM_WINDOWS = 8          # e.g. 8 three-hour buckets ~ one day
USERS_PER_WINDOW = 15
TRIP_LENGTH = 10
STATIONS = "abcdefgh"
EPSILON = 8.0            # per-epoch budget of the tree schedule


def window_trajectories(rng: np.random.Generator) -> list[str]:
    """One window of activity: each user's trip as a station-id string."""
    trips = []
    for _ in range(USERS_PER_WINDOW):
        start = rng.integers(len(STATIONS))
        steps = rng.integers(-1, 2, size=TRIP_LENGTH - 1)
        stations = (start + np.concatenate([[0], np.cumsum(steps)])) % len(STATIONS)
        trips.append("".join(STATIONS[int(s)] for s in stations))
    return trips


def main() -> None:
    rng = np.random.default_rng(17)
    stream = CorpusStream(name="activity")
    params = ConstructionParams(budget=PrivacyBudget(EPSILON), beta=0.1)

    with tempfile.TemporaryDirectory() as scratch:
        store = ReleaseStore(Path(scratch) / "store")
        # The cap funds the whole horizon at the tree bound — a naive
        # schedule would blow through it halfway.
        levels = NUM_WINDOWS.bit_length()
        ledger = BudgetLedger(
            PrivacyBudget(levels * EPSILON, 1e-6),
            path=Path(scratch) / "ledger.json",
        )
        scheduler = EpochScheduler(stream, store, ledger, params=params, seed=17)

        print(f"continual release over {NUM_WINDOWS} time windows "
              f"(epoch budget epsilon = {EPSILON}):")
        for window in range(1, NUM_WINDOWS + 1):
            stream.append_epoch(window_trajectories(rng))   # the window closes...
            release = scheduler.run_epoch()                 # ...and is released
            print(
                f"  window {window}: v{release.version} published, "
                f"marginal eps {release.epsilon:4.1f}, "
                f"total spent {release.spent_epsilon:5.1f} "
                f"(naive composition would be {window * EPSILON:5.1f})"
            )

        total = scheduler.status()["spent_epsilon"]
        print(
            f"\nafter {NUM_WINDOWS} windows: spent eps = {total:g} "
            f"= bit_length({NUM_WINDOWS}) * {EPSILON:g} — the O(log T) tree "
            f"bound — vs {NUM_WINDOWS * EPSILON:g} for naive re-release."
        )

        # Query the live head and a pinned historical window.  Both are
        # post-processing: no further privacy cost.
        service = scheduler.current_service()
        try:
            pattern = "ab"
            print(f"\nquery({pattern!r}) on the latest window's release: "
                  f"{service.query(pattern, 'activity'):.1f}")
        finally:
            service.close()
        half_day = NUM_WINDOWS // 2
        pinned_version = scheduler.version_for_epoch(half_day)
        print(
            f"window {half_day}'s snapshot is pinned as store version "
            f"{pinned_version}: in-flight readers keep their epoch while the "
            "tier hot-reloads ahead of them."
        )
        print(
            "\nNote: replaying the same stream with the same seed reproduces "
            "every release digest exactly — the per-interval RNGs are seeded "
            "by (seed, interval), not by arrival time."
        )


if __name__ == "__main__":
    main()
