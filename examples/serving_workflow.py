"""End-to-end serving workflow: build under a ledger, store, serve, query.

This demo plays all three roles of the serving story in one process:

1. **Curator** — builds releases through the fluent ``Dataset`` API (two
   structure kinds of the same genome panel: the heavy-path trie and a
   Theorem 4 q-gram release) against a budget ledger with a global
   ``(epsilon, delta)`` cap, storing each release in a versioned on-disk
   release store.  A third build against the panel is refused by the
   ledger *before* it touches the data.
2. **Operator** — loads the store, compiles every release to the array form
   and serves them over HTTP (the same path as ``dpsc serve``).
3. **Analyst** — uses the stdlib client for single queries, one vectorized
   batch of thousands of patterns, and server-side mining; all post-
   processing, all free of privacy cost, and bit-identical to querying the
   in-memory structure.

Run with::

    python examples/serving_workflow.py
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

import numpy as np

from repro import (
    BudgetLedger,
    Dataset,
    PrivacyBudget,
    QueryService,
    ReleaseStore,
    ServingClient,
)
from repro.exceptions import BudgetExceededError
from repro.serving import create_server
from repro.workloads.genome import genome_with_motifs
from repro.workloads.transit import transit_trajectories

EPSILON = 20.0
CAP = PrivacyBudget(epsilon=45.0, delta=1e-5)


def curator(store: ReleaseStore, ledger: BudgetLedger):
    """Build and store the releases; returns the in-memory genome release."""
    print("=== curator ===")
    print(f"global cap: epsilon = {CAP.epsilon}, delta = {CAP.delta}")
    rng = np.random.default_rng(11)
    genome = genome_with_motifs(1000, 12, rng)
    genome_panel = (
        Dataset.from_database(genome)
        .with_budget(EPSILON)
        .with_beta(0.1)
        .with_threshold(40.0)
        .with_ledger(ledger, "genome-panel")
    )

    genome_release = genome_panel.build("heavy-path", rng=rng)
    record = genome_release.release(store, "genome")
    print(f"released genome v{record.version}: {record.num_patterns} patterns")

    # A second release of the *same* panel — this time the fixed-length
    # Theorem 4 q-gram structure — composes on the ledger: 2 * EPSILON = 40
    # of the 45 cap spent.
    record = (
        genome_panel.with_budget(EPSILON, 1e-6)
        .build("qgram-t4", rng=rng, q=4)
        .release(store, "genome-4grams")
    )
    print(f"released genome-4grams v{record.version}: {record.num_patterns} patterns")

    transit = transit_trajectories(1000, 12, rng)
    record = (
        Dataset.from_database(transit)
        .with_budget(EPSILON)
        .with_beta(0.1)
        .with_threshold(45.0)
        .with_ledger(ledger, "transit-trips")
        .build("heavy-path", rng=rng)
        .release(store, "transit")
    )
    print(f"released transit v{record.version}: {record.num_patterns} patterns")

    spent = ledger.spent("genome-panel")
    print(f"ledger[genome-panel]: spent epsilon = {spent.epsilon:g}")

    # A third genome-panel release would compose to 60 > 45: the ledger
    # must refuse it before any construction runs.
    try:
        genome_panel.build("heavy-path", rng=rng)
    except BudgetExceededError as error:
        print(f"third genome-panel build refused: {error}")
    return genome_release


def analyst(client: ServingClient, genome_release) -> None:
    print()
    print("=== analyst ===")
    for info in client.releases():
        marker = "*" if info["default"] else " "
        print(
            f"{marker} release {info['name']}: {info['num_patterns']} patterns, "
            f"epsilon = {info['epsilon']:g}, {info['compiled_bytes']} compiled bytes"
        )

    for pattern in ("ACG", "GGCC", "GATTACA"):
        count = client.query(pattern, release="genome")
        print(f"  query({pattern!r}) = {count:.1f}")

    # One vectorized round trip for thousands of patterns.
    alphabet = "ACGT"
    rng = np.random.default_rng(3)
    batch = [
        "".join(alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 7)))
        for _ in range(5000)
    ]
    counts = client.batch(batch, release="genome")
    assert counts == genome_release.batch_query(batch).tolist(), (
        "served batch counts differ from the in-memory release"
    )
    positive = sum(1 for c in counts if c > 0)
    print(f"  batch of {len(batch)} patterns: {positive} with positive counts")

    frequent = client.mine(60.0, release="genome", min_length=3)
    print(f"  mining at tau = 60: {[p for p, _ in frequent[:5]]}")

    # The q-gram release serves fixed-length traffic through the counter's
    # uniform-length batch path.
    counts = client.batch(["ACGT", "GGCC", "TTTT"], release="genome-4grams")
    print(f"  genome-4grams batch: {[round(c, 1) for c in counts]}")

    health = client.healthz()
    print(
        f"  server health: {health['queries']} queries, "
        f"{health['batch_patterns']} batched patterns, "
        f"{health.get('micro_batches_flushed', 0)} micro-batches"
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        store = ReleaseStore(root / "releases")
        ledger = BudgetLedger(CAP, path=root / "ledger.json")
        genome_release = curator(store, ledger)

        service = QueryService.from_store(store, default_release="genome")
        server = create_server(service, port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        print(f"\nserving {store.names()} on http://{host}:{port}")

        try:
            with ServingClient(f"http://{host}:{port}") as client:
                analyst(client, genome_release)
        finally:
            server.shutdown()
            server.server_close()
            service.close()


if __name__ == "__main__":
    main()
