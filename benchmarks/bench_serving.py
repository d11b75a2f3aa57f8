"""E20 — Query-serving throughput: the array trie's single-pattern walk vs
its vectorized batch query on the genome and transit workloads.

The serving layer's contract is twofold: *exact* post-processing parity
(the batch path answers the same counts as the per-pattern walk) and a
large throughput win for batched traffic.  The headline number is
``batch_speedup``: vectorized ``PrivateCountingTrie.batch_query`` against a
plain ``PrivateCountingTrie.query`` loop over the same serving-style
traffic mix.  That loop walks the dense transition table one character
at a time, as served ``/query`` does.
"""

from repro.analysis import experiments


def test_e20_serving_throughput(benchmark, experiment_report):
    rows = benchmark.pedantic(
        lambda: experiments.run_serving_throughput(
            workloads=("genome", "transit"), n=2000, num_queries=20_000
        ),
        rounds=1,
        iterations=1,
    )
    experiment_report.record(
        "E20", "Query-serving throughput (batch vs per-pattern query loop)", rows
    )
    for row in rows:
        # Serving is post-processing: every path answers identical counts.
        assert row["parity_ok"], f"parity violated on {row['workload']}"
        # The batch path is the acceptance headline: at least 5x the
        # throughput of a per-pattern PrivateCountingTrie.query loop.
        assert row["batch_speedup"] >= 5.0, (
            f"{row['workload']}: batch only "
            f"{row['batch_speedup']:.2f}x over the trie loop"
        )
    # Batched serving reaches millions of queries per second.
    assert all(row["qps_compiled_batch"] > 1_000_000 for row in rows)
