"""E20 — Batched queries vs per-pattern query loops.

Every count is post-processing of one released counter, so the batch path
must answer exactly what the per-pattern walk answers, and much faster:

* every row (each registered kind on batches of 64–1024 patterns, and the
  heavy-path counters of the genome and transit workloads on a 20,000
  pattern mixed-length stream) is bit-for-bit equal to the ``query`` loop;
* the q-gram structure served at scale (Theorem 4, whose fixed-length
  traffic rides the uniform-length batch path) is >= 5x the loop at >= 512
  patterns;
* the mixed-length stream is >= 5x the loop and over 1M patterns/s.
"""

from repro.analysis import experiments


def test_e20_batch_query(benchmark, experiment_report):
    rows = benchmark.pedantic(
        experiments.run_batch_query_benchmark, rounds=1, iterations=1
    )
    experiment_report.record(
        "E20", "Batched queries vs per-pattern query loops", rows
    )
    assert {row["kind"] for row in rows if row["shape"] == "batches"} == {
        "heavy-path", "qgram-t3", "qgram-t4", "baseline"
    }
    assert {row["workload"] for row in rows if row["shape"] == "stream"} == {
        "genome", "transit"
    }
    for row in rows:
        name = f"{row['shape']} {row['workload']} {row['kind']} x{row['patterns']}"
        assert row["bitwise_equal"], f"{name}: the batch path diverges from the loop"
        if row["shape"] == "stream" or (
            row["kind"] == "qgram-t4" and row["patterns"] >= 512
        ):
            assert row["speedup"] >= 5.0, f"{name}: only {row['speedup']:.2f}x"
        if row["shape"] == "stream":
            assert row["patterns_per_s"] > 1_000_000, name
