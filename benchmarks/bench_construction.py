"""E24 — Array-native construction pipeline: speedup and bit-identity.

The acceptance contract of the array build: on every scenario whose
candidate trie exceeds 10k nodes, the end-to-end ``build("heavy-path")``
must run at least 5x faster than the linked-object reference pipeline
(:mod:`repro.core.reference`), and the released structure must be
**bit-identical** — same ``content_digest()``, same stored patterns — at
every benchmarked setting.  Each pipeline's time is the best of three cold
builds.  Every row must also carry the array build's seven stage times and
the CPUs it ran on (``available_cpus``); a row that lacks one fails.

Also runnable as a script (the CI benchmark-smoke job does)::

    python benchmarks/bench_construction.py --tiny --output smoke.json

Script mode persists the rows as JSON (the repo-root
``BENCH_construction.json`` records the perf trajectory) and exits non-zero
when the equivalence or speedup floor fails; ``--tiny`` runs a
seconds-sized scenario and only requires speedup >= 1 (small tries cannot
amortize a 5x win, but the array path must never be a regression).
"""

from repro.analysis import experiments

TITLE = "Construction pipeline: array build vs linked-object reference"
#: what every row must record beyond the timings and identity checks
REQUIRED_FIELDS = tuple(
    f"array_{stage}_seconds" for stage in experiments.CONSTRUCTION_STAGES
) + ("available_cpus",)


def missing_fields(row: dict) -> list[str]:
    """The required fields ``row`` lacks (absent or ``None``)."""
    return [name for name in REQUIRED_FIELDS if row.get(name) is None]


def test_e24_construction_backends(benchmark, experiment_report):
    rows = benchmark.pedantic(
        lambda: experiments.run_construction_benchmark(),
        rounds=1,
        iterations=1,
    )
    experiment_report.record("E24", TITLE, rows)
    for row in rows:
        # Bit-identity: the backend may never change a released value.
        assert row["digests_equal"], f"digest mismatch at n={row['n']}"
        assert row["items_equal"], f"stored patterns differ at n={row['n']}"
        assert not missing_fields(row), f"n={row['n']} lacks {missing_fields(row)}"
    large = [row for row in rows if row["candidate_trie_nodes"] >= 10_000]
    assert large, "no scenario produced a candidate trie with >= 10k nodes"
    for row in large:
        assert row["speedup"] >= 5.0, (
            f"n={row['n']} ({row['candidate_trie_nodes']} candidate-trie "
            f"nodes): array pipeline only {row['speedup']:.2f}x over the reference"
        )


def _main() -> int:
    import argparse
    import json
    import pathlib
    import sys

    parser = argparse.ArgumentParser(description=TITLE)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="seconds-sized CI smoke: one small scenario, speedup floor 1x",
    )
    parser.add_argument(
        "--output",
        default="BENCH_construction.json",
        help="where to write the JSON rows (default: BENCH_construction.json)",
    )
    args = parser.parse_args()

    if args.tiny:
        scenarios = [(300, 12, 40.0, 20.0)]
        speedup_floor, node_floor = 1.0, 0
    else:
        scenarios = [(600, 12, 40.0, 20.0), (1000, 14, 50.0, 25.0)]
        speedup_floor, node_floor = 5.0, 10_000
    rows = experiments.run_construction_benchmark(scenarios)

    failures = []
    for row in rows:
        if not row["digests_equal"]:
            failures.append(f"n={row['n']}: content digests differ")
        if not row["items_equal"]:
            failures.append(f"n={row['n']}: stored patterns differ")
        if missing_fields(row):
            failures.append(f"n={row['n']}: row lacks {missing_fields(row)}")
        if row["candidate_trie_nodes"] >= node_floor and row["speedup"] < speedup_floor:
            failures.append(
                f"n={row['n']}: speedup {row['speedup']:.2f}x below the "
                f"{speedup_floor}x floor"
            )
    payload = {
        "experiment": "E24",
        "title": TITLE,
        "mode": "tiny" if args.tiny else "full",
        "speedup_floor": speedup_floor,
        "node_floor": node_floor,
        "rows": rows,
        "ok": not failures,
    }
    pathlib.Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    for row in rows:
        print(
            f"n={row['n']} ell={row['ell']} "
            f"nodes={row['candidate_trie_nodes']}: "
            f"object {row['object_seconds']:.3f}s "
            f"array {row['array_seconds']:.3f}s "
            f"speedup {row['speedup']:.2f}x "
            f"digests_equal={row['digests_equal']}"
        )
    if failures:
        print("\n".join(f"FAIL: {line}" for line in failures), file=sys.stderr)
        return 1
    print(f"ok — rows written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
