"""E29 — Chaos drill: seeded fault injection against the resilient tier.

The acceptance contract of the resilience layer (``docs/RESILIENCE.md``):
with failpoints armed from one seed — injected 500s inside every worker's
request handler, injected connection resets on the router's worker
round-trips — and one worker ``kill -9``'d mid-run, resilient clients
hammering a live cluster must see **zero** errors and bit-identical
answers; client p99 latency must stay under the per-request deadline; the
injection logs written by the router and by every worker process must
verify exactly against the pure recomputation of the seeded schedule
(:func:`repro.faults.verify_log` — the run is replayable, not merely
survivable); the killed worker must be respawned; and the framework must
be free when disarmed: over 16 blocks of N interleaved pairs of ``/batch``
round trips, injection off versus armed at an irrelevant site, the median
ratio of the blocks' fastest round trips stays within noise of 1.

Also runnable as a script (the CI ``chaos-smoke`` job does)::

    python benchmarks/bench_chaos.py --smoke --output smoke.json

Script mode persists the rows as JSON (the repo-root ``BENCH_chaos.json``
records the trajectory) and exits non-zero when any gate fails;
``--smoke`` drills a 2-worker cluster with lighter traffic (the full run
drills 4 workers).
"""

from repro.analysis import experiments

TITLE = "Chaos drill: seeded faults + worker kill, zero client errors, replayable"

SMOKE = {
    "workers": 2,
    "target_nodes": 10_000,
    "clients": 3,
    "requests_per_client": 25,
    "batch_size": 128,
    "overhead_repeats": 20,
}
FULL = {
    "workers": 4,
    "target_nodes": 40_000,
    "clients": 4,
    "requests_per_client": 40,
    "batch_size": 256,
    "overhead_repeats": 40,
}

#: the median of 16 per-block ratios of interleaved round trips sits at
#: ~1.0 on a shared machine; the gate allows 5%.  A ``worker.handle`` delay of 10% of the
#: round trip fails it (``tests/faults/test_failpoints.py``).
OVERHEAD_GATE = 1.05


def _check_rows(rows, *, smoke):
    failures = []
    drill_rows = [row for row in rows if row.get("mode") == "chaos-drill"]
    overhead_rows = [row for row in rows if row.get("mode") == "disarmed-overhead"]
    if not drill_rows:
        failures.append("no chaos drill ran")
    for row in drill_rows:
        if not row["zero_failures"]:
            failures.append(
                f"drill: {row['client_errors']} client-visible errors and "
                f"{row['mismatches']} mismatched answers across "
                f"{row['requests_total']} requests"
            )
        if not row["replay_identical"]:
            failures.append(
                f"drill: injection log does not replay: {row['replay_problems']}"
            )
        if not (row["injected_router"] and row["injected_worker"]):
            failures.append(
                f"drill: expected faults at both tiers, got "
                f"router={row['injected_router']} worker={row['injected_worker']}"
            )
        if not row["p99_under_deadline"]:
            failures.append(
                f"drill: p99 {row['p99_ms']:.0f}ms breached the "
                f"{row['deadline_s']:g}s deadline"
            )
        if row["respawns"] < 1:
            failures.append("drill: the killed worker was never respawned")
        if row["workers_live_after"] < row["workers"]:
            failures.append(
                f"drill: only {row['workers_live_after']}/{row['workers']} "
                "workers live after the run"
            )
    if not overhead_rows:
        failures.append("no disarmed-overhead row")
    for row in overhead_rows:
        if row["overhead_ratio"] > OVERHEAD_GATE:
            failures.append(
                f"overhead: disarmed failpoints cost ratio "
                f"{row['overhead_ratio']:.3f} > {OVERHEAD_GATE}"
            )
    return failures


def test_e29_chaos_drill(benchmark, experiment_report):
    rows = benchmark.pedantic(
        lambda: experiments.run_chaos_drill(**SMOKE),
        rounds=1,
        iterations=1,
    )
    experiment_report.record("E29", TITLE, rows)
    failures = _check_rows(rows, smoke=True)
    assert not failures, "; ".join(failures)


def _main() -> int:
    import argparse
    import json
    import pathlib
    import sys

    parser = argparse.ArgumentParser(description=TITLE)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke: 2-worker drill with lighter traffic (full: 4 workers)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_chaos.json",
        help="where to write the JSON rows (default: BENCH_chaos.json)",
    )
    args = parser.parse_args()

    params = SMOKE if args.smoke else FULL
    rows = experiments.run_chaos_drill(**params)
    failures = _check_rows(rows, smoke=args.smoke)

    payload = {
        "experiment": "E29",
        "title": TITLE,
        "mode": "smoke" if args.smoke else "full",
        "rows": rows,
        "ok": not failures,
    }
    pathlib.Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    for row in rows:
        if row["mode"] == "chaos-drill":
            print(
                f"drill: {row['requests_total']} requests over "
                f"{row['workers']} workers, {row['client_errors']} client "
                f"errors, {row['mismatches']} mismatches, "
                f"{row['injected_router']}+{row['injected_worker']} faults "
                f"injected (router+workers), {row['respawns']} respawn(s), "
                f"p99={row['p99_ms']:.0f}ms (deadline {row['deadline_s']:g}s), "
                f"replay_identical={row['replay_identical']}"
            )
        else:
            print(
                f"overhead: disarmed {row['disarmed_ms']:.3f}ms vs "
                f"armed-elsewhere {row['armed_elsewhere_ms']:.3f}ms "
                f"(median of {row['blocks']} block ratios {row['overhead_ratio']:.3f})"
            )
    if failures:
        print("\n".join(f"FAIL: {line}" for line in failures), file=sys.stderr)
        return 1
    print(f"ok — rows written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
