"""E27 — Sharded serving tier: throughput scaling over worker processes.

The acceptance contract of the multi-process serving tier
(:mod:`repro.serving.cluster`): uniform q-gram ``/batch`` traffic relayed
whole to one worker by the router must be **bit-identical** to the
single-process server — both float-for-float in every client and
byte-for-byte on a raw response body — at every worker count; second-and-
later workers must add ~0 private resident pages over the one mmap-shared
``.dpsb`` copy; a worker ``kill -9``'d mid-run must cost nothing (the
router retries, the supervisor respawns, the clients still get complete
identical results); and with at least 4 CPUs available, 4 workers must
serve at least **2.5x** the single-process pattern throughput.

The speedup floors are gated on ``available_cpus`` (recorded in every
row): a single-core container cannot exhibit multi-core scaling, but it
still proves bit identity, page sharing and crash recovery — those gates
always apply.

Also runnable as a script (the CI ``serving-scale-smoke`` job does)::

    python benchmarks/bench_serving_scale.py --smoke --output smoke.json

Script mode persists the rows as JSON (the repo-root
``BENCH_serving_scale.json`` records the perf trajectory) and exits
non-zero when any correctness assertion or an applicable speedup floor
fails; ``--smoke`` runs 1 and 2 workers with a smaller release and
shorter run (the full run sweeps 1/2/4/8 workers at the 86k-node size).
"""

import os

from repro.analysis import experiments

TITLE = "Sharded serving: throughput vs workers, bit identity, crash drill"

FULL_SPEEDUP_FLOOR = 2.5  # 4 workers vs single-process, needs >= 4 CPUs
SMOKE_SPEEDUP_FLOOR = 1.0  # 2 workers vs single-process, needs >= 2 CPUs
SMOKE = {
    "worker_counts": (1, 2),
    "target_nodes": 20_000,
    "batch_size": 512,
    "clients": 2,
    "rounds": 8,
}
FULL = {
    "worker_counts": (1, 2, 4, 8),
    "target_nodes": 86_000,
    "batch_size": 1024,
    "clients": 4,
    "rounds": 16,
}


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _check_rows(rows, *, smoke):
    failures = []
    cpus = rows[0]["available_cpus"] if rows else _available_cpus()
    drills = 0
    for row in rows:
        label = f"{row['mode']}/{row['workers']}w"
        if not row["bit_identical"]:
            failures.append(f"{label}: client responses not bit-identical")
        if not row["response_bytes_identical"]:
            failures.append(f"{label}: raw response bytes differ from single-process")
        if row["errors"]:
            failures.append(f"{label}: {row['errors']} client errors")
        if row["mode"] != "cluster":
            continue
        extra = row.get("max_extra_worker_private_kb")
        if extra is not None and extra > 512:
            failures.append(
                f"{label}: extra workers hold {extra} KB private .dpsb pages "
                "(expected ~0, floor 512)"
            )
        if "crash_drill_ok" in row:
            drills += 1
            if not row["crash_drill_ok"]:
                failures.append(
                    f"{label}: crash drill failed "
                    f"(respawns={row['crash_drill_respawns']}, "
                    f"errors={row['crash_drill_errors']})"
                )
        floor_workers, floor, min_cpus = (
            (2, SMOKE_SPEEDUP_FLOOR, 2) if smoke else (4, FULL_SPEEDUP_FLOOR, 4)
        )
        if row["workers"] == floor_workers and cpus >= min_cpus:
            if row["speedup_vs_single"] < floor:
                failures.append(
                    f"{label}: only {row['speedup_vs_single']:.2f}x over "
                    f"single-process (floor {floor}x at {cpus} CPUs)"
                )
    if not drills:
        failures.append("no crash drill ran (need a worker count >= 2)")
    return failures


def test_e27_serving_scale(benchmark, experiment_report):
    rows = benchmark.pedantic(
        lambda: experiments.run_serving_scale(**SMOKE),
        rounds=1,
        iterations=1,
    )
    experiment_report.record("E27", TITLE, rows)
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
        help="CI smoke: 1-2 workers, smaller release (full mode sweeps 1/2/4/8)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_serving_scale.json",
        help="where to write the JSON rows (default: BENCH_serving_scale.json)",
    )
    args = parser.parse_args()

    params = SMOKE if args.smoke else FULL
    rows = experiments.run_serving_scale(**params)
    failures = _check_rows(rows, smoke=args.smoke)

    payload = {
        "experiment": "E27",
        "title": TITLE,
        "mode": "smoke" if args.smoke else "full",
        "full_speedup_floor": FULL_SPEEDUP_FLOOR,
        "smoke_speedup_floor": SMOKE_SPEEDUP_FLOOR,
        "available_cpus": rows[0]["available_cpus"] if rows else _available_cpus(),
        "rows": rows,
        "ok": not failures,
    }
    pathlib.Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    for row in rows:
        drill = (
            f" crash_drill_ok={row['crash_drill_ok']}"
            f" respawns={row['crash_drill_respawns']}"
            if "crash_drill_ok" in row
            else ""
        )
        extra = row.get("max_extra_worker_private_kb")
        print(
            f"{row['mode']}/{row['workers']}w: "
            f"{row['patterns_per_second']:.0f} patterns/s "
            f"({row['speedup_vs_single']:.2f}x vs single, "
            f"{row['available_cpus']} cpus); "
            f"bit_identical={row['bit_identical']} "
            f"bytes_identical={row['response_bytes_identical']} "
            f"extra_worker_private_kb={extra}{drill}"
        )
    if failures:
        print("\n".join(f"FAIL: {line}" for line in failures), file=sys.stderr)
        return 1
    print(f"ok — rows written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
