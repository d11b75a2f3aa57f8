"""E28 — Continual release: O(log T) spend, stable replay, hot reload.

The acceptance contract of the continual-release pipeline
(:class:`repro.serving.EpochScheduler` over a
:class:`repro.api.CorpusStream`): releasing every epoch of a T-epoch
stream must charge the ledger exactly the dyadic-tree bound
``bit_length(t) * epoch_epsilon`` after each epoch ``t`` — strictly below
naive sequential composition from epoch 3 on — with one audited
``charge_epoch`` ledger entry per epoch; replaying the same stream with
the same seed into a fresh store must reproduce every release digest
exactly; and hot-reloading a live multi-worker cluster on every publish
must cost the clients nothing: zero visible failures, with the tier
serving the final epoch's version when the stream drains.

Also runnable as a script (the CI ``continual-smoke`` job does)::

    python benchmarks/bench_continual.py --smoke --output smoke.json

Script mode persists the rows as JSON (the repo-root
``BENCH_continual.json`` records the trajectory) and exits non-zero when
any gate fails; ``--smoke`` runs a 4-epoch stream against a 2-worker
cluster (the full run is the 8-epoch stream of the E28 experiment).
"""

from repro.analysis import experiments

TITLE = "Continual release: tree-schedule spend, digest-stable replay, hot reload"

SMOKE = {
    "epochs": 4,
    "docs_per_epoch": 8,
    "workers": 2,
    "clients": 2,
}
FULL = {
    "epochs": 8,
    "docs_per_epoch": 12,
    "workers": 2,
    "clients": 3,
}


def _check_rows(rows, *, smoke):
    failures = []
    epoch_rows = [row for row in rows if "epoch" in row]
    drill_rows = [row for row in rows if row.get("mode") == "reload-drill"]
    expected = (SMOKE if smoke else FULL)["epochs"]
    if len(epoch_rows) != expected:
        failures.append(f"released {len(epoch_rows)} epochs, expected {expected}")
    for row in epoch_rows:
        label = f"epoch {row['epoch']}"
        if not row["bound_ok"]:
            failures.append(
                f"{label}: spent eps={row['spent_epsilon']} != tree bound "
                f"{row['tree_bound_epsilon']}"
            )
        if not row["below_naive"]:
            failures.append(
                f"{label}: spend {row['spent_epsilon']} not below naive "
                f"{row['naive_epsilon']}"
            )
        if not row["digest_stable"]:
            failures.append(f"{label}: replay digest differs ({row['digest12']}...)")
        if not row["ledger_audited"]:
            failures.append(f"{label}: no charge_epoch entry in the ledger")
    if not drill_rows:
        failures.append("no reload drill ran")
    for row in drill_rows:
        if not row["zero_failures"]:
            failures.append(
                f"reload drill: {row['client_errors']} client-visible failures "
                f"across {row['reloads']} reloads"
            )
        if not row["serving_latest"]:
            failures.append(
                f"reload drill: cluster serves v{row['final_version_serving']}, "
                f"stream head is v{row['final_version_expected']}"
            )
        if row["reloads"] < expected - 1:
            failures.append(
                f"reload drill: only {row['reloads']} reloads for "
                f"{expected} epochs (expected {expected - 1})"
            )
    return failures


def test_e28_continual_release(benchmark, experiment_report):
    rows = benchmark.pedantic(
        lambda: experiments.run_continual_release(**SMOKE),
        rounds=1,
        iterations=1,
    )
    experiment_report.record("E28", TITLE, rows)
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
        help="CI smoke: 4-epoch stream, 2 workers (full mode runs 8 epochs)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_continual.json",
        help="where to write the JSON rows (default: BENCH_continual.json)",
    )
    args = parser.parse_args()

    params = SMOKE if args.smoke else FULL
    rows = experiments.run_continual_release(**params)
    failures = _check_rows(rows, smoke=args.smoke)

    payload = {
        "experiment": "E28",
        "title": TITLE,
        "mode": "smoke" if args.smoke else "full",
        "rows": rows,
        "ok": not failures,
    }
    pathlib.Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    for row in rows:
        if "epoch" in row:
            print(
                f"epoch {row['epoch']}: v{row['version']} "
                f"marginal eps={row['marginal_epsilon']:g} "
                f"spent eps={row['spent_epsilon']:g} "
                f"(tree bound {row['tree_bound_epsilon']:g}, "
                f"naive {row['naive_epsilon']:g}) "
                f"digest_stable={row['digest_stable']} "
                f"reloaded={row['reloaded']}"
            )
        else:
            print(
                f"reload drill: {row['reloads']} reloads "
                f"({', '.join(f'{ms:.0f}' for ms in row['reload_ms'])} ms), "
                f"{row['queries_served']} queries, "
                f"{row['client_errors']} client errors, "
                f"serving v{row['final_version_serving']} "
                f"(head v{row['final_version_expected']})"
            )
    if failures:
        print("\n".join(f"FAIL: {line}" for line in failures), file=sys.stderr)
        return 1
    print(f"ok — rows written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
