"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload single|tier|publish --seed N \
        --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` is a separate run that measures the per-layer
metrics (see perfbench/README.md).  Every metric measured is printed with
its unit and sample count; the last line of standard output is the JSON
result with the metrics ``BENCHMARK.json`` registers.  The exit code is 1
when any answer or release check failed, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("single", "tier", "publish")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in manifest["per_layer" if args.trace else "end_to_end"]]
    sys.path.insert(0, str(SRC))
    # a SIGTERM unwinds through the workloads' finally blocks, which stop
    # every process they started before the benchmark exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import common

    env = common.environment()
    env["pinned_cpu"] = common.pin_to_one_cpu()
    env["probe_before_s"] = common.host_probe()
    common.log("environment: " + json.dumps(env))
    steal, total = common.cpu_ticks()
    trace = bool(args.trace)
    if args.workload == "publish":
        import publish_bench

        metrics, failures = publish_bench.run(args.seed, args.seconds, trace)
    else:
        import serving_bench

        metrics, failures = serving_bench.run(args.workload, args.seed, args.seconds, trace)
    steal_after, total_after = common.cpu_ticks()
    common.log(
        f"host: probe before {env['probe_before_s']:.4f}s after {common.host_probe():.4f}s; "
        f"cpu steal {(steal_after - steal) / max(1, total_after - total):.3f} of the run's cpu ticks"
    )
    report = common.Report(metrics)
    common.log(f"{args.workload} seed={args.seed} trace={args.trace}:\n{report.table()}")
    if trace:
        common.OUT.mkdir(parents=True, exist_ok=True)
        (common.OUT / f"{args.workload}-seed{args.seed}-layers.txt").write_text(report.table() + "\n")
    missing = [name for name in names if name not in metrics]
    if missing:
        failures.record(False, f"registered metrics not measured: {', '.join(missing)}")
    for reason in failures.reasons:
        common.log(f"FAILED: {reason}")
    if missing:
        return 1
    correct = failures.failed == 0
    print(report.result_line(names, attempted=failures.attempted, failed=failures.failed, correct=correct), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
