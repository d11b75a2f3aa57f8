"""Self-test of the benchmark's checkers at a tiny size (about two minutes).

    python3 perfbench/selftest.py

Every workload must pass on tiny inputs, untraced and traced, and report
every metric ``BENCHMARK.json`` registers for that mode; the checkers must
report a failure for a corrupted expected answer (all workloads) and for a
stored count outside its advertised error bound (publish).  Exits non-zero
when any expectation does not hold.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import publish_bench  # noqa: E402
import serving_bench  # noqa: E402
from synth import CorpusSizes, ServingSizes  # noqa: E402

TINY_SERVING = ServingSizes(alphabet=5, universe=500, stream=2000, batch=64, batches=4)
TINY_CORPUS = CorpusSizes(documents=300, length=10, epsilon=20.0, threshold=30.0, universe=500, stream=2000, batch=64, batches=4)
SEED = 7


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    registered = {trace: [m["name"] for m in manifest["per_layer" if trace else "end_to_end"]] for trace in (False, True)}
    problems = []

    def expect(condition: bool, what: str) -> None:
        print(("ok      " if condition else "FAILED  ") + what, flush=True)
        if not condition:
            problems.append(what)

    violations, worst = publish_bench.bound_violations(np.array([1.0, 9.0]), np.array([1.0, 6.0]), 2.0)
    expect((violations, worst) == (1, 1.5), "bound_violations counts a count 3 away from a bound of 2")

    def workload(name: str, trace: bool, corrupt=""):
        if name == "publish":
            return publish_bench.run(SEED, 1.0, trace, TINY_CORPUS, corrupt=corrupt)
        return serving_bench.run(name, SEED, 1.0, trace, TINY_SERVING, corrupt=bool(corrupt))

    for name in ("single", "tier", "publish"):
        for trace in (False, True):
            metrics, failures = workload(name, trace)
            expect(failures.attempted > 0 and failures.failed == 0, f"{name} trace={trace} passes")
            missing = [m for m in registered[trace] if m not in metrics]
            expect(not missing, f"{name} trace={trace} reports every registered metric {missing or ''}")
        _, failures = workload(name, False, corrupt="answer")
        expect(failures.failed > 0, f"{name} reports a corrupted expected answer ({failures.failed} failed)")
    _, failures = workload("publish", False, corrupt="count")
    expect(failures.failed > 0, f"publish reports an out-of-bound stored count ({failures.failed} failed)")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
