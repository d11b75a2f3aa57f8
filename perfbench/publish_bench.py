"""The ``publish`` workload: a curator's corpus becomes a served-ready
``.dpsb`` release, which ``dpsc serve`` then serves to the ``lookup`` and
``scan`` phases.

Set-up is the curator's path, each time in a fresh child process
(``publish_bench.py --build``), so the peak RSS it reports is that build's
own:

    StringDatabase, ReleaseStore, BudgetLedger
    -> build_release(kind="heavy-path", ledger=..., store=...,
                     release_format="binary")
    -> ReleaseStore.load_compiled(mmap=True) -> first batch_query

Then ``dpsc serve`` (its defaults, one process) serves the first build's
store and the phases run as in ``single``, with requests drawn from the
corpus.  Every answer is compared with what the build's in-memory release
answered.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import OUT, SRC, WORK, Failures, Tracer, log, median
from repro import ConstructionParams, PrivacyBudget
from repro.serving import BudgetLedger, ReleaseStore, build_release
from serving_bench import Server, serve_and_measure
from synth import CorpusSizes, ServingInputs, genome_database, genome_documents, release_patterns

BUILDS = 3
#: a traced run builds untraced and traced in turn, this many of each
TRACED_BUILDS = 2
DATABASE_ID = "genome"
#: the ledger's cap leaves room for exactly one release of the corpus
CAP_EPSILON = 60.0
FIRST_BATCH = 1024
CHILD_TIMEOUT = 150.0


# ----------------------------------------------------------------------
# Checks (shared with the self-test)
# ----------------------------------------------------------------------
def bound_violations(noisy: np.ndarray, exact: np.ndarray, bound: float) -> tuple[int, float]:
    """Stored counts farther than ``bound`` from the exact count, and the
    largest error as a share of the bound."""
    errors = np.abs(np.asarray(noisy, dtype=np.float64) - np.asarray(exact, dtype=np.float64))
    return int(np.count_nonzero(errors > bound)), float(errors.max() / bound) if errors.size else 0.0


def first_batch_patterns(documents: list[str], seed: int) -> list[str]:
    """Substrings of the corpus, lengths 2..8: what an analyst would ask."""
    rng = np.random.default_rng([seed, 5])
    picks = rng.integers(0, len(documents), size=FIRST_BATCH)
    lengths = rng.integers(2, 9, size=FIRST_BATCH)
    patterns = []
    for doc, length in zip(picks, lengths):
        text = documents[int(doc)]
        start = int(rng.integers(0, len(text) - int(length) + 1))
        patterns.append(text[start : start + int(length)])
    return patterns


# ----------------------------------------------------------------------
# One build, in a fresh process
# ----------------------------------------------------------------------
def _timed_methods(obj, names, tracer: Tracer, totals: dict[str, float], prefix: str) -> None:
    """Time calls into ``obj`` from outside by shadowing bound methods on
    the instance (traced builds only)."""
    for name in names:
        original = getattr(obj, name)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            started = time.perf_counter()
            try:
                return _original(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                totals[_name] = totals.get(_name, 0.0) + ended - started
                tracer.add(f"{prefix}.{_name}", started, ended)

        setattr(obj, name, wrapper)


def build_child(config: dict) -> dict:
    seed, traced = config["seed"], config["traced"]
    sizes = CorpusSizes(**config["sizes"])
    workdir = Path(config["workdir"])
    tracer = Tracer(traced)
    documents = genome_documents(seed, sizes)
    probes = first_batch_patterns(documents, seed)
    params = ConstructionParams.pure(sizes.epsilon, beta=0.1, threshold=sizes.threshold)
    totals: dict[str, float] = {}

    started = time.perf_counter()
    with tracer.span("release"):
        with tracer.span("open"):
            database = genome_database(documents, sizes)
            store = ReleaseStore(workdir / "store")
            ledger = BudgetLedger(PrivacyBudget(CAP_EPSILON, 0.0), workdir / "ledger.json")
            if traced:
                _timed_methods(ledger, ("can_afford", "charge", "record_release"), tracer, totals, "ledger")
                _timed_methods(store, ("save",), tracer, totals, "store")
        opened = time.perf_counter()
        with tracer.span("build_release"):
            structure = build_release(
                database,
                params,
                ledger=ledger,
                database_id=DATABASE_ID,
                rng=np.random.default_rng([seed, 4]),
                kind="heavy-path",
                store=store,
                release_format="binary",
            )
        built = time.perf_counter()
        with tracer.span("store.load_compiled"):
            compiled = store.load_compiled(DATABASE_ID, mmap=True)
        loaded = time.perf_counter()
        with tracer.span("first_batch"):
            first = compiled.batch_query(probes)
    ended = time.perf_counter()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks, untimed
    checks: list[tuple[bool, str]] = []
    stored = compiled.num_stored_patterns
    checks.append((stored > 0 and structure.num_stored_patterns == stored, f"release stores {stored} patterns"))
    digest = structure.content_digest()
    record = store.list_releases()[-1]
    checks.append((record.digest == digest == compiled.content_digest(), "served digest differs from the built one"))
    expected_first = structure.query_many(probes)
    checks.append((first.tolist() == expected_first.tolist(), "first batch differs from the in-memory release"))
    worst = None
    if config["check"]:
        patterns, noisy = zip(*compiled.items())
        noisy = np.array(noisy)
        if config.get("corrupt"):  # self-test: the checker must flag this count
            noisy[0] += 2.0 * compiled.metadata.error_bound + 1.0
        exact = database.count_many(list(patterns), structure.metadata.delta_cap)
        violations, worst = bound_violations(noisy, exact, compiled.metadata.error_bound)
        checks.append((violations == 0, f"{violations} stored counts outside error_bound"))
        # what the served release must answer, from the in-memory release
        asked = release_patterns(documents, seed, sizes)
        np.savez(
            workdir / "expected.npz",
            universe=structure.query_many(asked.universe),
            batches=np.stack([structure.query_many(batch) for batch in asked.batches]),
        )

    result = {
        "setup_s": ended - started,
        "peak_rss_mb": peak,
        "digest": digest,
        "stored": stored,
        "error_over_bound": worst,
        "checks": checks,
        "store": str(store.root),
    }
    if traced:
        profile = structure.profile
        stages = profile.stages()
        counts = list(profile.root.find("count")) + list(profile.root.find("count_many"))
        report = structure.report
        accounted = (
            (opened - started)
            + profile.total_seconds
            + sum(totals.get(k, 0.0) for k in ("can_afford", "charge", "record_release", "save"))
            + (ended - built)
        )
        layers = {f"build.{stage}_s": (stages.get(stage, 0.0), "s") for stage in
                  ("candidates", "trie_build", "prune", "materialize", "annotate", "decomposition", "noise")}
        layers.update({
            "build.count_many_calls": (len(counts), "count"),
            "build.count_many_patterns": (sum(int(s.attrs.get("patterns", 0)) for s in counts), "count"),
            "build.candidate_nodes": (report["trie_nodes_before_pruning"], "count"),
            "build.keep_ratio": (report["trie_nodes_after_pruning"] / report["trie_nodes_before_pruning"], "ratio"),
            "build.cpu_s": (profile.root.cpu_seconds, "s"),
            "setup.open_ms": ((opened - started) * 1e3, "ms"),
            "setup.store.save_ms": (totals.get("save", 0.0) * 1e3, "ms"),
            "setup.warmup_ms": ((ended - loaded) * 1e3, "ms"),
            "store.bytes": (os.path.getsize(record.path), "bytes"),
            "store.load_ms": ((loaded - built) * 1e3, "ms"),
            "ledger.ms": (sum(totals.get(k, 0.0) for k in ("can_afford", "charge", "record_release")) * 1e3, "ms"),
            "release.accounted_share": (accounted / (ended - started), "ratio"),
        })
        result["layers"] = layers
        # the build's stage spans, nested under this process's build_release span
        tracer.add_events(profile.chrome_trace()["traceEvents"], (profile.root.start_wall - tracer.origin) * 1e6)
        result["events"] = tracer.events
        result["origin"] = tracer.origin
    return result


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def spawn(config: dict) -> dict:
    """One build in a fresh process."""
    env = Server.environment()
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(Path(__file__).parent)])
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--build", json.dumps(config)],
        capture_output=True,
        text=True,
        env=env,
        timeout=CHILD_TIMEOUT,
    )
    for line in completed.stdout.strip().splitlines()[:-1]:
        log(line)
    if completed.returncode != 0:
        raise RuntimeError(f"publish build exited with {completed.returncode}:\n{completed.stderr[-3000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def served_inputs(store: Path, expected: Path, seed: int, sizes: CorpusSizes, corrupt: bool) -> ServingInputs:
    """The phases' requests and the answers the in-memory release gave."""
    asked = release_patterns(genome_documents(seed, sizes), seed, sizes)
    with np.load(expected) as saved:
        universe_expected = saved["universe"].tolist()
        batches_expected = [row.tolist() for row in saved["batches"]]
    if corrupt:  # self-test: the checker must flag a wrong expected answer
        universe_expected[int(asked.stream[0])] += 1.0
    # a private copy for the replay: an mmap of the served file would share
    # its pages and halve the server's pss_mb
    compiled = ReleaseStore(store).load_compiled(DATABASE_ID, mmap=False)
    return ServingInputs(
        compiled=compiled,
        universe=asked.universe,
        universe_expected=universe_expected,
        universe_hit=np.array([pattern in compiled for pattern in asked.universe]),
        stream=asked.stream,
        batches=asked.batches,
        batches_expected=batches_expected,
    )


def run(seed: int, seconds: float, trace: bool, sizes: CorpusSizes = CorpusSizes(), corrupt: str = "") -> tuple[dict, Failures]:
    """Every metric the workload measured, by name, and the failures.

    ``corrupt`` is for the self-test: ``"count"`` pushes a stored count out
    of its error bound, ``"answer"`` falsifies an expected answer."""
    failures, tracer = Failures(), Tracer(trace)
    workdir = WORK / f"publish-{seed}-{os.getpid()}"
    builds: dict[bool, list[dict]] = {False: [], True: []}
    server = None
    try:
        # a traced run builds untraced and traced in turn, for the overhead
        for build in range(2 * TRACED_BUILDS if trace else BUILDS):
            traced = trace and build % 2 == 1
            config = {
                "seed": seed,
                "traced": traced,
                "sizes": sizes.__dict__,
                "workdir": str(workdir / f"build{build}"),
                "check": build == 0,
                "corrupt": corrupt == "count" and build == 0,
            }
            with tracer.span("publish.build", build=build, traced=traced):
                result = spawn(config)
            for ok, reason in result["checks"]:
                failures.record(ok, f"build {build}: {reason}")
            worst = "" if result["error_over_bound"] is None else f" max_error/bound={result['error_over_bound']:.3f}"
            log(
                f"build {build}{' (traced)' if traced else ''}: setup_s={result['setup_s']:.3f} "
                f"peak_rss_mb={result['peak_rss_mb']:.1f} stored={result['stored']}{worst} "
                f"digest={result['digest'][:16]}"
            )
            if traced:
                tracer.add_events(result["events"], (result["origin"] - tracer.origin) * 1e6)
            builds[traced].append(result)
            if build > 0:
                shutil.rmtree(workdir / f"build{build}", ignore_errors=True)
        digests = {r["digest"] for r in builds[False] + builds[True]}
        failures.record(len(digests) == 1, f"one seed gave {len(digests)} different digests")

        store = Path(builds[False][0]["store"])
        inputs = served_inputs(store, workdir / "build0" / "expected.npz", seed, sizes, corrupt == "answer")
        started = time.perf_counter()
        server = Server(workdir, store, 1, 0)
        server.start()
        server.wait_ready()
        start_s = time.perf_counter() - started
        metrics = serve_and_measure(server, inputs, seconds, seed, trace, False, failures, tracer)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    def setup_metrics(runs: list[dict]) -> dict[str, tuple[float, str, int]]:
        return {
            "setup_s": (median([r["setup_s"] for r in runs]), "s", len(runs)),
            # the largest process of the workload is the build
            "peak_rss_mb": (max(median([r["peak_rss_mb"] for r in runs]), metrics["peak_rss_mb"][0]), "MB", len(runs) + 1),
        }

    untraced = setup_metrics(builds[False])
    if trace:
        for name, (value, unit, samples) in setup_metrics(builds[True]).items():
            metrics[f"trace_overhead.{name}"] = (value - untraced[name][0], unit, samples)
        for name, (_, unit) in builds[True][0]["layers"].items():
            metrics[name] = (median([r["layers"][name][0] for r in builds[True]]), unit, len(builds[True]))
        metrics["setup.server.start_s"] = (start_s, "s", 1)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"publish-seed{seed}-trace.json")
    metrics.update(untraced)
    return metrics, failures


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--build":
        sys.exit("usage: publish_bench.py --build CONFIG_JSON (started by run.py)")
    print(json.dumps(build_child(json.loads(sys.argv[2]))))
