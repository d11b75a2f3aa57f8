"""Command-line interface.

``dpsc`` exposes the library's experiments, a tiny demo, and the query
serving layer from the shell::

    dpsc list                      # list every experiment (E1-E26)
    dpsc run E1                    # regenerate one experiment's table
    dpsc run all --save results    # regenerate every table (laptop-sized)
    dpsc quickstart                # run the quickstart demo
    dpsc mine --workload genome    # private mining demo (--kind qgram-t3,
                                   #   --profile for per-stage build timings)
    dpsc releases --store ./rel    # inspect (or --build --kind ...) a store
    dpsc releases migrate          # convert JSON releases to binary in place
    dpsc epochs run --store ./rel  # continual release: stream -> epochs -> store
    dpsc epochs status --store ./rel   # schedule position and budget spend
    dpsc serve --store ./rel       # serve compiled releases over HTTP (mmap)
    dpsc query GATTACA ACGT        # query a running server
    dpsc bench-load --threads 1,8  # hammer a service, assert bit-identical

The experiments are the same ones the benchmark harness runs; the registry
below maps each id to the paper's figures and theorems.  Structure builds
go through the unified :mod:`repro.api` layer: ``--kind`` selects any
registered structure kind (docs/API.md) and the serving commands are
documented in docs/SERVING.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

import numpy as np

from repro.analysis import experiments, reporting
from repro.api import CorpusStream, Dataset, default_registry
from repro.core.mining import mine_frequent_substrings
from repro.core.params import ConstructionParams
from repro.dp.composition import PrivacyBudget
from repro.exceptions import ReproError
from repro.serving import (
    BudgetLedger,
    EpochScheduler,
    QueryService,
    ReleaseStore,
    ServingClient,
    build_release,
    serve_forever,
)
from repro.workloads.genome import genome_with_motifs
from repro.workloads.transit import transit_trajectories

__all__ = ["main", "EXPERIMENT_REGISTRY"]

#: the cluster tier has no micro-batcher, so --no-batch would do nothing there.
_SINGLE_ONLY = "applies to the single-process server only"


def _registry() -> dict[str, tuple[str, Callable[[], list[dict]]]]:
    """Experiment id -> (title, runner with benchmark-sized defaults)."""
    return {
        "E1": ("Example 1 / Figure 1: exact counts", experiments.run_example_counts),
        "E2": (
            "Examples 2-4 / Figure 2: candidate sets and heavy paths",
            experiments.run_candidate_figure,
        ),
        "E3": (
            "Figure 3: difference sequence and prefix sums",
            experiments.run_prefix_sum_figure,
        ),
        "E4": (
            "Theorem 1: pure-DP error scaling in ell",
            lambda: experiments.run_error_scaling([8, 12, 16], trials=2),
        ),
        "E5": (
            "Theorem 2: document vs substring counting",
            lambda: experiments.run_document_vs_substring([8, 16, 32]),
        ),
        "E6": (
            "Theorem 3/4: q-gram error",
            lambda: experiments.run_qgram_error([2, 4]),
        ),
        "E7": (
            "Theorem 4: q-gram construction time",
            lambda: experiments.run_qgram_timing([(40, 20), (80, 20), (160, 20)]),
        ),
        "E8": (
            "Baseline comparison (simple trie vs heavy paths)",
            lambda: experiments.run_baseline_comparison([8, 16, 24]),
        ),
        "E9": (
            "Private frequent-substring mining",
            lambda: experiments.run_mining_experiment(n=200, epsilons=(20.0, 50.0)),
        ),
        "E10": (
            "Theorem 5 packing lower bound",
            lambda: experiments.run_packing_experiment([16, 24, 32]),
        ),
        "E11": (
            "Theorem 6 substring-count lower bound",
            lambda: experiments.run_substring_lb_experiment([8, 16, 32]),
        ),
        "E12": (
            "Theorem 7 marginals reduction",
            lambda: experiments.run_marginals_experiment([4, 8]),
        ),
        "E13": (
            "Theorem 8 tree counting",
            lambda: experiments.run_tree_counting_experiment([32, 128, 512]),
        ),
        "E14": (
            "Theorem 9 / colored tree counting",
            lambda: experiments.run_colored_counting_experiment([32, 128]),
        ),
        "E15": (
            "Query-time linearity",
            lambda: experiments.run_query_time_experiment([1, 2, 4, 8, 16]),
        ),
        "E16": (
            "Binary-tree prefix sums vs naive noise",
            lambda: experiments.run_prefix_sum_ablation([8, 32, 128]),
        ),
        "E17": (
            "Heavy-path ablation",
            lambda: experiments.run_heavy_path_ablation([8, 16]),
        ),
        "E18": (
            "Hierarchical counting strategies (heavy paths vs range counting vs leaf sums)",
            lambda: experiments.run_tree_strategy_comparison([32, 128, 512]),
        ),
        "E19": (
            "Candidate-growth ablation (doubling vs one-letter extension)",
            lambda: experiments.run_candidate_growth_ablation([8, 16, 32]),
        ),
        "E20": (
            "Batched queries vs per-pattern query loops (every kind; batches and a mixed stream)",
            lambda: experiments.run_batch_query_benchmark(),
        ),
        "E21": (
            "Counting-engine equivalence and speedup (batched Aho-Corasick vs per-pattern)",
            lambda: experiments.run_counting_engine_benchmark(),
        ),
        "E23": (
            "Concurrent serving: bit-identical replays and throughput vs threads",
            lambda: experiments.run_concurrent_serving(),
        ),
        "E24": (
            "Construction pipeline: array build vs linked-object reference (bit-identical)",
            lambda: experiments.run_construction_benchmark(),
        ),
        "E26": (
            "Release formats: cold-start latency and RSS, JSON vs binary vs binary+mmap",
            lambda: experiments.run_release_format_benchmark(),
        ),
        "E27": (
            "Sharded serving tier: worker-count throughput scaling, bit identity, crash drill",
            lambda: experiments.run_serving_scale(),
        ),
        "E28": (
            "Continual release: O(log T) tree-schedule spend, digest-stable replay, hot reload",
            lambda: experiments.run_continual_release(),
        ),
        "E29": (
            "Chaos drill: seeded fault injection + worker kills, zero client errors, replayable",
            lambda: experiments.run_chaos_drill(),
        ),
    }


EXPERIMENT_REGISTRY = _registry()


def _cmd_list(_: argparse.Namespace) -> int:
    for experiment_id, (title, _runner) in EXPERIMENT_REGISTRY.items():
        print(f"{experiment_id:4s} {title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    requested = args.experiment.upper()
    if requested == "ALL":
        experiment_ids = list(EXPERIMENT_REGISTRY)
    elif requested in EXPERIMENT_REGISTRY:
        experiment_ids = [requested]
    else:
        print(f"unknown experiment {requested!r}; try 'dpsc list'", file=sys.stderr)
        return 2
    for experiment_id in experiment_ids:
        title, runner = EXPERIMENT_REGISTRY[experiment_id]
        rows = runner()
        reporting.print_experiment(experiment_id, title, rows)
        if args.save:
            path = reporting.save_results(experiment_id, rows, directory=args.save)
            print(f"saved to {path}")
    return 0


def _cmd_quickstart(_: argparse.Namespace) -> int:
    database = experiments.example_database()
    print(f"database: {list(database)}")
    structure = (
        Dataset.from_database(database)
        .with_budget(epsilon=2.0)
        .with_beta(0.1)
        .build("heavy-path", rng=np.random.default_rng(0))
    )
    print(f"construction: {structure.metadata.construction}")
    print(f"error bound alpha = {structure.error_bound:.1f}")
    for pattern in ("ab", "be", "aaa"):
        print(
            f"  query({pattern!r}) = {structure.query(pattern):.1f}   "
            f"(exact {database.substring_count(pattern)})"
        )
    print(
        "Note: on a six-document toy database the calibrated noise dwarfs the "
        "counts, so most queries return 0 — exactly the behaviour the error "
        "bound promises.  See examples/ for realistic workloads."
    )
    return 0


def _cli_params(args: argparse.Namespace) -> ConstructionParams:
    """Construction parameters from the shared mine/releases flags."""
    return ConstructionParams(budget=PrivacyBudget(args.epsilon, args.delta), beta=0.1)


def _kind_kwargs(args: argparse.Namespace) -> dict:
    """Builder keyword arguments the selected kind requires (e.g. ``q``)."""
    kind = default_registry().get(args.kind)
    return {"q": args.q} if "q" in kind.requires else {}


def _build_cli_structure(args: argparse.Namespace, database, rng):
    """One structure built from the shared --kind/--epsilon/... flags
    (the block every structure-building subcommand shares)."""
    return (
        Dataset.from_database(database)
        .with_params(_cli_params(args))
        .build(args.kind, rng=rng, **_kind_kwargs(args))
    )


def _cmd_mine(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.workload == "genome":
        database = genome_with_motifs(args.n, args.ell, rng)
    else:
        database = transit_trajectories(args.n, args.ell, rng)
    try:
        structure = _build_cli_structure(args, database, rng)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = mine_frequent_substrings(structure, structure.metadata.threshold)
    print(
        f"workload={args.workload} kind={args.kind} n={args.n} ell={args.ell} "
        f"eps={args.epsilon} alpha={structure.error_bound:.1f} "
        f"tau={result.threshold:.1f}"
    )
    for pattern, count in result.patterns[:20]:
        print(f"  {pattern:12s} noisy count {count:10.1f}")
    if not result.patterns:
        print("  (no pattern exceeded the private threshold)")
    if args.profile:
        _print_profile(structure)
    if args.trace_out:
        profile = getattr(structure, "profile", None)
        if profile is None:
            print(
                "error: no construction profile recorded (telemetry disabled?)",
                file=sys.stderr,
            )
            return 2
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(profile.chrome_trace(), handle)
        print(f"trace written to {args.trace_out} (open in Perfetto / chrome://tracing)")
    return 0


def _print_profile(structure) -> None:
    """The construction's span tree (``dpsc mine --profile``)."""
    profile = getattr(structure, "profile", None)
    if profile is None:
        print("profile: no construction profile recorded (telemetry disabled?)")
        return
    print(f"profile: total {profile.total_seconds:.3f}s")
    print(profile.render())


def _build_workload_database(workload: str, n: int, ell: int, seed: int):
    rng = np.random.default_rng(seed)
    if workload == "genome":
        return genome_with_motifs(n, ell, rng), rng
    return transit_trajectories(n, ell, rng), rng


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import faults

    # DPSC_FAULTS et al. arm a chaos schedule for this process (workers
    # additionally arm themselves from the inherited environment).
    if faults.arm_from_env():
        print("fault injection armed from DPSC_FAULTS", file=sys.stderr)
    if args.workers > 1 and args.no_batch:
        print(f"error: --no-batch {_SINGLE_ONLY}", file=sys.stderr)
        return 2
    store = ReleaseStore(args.store)
    if args.workers > 1:
        from repro.serving import Cluster

        cluster = Cluster(
            store,
            args.release or None,
            workers=args.workers,
            host=args.host,
            port=args.port,
            mmap=not args.no_mmap,
        )
        try:
            cluster.start()
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            print(
                "hint: populate the store first, e.g. "
                f"'dpsc releases --store {args.store} --build genome'",
                file=sys.stderr,
            )
            return 2
        members = ", ".join(
            f"{worker.worker_id}:{worker.port}" for worker in cluster.workers()
        )
        print(
            f"dpsc cluster serving {sorted(cluster.table.versions)} "
            f"with {args.workers} workers ({members})"
        )
        print(f"router listening on http://{args.host}:{cluster.port}")
        cluster.serve_forever()
        return 0
    try:
        service = QueryService.from_store(
            store,
            args.release or None,
            micro_batch=not args.no_batch,
            mmap=not args.no_mmap,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        print(
            "hint: populate the store first, e.g. "
            f"'dpsc releases --store {args.store} --build genome'",
            file=sys.stderr,
        )
        return 2
    serve_forever(service, args.host, args.port)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if not args.patterns and args.mine is None:
        print("error: provide at least one pattern or --mine THRESHOLD", file=sys.stderr)
        return 2
    try:
        with ServingClient(args.url, timeout=args.timeout) as client:
            if args.mine is not None:
                patterns = client.mine(args.mine, release=args.release)
                for pattern, count in patterns[:args.limit]:
                    print(f"{pattern:16s} {count:12.1f}")
                if not patterns:
                    print("(no pattern exceeded the threshold)")
            elif len(args.patterns) == 1:
                print(f"{client.query(args.patterns[0], release=args.release):.1f}")
            else:
                counts = client.batch(args.patterns, release=args.release)
                for pattern, count in zip(args.patterns, counts):
                    print(f"{pattern:16s} {count:12.1f}")
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Inspect and arm the deterministic failpoint framework
    (docs/RESILIENCE.md)."""
    from repro import faults
    import repro.serving  # noqa: F401 - importing registers every failpoint site
    import repro.serving.cluster  # noqa: F401 - router/worker sites
    import repro.serving.schedule  # noqa: F401 - scheduler site

    if args.action == "list":
        sites = sorted(faults.list_failpoints(), key=lambda site: site.name)
        if args.json:
            print(
                json.dumps(
                    [
                        {
                            "site": site.name,
                            "description": site.description,
                            "armed": site.armed_spec.to_dict()
                            if site.armed_spec is not None
                            else None,
                        }
                        for site in sites
                    ],
                    indent=2,
                )
            )
        else:
            for site in sites:
                print(f"{site.name:24s} {site.description}")
        return 0
    # arm: validate a spec file and print the environment that arms it
    if not args.spec:
        print("error: 'faults arm' needs a SPEC.json file", file=sys.stderr)
        return 2
    try:
        with open(args.spec, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"error: cannot read {args.spec}: {error}", file=sys.stderr)
        return 2
    if isinstance(raw, dict):
        raw = [raw]
    try:
        specs = [faults.FaultSpec.from_dict(entry) for entry in raw]
        env = faults.env_for(
            specs, seed=args.seed, scope=args.scope, log_path=args.log or None
        )
    except (TypeError, ValueError) as error:
        print(f"error: invalid fault spec: {error}", file=sys.stderr)
        return 2
    registered = {site.name for site in faults.list_failpoints()}
    for spec in specs:
        if spec.site not in registered:
            print(
                f"warning: no registered failpoint named {spec.site!r} "
                f"(known: {sorted(registered)})",
                file=sys.stderr,
            )
    for key, value in env.items():
        print(f"export {key}={json.dumps(value)}")
    if args.preview:
        scope = args.scope or "main"
        for spec in specs:
            fired = faults.replay_decisions(
                spec, seed=args.seed, scope=scope, count=args.preview
            )
            print(
                f"# {spec.site}: fires at hit indices {fired} "
                f"of the first {args.preview} (scope {scope!r}, seed {args.seed})"
            )
    return 0


def _cmd_bench_load(args: argparse.Namespace) -> int:
    """Hammer a QueryService with mixed concurrent traffic and assert every
    answer is bit-identical to a serial replay (the E23 harness)."""
    from repro.serving import (
        QueryService,
        ServingClient,
        execute_operation,
        generate_workload,
        run_load_test,
        run_load_test_processes,
    )

    try:
        thread_counts = [int(t) for t in args.threads.split(",") if t]
    except ValueError:
        thread_counts = []
    if not thread_counts or any(t < 1 for t in thread_counts):
        print(
            "error: --threads must be a comma list of positive integers, "
            f"got {args.threads!r}",
            file=sys.stderr,
        )
        return 2
    try:
        process_counts = [int(p) for p in args.processes.split(",") if p]
    except ValueError:
        process_counts = [0]
    if any(p < 1 for p in process_counts):
        print(
            "error: --processes must be a comma list of positive integers, "
            f"got {args.processes!r}",
            file=sys.stderr,
        )
        return 2
    if args.workers and not args.store:
        print("error: --workers needs --store (a cluster serves a store)", file=sys.stderr)
        return 2
    if args.workers and args.no_batch:
        print(f"error: --no-batch {_SINGLE_ONLY}", file=sys.stderr)
        return 2
    service = None
    cluster = None
    if args.url:
        target = ServingClient(args.url, timeout=args.timeout)
        verify_counters = False  # other clients may share the live server
    elif args.store and args.workers:
        from repro.serving import Cluster

        store = ReleaseStore(args.store)
        try:
            cluster = Cluster(
                store, workers=args.workers, mmap=not args.no_mmap
            ).start()
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        # exclusive loopback tier: the counter-delta checks stay exact
        target = ServingClient(cluster.url, timeout=args.timeout)
        verify_counters = True
        print(f"started a {args.workers}-worker cluster on {cluster.url}")
    elif args.store:
        store = ReleaseStore(args.store)
        try:
            service = QueryService.from_store(
                store, micro_batch=not args.no_batch, mmap=not args.no_mmap
            )
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        target = service
        verify_counters = True
    else:
        database, rng = _build_workload_database(
            args.workload, args.n, args.ell, args.seed
        )
        try:
            structure = _build_cli_structure(args, database, rng)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        service = QueryService(
            {args.workload: structure}, micro_batch=not args.no_batch
        )
        target = service
        verify_counters = True
    if process_counts and not isinstance(target, ServingClient):
        print(
            "error: --processes drives HTTP traffic; give it --url, or "
            "--store with --workers N",
            file=sys.stderr,
        )
        if service is not None:
            service.close()
        return 2
    try:
        workload = generate_workload(target, args.ops, seed=args.seed)
        expected = [execute_operation(target, operation) for operation in workload]
        print(
            f"{'lanes':>9s} {'ops':>7s} {'seconds':>9s} {'ops/s':>10s} "
            f"{'lookups/s':>10s} {'identical':>9s} {'counters':>8s}"
        )
        failures = 0
        rows = []

        def report(result, label):
            nonlocal failures
            ok = result.bit_identical and (
                result.counters_consistent or not verify_counters
            )
            failures += 0 if ok else 1
            rows.append(result.row())
            print(
                f"{label:>9s} {result.operations:7d} "
                f"{result.seconds:9.3f} {result.ops_per_second:10.0f} "
                f"{result.queries_per_second:10.0f} "
                f"{str(result.bit_identical):>9s} "
                f"{str(result.counters_consistent):>8s}"
            )
            for kind in sorted(result.percentiles):
                quantiles = result.percentiles[kind]
                rendered = "  ".join(
                    f"{name}={value * 1e3:.3f}ms"
                    for name, value in quantiles.items()
                )
                print(f"          {kind:8s} {rendered}")
            for line in result.errors[:5]:
                print(f"  error: {line}", file=sys.stderr)

        for threads in thread_counts:
            result = run_load_test(
                target,
                workload,
                threads=threads,
                expected=expected,
                verify_counters=verify_counters,
            )
            report(result, f"{threads}t")
        for processes in process_counts:
            result = run_load_test_processes(
                target.base_url,
                workload,
                processes=processes,
                expected=expected,
                verify_counters=verify_counters,
            )
            report(result, f"{processes}p")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump({"results": rows}, handle, indent=2)
            print(f"results written to {args.json}")
        if failures:
            print(f"error: {failures} replay(s) diverged", file=sys.stderr)
            return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if isinstance(target, ServingClient):
            target.close()
        if service is not None:
            service.close()
        if cluster is not None:
            cluster.stop()
    return 0


def _cmd_releases(args: argparse.Namespace) -> int:
    if args.url:
        try:
            with ServingClient(args.url) as client:
                infos = client.releases()
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        for info in infos:
            marker = "*" if info["default"] else " "
            print(
                f"{marker} {info['name']:16s} eps={info['epsilon']:<8g} "
                f"delta={info['delta']:<10g} patterns={info['num_patterns']:<8d} "
                f"{info['construction']}"
            )
        return 0

    store = ReleaseStore(args.store, format=args.format)
    if args.action == "migrate":
        try:
            migrated = store.migrate(args.name or None)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if migrated:
            for record in migrated:
                print(
                    f"migrated {record.name} v{record.version} -> "
                    f"{record.format} (digest {record.digest[:12]}... verified)"
                )
        else:
            print("(nothing to migrate: every release is already binary)")
    if args.build:
        database, rng = _build_workload_database(
            args.build, args.n, args.ell, args.seed
        )
        ledger = BudgetLedger(
            PrivacyBudget(args.cap_epsilon, args.cap_delta),
            path=store.root / "ledger.json",
        )
        name = args.name or args.build
        try:
            structure = build_release(
                database,
                _cli_params(args),
                ledger=ledger,
                database_id=name,
                label=f"build:{args.build}:{args.kind}",
                rng=rng,
                kind=args.kind,
                **_kind_kwargs(args),
            )
        except ReproError as error:
            print(f"refused: {error}", file=sys.stderr)
            return 2
        record = store.save(name, structure, format=args.format)
        ledger.record_release(
            name,
            version=record.version,
            digest=record.digest,
            format=record.format,
        )
        spent = ledger.spent(name)
        print(
            f"saved {record.name} v{record.version} [{record.format}] "
            f"({record.num_patterns} patterns, digest {record.digest[:12]}...)"
        )
        print(
            f"ledger[{name}]: spent eps={spent.epsilon:g} delta={spent.delta:g} "
            f"of cap eps={args.cap_epsilon:g} delta={args.cap_delta:g}"
        )
    records = store.list_releases()
    if not records:
        print(f"(store {store.root} is empty)")
    for record in records:
        marker = "*" if record.pinned else " "
        print(
            f"{marker} {record.name:16s} v{record.version:<4d} "
            f"[{record.format:6s}] eps={record.epsilon:<8g} "
            f"delta={record.delta:<10g} "
            f"patterns={record.num_patterns:<8d} {record.construction}"
        )
    return 0


def _epoch_stream(args: argparse.Namespace) -> CorpusStream:
    """A synthetic append-only stream: the workload's documents split into
    ``--epochs`` contiguous arrival batches."""
    database, _rng = _build_workload_database(args.workload, args.n, args.ell, args.seed)
    documents = list(database)
    epochs = max(1, args.epochs)
    if len(documents) < epochs:
        raise ReproError(
            f"--epochs {epochs} needs at least that many documents (--n {args.n})"
        )
    stream = CorpusStream(name=args.name or args.workload)
    base, extra = divmod(len(documents), epochs)
    start = 0
    for index in range(epochs):
        size = base + (1 if index < extra else 0)
        stream.append_epoch(documents[start : start + size])
        start += size
    return stream


def _open_epoch_ledger(store: ReleaseStore, args: argparse.Namespace) -> BudgetLedger:
    return BudgetLedger(
        PrivacyBudget(args.cap_epsilon, args.cap_delta),
        path=store.root / "ledger.json",
    )


def _cmd_epochs(args: argparse.Namespace) -> int:
    store = ReleaseStore(args.store)
    if args.action == "status":
        ledger_path = store.root / "ledger.json"
        if not ledger_path.exists():
            print(f"(no ledger at {ledger_path}: no epochs have been released)")
            return 0
        # Open with the *persisted* cap so a read-only status can never
        # tighten the recorded policy (the ledger keeps component-wise mins).
        persisted = json.loads(ledger_path.read_text()).get("cap") or {}
        ledger = BudgetLedger(
            PrivacyBudget(
                persisted.get("epsilon", args.cap_epsilon),
                persisted.get("delta", args.cap_delta),
            ),
            path=ledger_path,
        )
        names = [args.name] if args.name else ledger.database_ids()
        shown = 0
        for name in names:
            entries = ledger.epoch_entries(name)
            if not entries:
                continue
            shown += 1
            spent = ledger.spent(name)
            naive = sum(entry["epsilon"] for entry in entries[:1]) * len(entries)
            print(
                f"{name}: {len(entries)} epoch(s) released, "
                f"spent eps={spent.epsilon:g} delta={spent.delta:g} "
                f"of cap eps={ledger.cap.epsilon:g} delta={ledger.cap.delta:g} "
                f"(naive sequential composition: eps={naive:g})"
            )
            for entry in entries:
                print(
                    f"  epoch {entry['epoch']:<4d} marginal "
                    f"eps={entry['epsilon']:<8g} delta={entry['delta']:<10g} "
                    f"label={entry['label']}"
                )
        for record in store.list_releases():
            if record.epoch is not None and (not args.name or record.name == args.name):
                print(
                    f"  {record.name} v{record.version} <- epoch {record.epoch}"
                    + (
                        f" (parent v{record.parent_version})"
                        if record.parent_version is not None
                        else ""
                    )
                )
        if not shown:
            print("(the ledger has no epoch charges yet)")
        return 0

    # action == "run": drive the scheduler over a synthetic stream.
    try:
        stream = _epoch_stream(args)
        ledger = _open_epoch_ledger(store, args)
        scheduler = EpochScheduler(
            stream,
            store,
            ledger,
            params=_cli_params(args),
            seed=args.seed,
            base_kind=args.kind,
            **_kind_kwargs(args),
        )
        released = scheduler.run_pending()
    except ReproError as error:
        print(f"refused: {error}", file=sys.stderr)
        return 2
    for release in released:
        print(
            f"epoch {release.epoch:<4d} -> {stream.name} v{release.version} "
            f"(marginal eps={release.epsilon:g}, spent eps={release.spent_epsilon:g}, "
            f"{release.num_patterns} patterns, digest {release.digest[:12]}...)"
        )
    if not released:
        print("(nothing to release: the store is already at the stream head)")
    status = scheduler.status()
    print(
        f"schedule: {status['released_epochs']}/{status['stream_epochs']} epochs, "
        f"tree-bound eps={status['tree_bound_epsilon']:g} vs "
        f"naive eps={status['naive_epsilon']:g}, "
        f"cap eps={status['cap_epsilon']:g}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsc",
        description="Differentially private substring and document counting",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list all experiments")
    list_parser.set_defaults(func=_cmd_list)

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment", help="experiment id, e.g. E4, or 'all' for every experiment"
    )
    run_parser.add_argument(
        "--save", default="", help="directory to save the result rows to"
    )
    run_parser.set_defaults(func=_cmd_run)

    quick_parser = subparsers.add_parser("quickstart", help="run the quickstart demo")
    quick_parser.set_defaults(func=_cmd_quickstart)

    mine_parser = subparsers.add_parser("mine", help="private mining demo")
    mine_parser.add_argument("--workload", choices=("genome", "transit"), default="genome")
    mine_parser.add_argument("--n", type=int, default=300)
    mine_parser.add_argument("--ell", type=int, default=12)
    mine_parser.add_argument("--epsilon", type=float, default=20.0)
    mine_parser.add_argument("--seed", type=int, default=0)
    mine_parser.add_argument(
        "--profile",
        action="store_true",
        help="print the construction's span tree (per-stage wall+CPU times)",
    )
    mine_parser.add_argument(
        "--trace-out",
        default="",
        metavar="PATH",
        help="write the construction trace as Chrome trace-event JSON "
        "(loadable in Perfetto)",
    )
    _add_build_arguments(mine_parser)
    mine_parser.set_defaults(func=_cmd_mine)

    serve_parser = subparsers.add_parser(
        "serve", help="serve compiled releases from a store over HTTP"
    )
    serve_parser.add_argument("--store", required=True, help="release store directory")
    serve_parser.add_argument(
        "--release",
        action="append",
        default=[],
        help="release name to serve (repeatable; default: every release)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8080)
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="serve through the cluster tier: N pre-forked worker "
        "processes mmap-sharing one release copy behind a router on --port "
        "that relays each request to one worker (1 = the single-process "
        "server)",
    )
    serve_parser.add_argument(
        "--no-batch",
        action="store_true",
        help=f"disable micro-batching of concurrent single queries ({_SINGLE_ONLY})",
    )
    serve_parser.add_argument(
        "--no-mmap",
        action="store_true",
        help="load binary releases into private memory instead of "
        "page-cache-shared read-only maps",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    query_parser = subparsers.add_parser(
        "query", help="query a running dpsc server"
    )
    query_parser.add_argument(
        "patterns", nargs="*", default=[], help="patterns to count (>=2 uses /batch)"
    )
    query_parser.add_argument("--url", default="http://127.0.0.1:8080")
    query_parser.add_argument("--release", default=None)
    query_parser.add_argument(
        "--mine",
        type=float,
        default=None,
        metavar="THRESHOLD",
        help="mine frequent patterns at this threshold instead of querying",
    )
    query_parser.add_argument("--limit", type=int, default=20)
    query_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="total per-call budget in seconds, retries included (default: "
        "per-endpoint — /healthz 5s, /query 30s, /mine 120s; see "
        "docs/RESILIENCE.md)",
    )
    query_parser.set_defaults(func=_cmd_query)

    faults_parser = subparsers.add_parser(
        "faults",
        help="list failpoint sites or validate/arm a chaos schedule "
        "(docs/RESILIENCE.md)",
    )
    faults_parser.add_argument(
        "action",
        choices=("list", "arm"),
        help="'list': every registered failpoint site; 'arm': validate a "
        "fault-spec JSON file and print the DPSC_FAULTS environment that "
        "arms it for 'dpsc serve'",
    )
    faults_parser.add_argument(
        "spec", nargs="?", default=None, help="fault-spec JSON file (for 'arm')"
    )
    faults_parser.add_argument("--json", action="store_true", help="JSON output")
    faults_parser.add_argument(
        "--seed", type=int, default=0, help="injection schedule seed"
    )
    faults_parser.add_argument(
        "--scope", default=None, help="decision-stream scope (default 'main')"
    )
    faults_parser.add_argument(
        "--log", default="", help="append the injection log to this JSONL file"
    )
    faults_parser.add_argument(
        "--preview",
        type=int,
        default=0,
        metavar="N",
        help="also print which of the first N hits would fire per site",
    )
    faults_parser.set_defaults(func=_cmd_faults)

    bench_parser = subparsers.add_parser(
        "bench-load",
        help="load-test a query service with mixed concurrent traffic",
    )
    bench_parser.add_argument(
        "--threads",
        default="1,2,4,8",
        help="comma list of thread counts to replay the workload with",
    )
    bench_parser.add_argument(
        "--processes",
        default="",
        metavar="P[,P...]",
        help="also replay from this many spawned client *processes* (a "
        "single client is GIL-bound and cannot saturate the cluster tier); "
        "needs an HTTP target: --url, or --store with --workers",
    )
    bench_parser.add_argument(
        "--ops", type=int, default=2000, help="operations per replay"
    )
    bench_parser.add_argument(
        "--store", default="", help="serve the releases of this store"
    )
    bench_parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="with --store: serve it through an exclusive loopback cluster "
        "of N workers and hammer that over HTTP (counter checks stay exact)",
    )
    bench_parser.add_argument(
        "--url", default="", help="hammer a running server instead (skips "
        "the counter check: other clients may share it)",
    )
    bench_parser.add_argument(
        "--workload", choices=("genome", "transit"), default="genome",
        help="workload to build in-process when no --store/--url is given",
    )
    bench_parser.add_argument("--n", type=int, default=1000)
    bench_parser.add_argument("--ell", type=int, default=12)
    bench_parser.add_argument("--epsilon", type=float, default=60.0)
    bench_parser.add_argument("--seed", type=int, default=0)
    bench_parser.add_argument(
        "--no-batch",
        action="store_true",
        help=f"disable micro-batching of concurrent single queries ({_SINGLE_ONLY})",
    )
    bench_parser.add_argument(
        "--no-mmap",
        action="store_true",
        help="load binary releases into private memory instead of "
        "page-cache-shared read-only maps",
    )
    bench_parser.add_argument(
        "--json",
        default="",
        metavar="PATH",
        help="also write every replay row (throughput + per-endpoint "
        "latency percentiles) as JSON to PATH",
    )
    bench_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="total per-call client budget in seconds, retries included "
        "(default: per-endpoint; only meaningful for HTTP targets)",
    )
    _add_build_arguments(bench_parser)
    bench_parser.set_defaults(func=_cmd_bench_load)

    releases_parser = subparsers.add_parser(
        "releases", help="list, build or migrate stored releases"
    )
    releases_parser.add_argument(
        "action",
        nargs="?",
        choices=("list", "migrate"),
        default="list",
        help="'list' (default) or 'migrate': convert JSON payloads to the "
        "binary format in place, digest-verified before anything is removed",
    )
    releases_parser.add_argument(
        "--store", default="releases", help="release store directory"
    )
    releases_parser.add_argument(
        "--format",
        choices=("auto", "json", "binary"),
        default="auto",
        help="payload format for new saves ('auto' = binary, the serving "
        "format; 'json' keeps the human-readable compatibility format)",
    )
    releases_parser.add_argument(
        "--url", default="", help="list a running server instead of a store"
    )
    releases_parser.add_argument(
        "--build",
        choices=("genome", "transit"),
        default="",
        help="build a workload release into the store before listing",
    )
    releases_parser.add_argument("--name", default="", help="release name (default: workload)")
    releases_parser.add_argument("--n", type=int, default=300)
    releases_parser.add_argument("--ell", type=int, default=12)
    releases_parser.add_argument("--epsilon", type=float, default=20.0)
    releases_parser.add_argument("--cap-epsilon", type=float, default=100.0)
    releases_parser.add_argument("--cap-delta", type=float, default=1e-5)
    releases_parser.add_argument("--seed", type=int, default=0)
    _add_build_arguments(releases_parser)
    releases_parser.set_defaults(func=_cmd_releases)

    epochs_parser = subparsers.add_parser(
        "epochs",
        help="continual release: build one store version per stream epoch "
        "under the O(log T) dyadic-tree budget schedule",
    )
    epochs_parser.add_argument(
        "action",
        choices=("run", "status"),
        help="'run': release every pending epoch of a synthetic workload "
        "stream; 'status': print the schedule position, per-epoch charges "
        "and budget spend recorded in the store's ledger",
    )
    epochs_parser.add_argument(
        "--store", required=True, help="release store directory (ledger lives inside)"
    )
    epochs_parser.add_argument(
        "--workload", choices=("genome", "transit"), default="genome"
    )
    epochs_parser.add_argument(
        "--epochs",
        type=int,
        default=4,
        help="number of arrival batches the workload is split into",
    )
    epochs_parser.add_argument(
        "--name", default="", help="release name / database id (default: workload)"
    )
    epochs_parser.add_argument("--n", type=int, default=120)
    epochs_parser.add_argument("--ell", type=int, default=10)
    epochs_parser.add_argument("--epsilon", type=float, default=20.0)
    epochs_parser.add_argument(
        "--cap-epsilon",
        type=float,
        default=200.0,
        help="ledger cap; (floor(log2 T)+1) * --epsilon funds a horizon of T",
    )
    epochs_parser.add_argument("--cap-delta", type=float, default=1e-5)
    epochs_parser.add_argument("--seed", type=int, default=0)
    _add_build_arguments(epochs_parser)
    epochs_parser.set_defaults(func=_cmd_epochs)
    return parser


def _add_build_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every command that builds a structure: the kind
    (dispatched through the repro.api registry), its q-gram length and the
    approximate-DP delta."""
    parser.add_argument(
        "--kind",
        choices=default_registry().kinds(),
        default="heavy-path",
        help="structure kind to build (see docs/API.md; q-gram kinds use --q)",
    )
    parser.add_argument(
        "--q",
        type=int,
        default=3,
        help="pattern length for the q-gram structure kinds",
    )
    parser.add_argument(
        "--delta",
        type=float,
        default=0.0,
        help="privacy parameter delta (required > 0 by kind qgram-t4)",
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
