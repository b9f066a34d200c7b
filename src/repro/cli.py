"""Command-line interface: build databases, run queries, serve, run experiments.

Seven subcommands cover the everyday workflows::

    python -m repro build-db     --kind scenes --per-category 20 --out db.npz
    python -m repro query        --db db.npz --category waterfall --top-k 10
    python -m repro batch-query  --db db.npz --categories waterfall,sunset --workers 4
    python -m repro serve        --db db.npz --port 8000
    python -m repro client-query --url http://127.0.0.1:8000 --positive id1,id2
    python -m repro experiment   --db db.npz --category waterfall --scheme inequality
    python -m repro info         --db db.npz
    python -m repro synth generate --preset cluttered --bags 100000 --out corpus/
    python -m repro synth inspect  --dir corpus/ --verify
    python -m repro synth pack     --dir corpus/ --out corpus.npz
    python -m repro index build    --db db.npz --out indexed.npz --reorder
    python -m repro index inspect  --db indexed.npz
    python -m repro --version

``build-db`` resolves ``--kind`` through the dataset registry
(:func:`repro.datasets.loader.make_dataset`), the same way queries resolve
learners.  ``synth`` drives the streamed procedural corpus generator
(:mod:`repro.datasets.synth`): ``generate`` writes checksummed npz shards
in bounded memory and resumes interrupted runs, ``inspect`` reads the
manifest back, ``pack`` folds a shard directory into one packed-corpus
archive.

``index`` manages the offline rank index: ``build`` packs a database
snapshot's corpus (optionally re-packed in clustered-centroid order),
builds the sharded bound-pruned rank index, and writes a format-v4
snapshot carrying both; ``inspect`` reports what a snapshot carries.

``serve`` starts an HTTP worker (``repro.serve``) over a database snapshot
— or a warm service snapshot (``--snapshot``), which restores the packed
corpora and the trained-concept cache so the first repeated query needs no
retraining, or a sharded synthetic corpus directory (``--corpus-dir``).
``client-query`` drives a running worker through the versioned wire
format.

All commands are seeded and print plain text; they are thin wrappers over
the library API (each maps to a handful of calls documented in the README),
so anything the CLI does can be scripted directly.  ``query`` and
``batch-query`` go through :class:`~repro.api.service.RetrievalService`,
so ``--learner`` accepts any name in the learner registry (``dd``,
``emdd``, ``maron-ratan``, ``random``, ``global-correlation``, plus any
learner registered by user code).
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
import time
from pathlib import Path

from repro.api.learners import available_learners, shape_learner_params
from repro.api.query import Query
from repro.api.service import RetrievalService
from repro.core.feedback import select_examples
from repro.database.persistence import load_database, save_database
from repro.datasets.loader import available_datasets, make_dataset
from repro.datasets.synth import (
    ShardedCorpusReader,
    available_presets,
    generate_corpus,
    get_preset,
    save_packed_corpus,
)
from repro.errors import ReproError
from repro.eval.experiment import ExperimentConfig, RetrievalExperiment
from repro.eval.reporting import ascii_table
from repro.serve.app import ServiceApp
from repro.serve.http import ReproClient, ReproServer
from repro.serve.sessions import SessionStore
from repro.serve.snapshot import load_corpus_service, load_service
from repro.version import __version__

_SCHEMES = ["original", "identical", "alpha_hack", "inequality"]


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every command that trains a concept."""
    parser.add_argument("--restart-prune-margin", dest="restart_prune_margin",
                        type=float, default=None, metavar="MARGIN",
                        help="freeze restarts whose NLL trails the incumbent "
                        "best by more than MARGIN (dynamic Section 4.3 "
                        "thinning; default off)")
    parser.add_argument("--verbose", action="store_true",
                        help="print training diagnostics (wall time, pruned "
                        "restart counts, concept-cache stats)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Image retrieval with multiple-instance learning "
        "(Yang & Lozano-Perez, ICDE 2000 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build-db", help="render a synthetic database")
    build.add_argument("--kind", default="scenes",
                       help=f"dataset registry name (known: "
                       f"{', '.join(available_datasets())})")
    build.add_argument("--per-category", type=int, default=20)
    build.add_argument("--size", type=int, default=80, help="image side in pixels")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--out", required=True, help="output .npz snapshot path")

    query = commands.add_parser("query", help="train on examples and rank")
    query.add_argument("--db", required=True, help="database snapshot path")
    query.add_argument("--category", required=True)
    query.add_argument("--learner", default="dd",
                       help=f"learner registry name (known: "
                       f"{', '.join(available_learners())})")
    query.add_argument("--scheme", default="inequality", choices=_SCHEMES)
    query.add_argument("--beta", type=float, default=0.5)
    query.add_argument("--positives", type=int, default=4)
    query.add_argument("--negatives", type=int, default=4)
    query.add_argument("--top-k", "--top", dest="top", type=int, default=10,
                       help="truncate the ranking to the best K matches "
                       "(server-side top-k)")
    query.add_argument("--seed", type=int, default=0)
    _add_training_flags(query)

    batch = commands.add_parser(
        "batch-query", help="run one query per category through the service"
    )
    batch.add_argument("--db", required=True, help="database snapshot path")
    batch.add_argument("--categories", required=True,
                       help="comma-separated target categories (repeat a "
                       "category to simulate more traffic)")
    batch.add_argument("--learner", default="dd",
                       help=f"learner registry name (known: "
                       f"{', '.join(available_learners())})")
    batch.add_argument("--scheme", default="inequality", choices=_SCHEMES)
    batch.add_argument("--beta", type=float, default=0.5)
    batch.add_argument("--positives", type=int, default=4)
    batch.add_argument("--negatives", type=int, default=4)
    batch.add_argument("--top-k", "--top", dest="top", type=int, default=10,
                       help="truncate each ranking to the best K matches "
                       "(server-side top-k)")
    batch.add_argument("--workers", type=int, default=1,
                       help="thread-pool size (1 = sequential)")
    batch.add_argument("--seed", type=int, default=0)
    _add_training_flags(batch)

    experiment = commands.add_parser(
        "experiment", help="run the full Section 4.1 protocol"
    )
    experiment.add_argument("--db", required=True)
    experiment.add_argument("--category", required=True)
    experiment.add_argument("--learner", default="dd",
                            choices=["dd", "emdd", "maron-ratan"])
    experiment.add_argument("--scheme", default="inequality", choices=_SCHEMES)
    experiment.add_argument("--beta", type=float, default=0.5)
    experiment.add_argument("--rounds", type=int, default=3)
    experiment.add_argument("--positives", type=int, default=5)
    experiment.add_argument("--negatives", type=int, default=5)
    experiment.add_argument("--training-fraction", type=float, default=0.4)
    experiment.add_argument("--seed", type=int, default=0)
    _add_training_flags(experiment)

    info = commands.add_parser("info", help="describe a database snapshot")
    info.add_argument("--db", required=True)

    serve = commands.add_parser(
        "serve", help="serve the retrieval API over HTTP (repro.serve worker)",
        description="Serve the retrieval API over HTTP.  Top-k rank queries "
        "over a corpus of at least 4096 bags use the bound-pruned rank "
        "index automatically; rankings are identical either way.",
    )
    source = serve.add_mutually_exclusive_group(required=True)
    source.add_argument("--db", help="database snapshot path (cold worker)")
    source.add_argument("--snapshot",
                        help="warm service snapshot path (packed corpora + "
                        "trained-concept cache restored; see "
                        "repro.serve.save_service)")
    source.add_argument("--corpus-dir", dest="corpus_dir",
                        help="sharded synthetic corpus directory "
                        "(repro synth generate output)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="bind port (0 picks a free one)")
    serve.add_argument("--cache-size", type=int, default=128,
                       help="trained-concept cache capacity (0 disables)")
    serve.add_argument("--max-history", type=int, default=1000,
                       help="per-query timing records kept (memory bound)")
    serve.add_argument("--session-ttl", type=float, default=1800.0,
                       help="idle feedback-session lifetime in seconds")
    serve.add_argument("--max-sessions", type=int, default=1024,
                       help="concurrent feedback sessions held (LRU beyond)")
    serve.add_argument("--warm", default="dd", metavar="LEARNERS",
                       help="comma-separated learner families whose corpora "
                       "to precompute before serving ('' skips warming)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="serve from N pre-forked worker processes sharing "
                            "one shared-memory corpus (1 = in-process)")
    serve.add_argument("--scatter", dest="min_scatter_bags", type=int,
                       default=None, metavar="BAGS",
                       help="with --workers N: scatter one rank query's "
                            "shard ranges across every worker when the "
                            "corpus holds at least BAGS bags (default: the "
                            "4096-bag auto-shard threshold; 0 disables "
                            "scatter)")
    serve.add_argument("--drain-timeout", type=float, default=5.0,
                       metavar="SECONDS",
                       help="how long a SIGTERM/SIGINT shutdown waits for "
                            "in-flight requests to finish")
    serve.add_argument("--read-timeout", dest="read_timeout", type=float,
                       default=30.0, metavar="SECONDS",
                       help="per-connection socket timeout on header and "
                            "body reads (slow-client protection; a stalled "
                            "body gets HTTP 408)")
    serve.add_argument("--reorder", dest="reorder_bags", action="store_true",
                       help="re-pack the corpus in clustered-centroid order "
                       "at warm time (rankings identical; bound pruning "
                       "tightens)")

    client = commands.add_parser(
        "client-query", help="query a running repro serve worker"
    )
    client.add_argument("--url", required=True,
                        help="server base URL, e.g. http://127.0.0.1:8000")
    client.add_argument("--positive", required=True,
                        help="comma-separated positive example image ids")
    client.add_argument("--negative", default="",
                        help="comma-separated negative example image ids")
    client.add_argument("--learner", default="dd",
                        help=f"learner registry name (known: "
                        f"{', '.join(available_learners())})")
    client.add_argument("--scheme", default="inequality", choices=_SCHEMES)
    client.add_argument("--beta", type=float, default=0.5)
    client.add_argument("--top-k", "--top", dest="top", type=int, default=10)
    client.add_argument("--seed", type=int, default=0)
    client.add_argument("--timeout", type=float, default=60.0,
                        help="per-request timeout in seconds")
    client.add_argument("--deadline-ms", dest="deadline_ms", type=float,
                        default=None, metavar="MS",
                        help="per-request server-side deadline budget in "
                        "milliseconds (expiry returns HTTP 504 instead of "
                        "waiting on a hung worker)")

    synth = commands.add_parser(
        "synth", help="generate/inspect/pack procedural corpora at scale"
    )
    synth_commands = synth.add_subparsers(dest="synth_command", required=True)

    generate = synth_commands.add_parser(
        "generate", help="stream a scenario corpus into a sharded directory"
    )
    generate.add_argument("--preset", default="clean",
                          help=f"scenario preset (known: "
                          f"{', '.join(available_presets())})")
    generate.add_argument("--bags", type=int, default=None,
                          help="total bag target; overrides the preset's "
                          "bags-per-category (rounded up per category)")
    generate.add_argument("--seed", type=int, default=None,
                          help="override the preset's master seed")
    generate.add_argument("--shard-size", dest="shard_size", type=int,
                          default=1024, help="bags per npz shard")
    generate.add_argument("--out", required=True, help="corpus directory")
    generate.add_argument("--fresh", action="store_true",
                          help="regenerate everything (default: resume, "
                          "adopting shards whose checksum matches)")

    inspect_cmd = synth_commands.add_parser(
        "inspect", help="describe a sharded corpus directory"
    )
    inspect_cmd.add_argument("--dir", dest="corpus_dir", required=True)
    inspect_cmd.add_argument("--verify", action="store_true",
                             help="re-checksum every shard")

    pack = synth_commands.add_parser(
        "pack", help="fold a sharded corpus into one packed .npz"
    )
    pack.add_argument("--dir", dest="corpus_dir", required=True)
    pack.add_argument("--out", required=True, help="output .npz path")

    chaos = commands.add_parser(
        "chaos",
        help="soak a worker pool under seeded fault injection and assert "
        "rankings stay bit-identical to a fault-free run",
    )
    chaos.add_argument("--db", required=True, help="database snapshot path")
    chaos.add_argument("--workers", type=int, default=2, metavar="N",
                       help="pool width for both the baseline and the "
                       "faulted run")
    chaos.add_argument("--seed", type=int, default=7,
                       help="seeds the request mix and the fault plan")
    chaos.add_argument("--requests", type=int, default=24, metavar="N",
                       help="length of the query/rank/feedback mix")
    chaos.add_argument("--deadline-ms", dest="deadline_ms", type=float,
                       default=3000.0, metavar="MS",
                       help="per-request budget during the faulted run")
    chaos.add_argument("--faults", type=int, default=6, metavar="N",
                       help="how many faults the seeded plan injects")
    chaos.add_argument("--min-restarts", dest="min_restarts", type=int,
                       default=0, metavar="N",
                       help="fail unless the faulted run restarted at "
                       "least N workers (proves faults actually fired)")
    chaos.add_argument("--json", action="store_true",
                       help="print the report as JSON (for CI artifacts)")

    index = commands.add_parser(
        "index", help="build/inspect the offline rank index"
    )
    index_commands = index.add_subparsers(dest="index_command", required=True)

    index_build = index_commands.add_parser(
        "build",
        help="build the bound-pruned rank index (optionally over a "
        "centroid-reordered corpus) into a v4 snapshot",
        description="Build the bound-pruned rank index into a v4 snapshot. "
        "The shard count is automatic (about one shard per 16k bags).",
    )
    index_build.add_argument("--db", required=True,
                             help="database snapshot path")
    index_build.add_argument("--out", required=True,
                             help="output .npz snapshot path (may equal --db)")
    index_build.add_argument("--reorder", action="store_true",
                             help="re-pack the corpus in clustered-centroid "
                             "order first (rankings identical; bound "
                             "pruning tightens)")

    index_inspect = index_commands.add_parser(
        "inspect", help="report what a snapshot's packed corpus carries"
    )
    index_inspect.add_argument("--db", required=True,
                               help="database snapshot path")

    return parser


def _learner_params(args: argparse.Namespace) -> dict[str, object]:
    """CLI flags -> learner params, shaped per learner family."""
    return shape_learner_params(
        args.learner,
        scheme=args.scheme,
        beta=args.beta,
        start_bag_subset=2,
        seed=args.seed,
        restart_prune_margin=args.restart_prune_margin,
    )


def _cache_line(service: RetrievalService) -> str:
    """One-line concept-cache summary for ``--verbose`` output."""
    stats = service.cache_stats
    return (
        f"concept cache: {stats.hits} hits / {stats.misses} misses "
        f"(hit rate {stats.hit_rate:.0%}), {stats.entries} entries"
    )


def _category_query(
    service: RetrievalService, args: argparse.Namespace, category: str, seed: int
) -> Query:
    """Build one seeded simulated-user query for a target category."""
    selection = select_examples(
        service.database,
        service.database.image_ids,
        category,
        n_positive=args.positives,
        n_negative=args.negatives,
        seed=seed,
    )
    return Query(
        positive_ids=selection.positive_ids,
        negative_ids=selection.negative_ids,
        learner=args.learner,
        params=_learner_params(args),
        top_k=args.top,
        query_id=category,
    )


def _cmd_build_db(args: argparse.Namespace) -> int:
    database = make_dataset(
        args.kind,
        images_per_category=args.per_category,
        size=(args.size, args.size),
        seed=args.seed,
    )
    path = save_database(database, Path(args.out))
    print(f"wrote {database} to {path}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    database = load_database(args.db)
    service = RetrievalService(database)
    result = service.query(_category_query(service, args, args.category, args.seed))
    rows = [
        [entry.rank + 1, entry.image_id, entry.category, entry.distance]
        for entry in result.top()
    ]
    print(
        ascii_table(
            ["rank", "image", "category", "distance"],
            rows,
            title=f"top {args.top} matches for {args.category!r} "
            f"({args.learner} learner)",
        )
    )
    hits = sum(1 for entry in result.top() if entry.category == args.category)
    print(f"precision@{args.top} = {hits / args.top:.2f}")
    print(
        f"ranked {result.total_candidates} candidates "
        f"(kept top {len(result.ranking)}); "
        f"timing: fit {result.timing.fit_seconds:.2f}s, "
        f"rank {result.timing.rank_seconds:.2f}s"
    )
    if args.verbose and result.training is not None:
        training = result.training
        print(
            f"training: wall time {training.wall_time_s:.3f}s, "
            f"{training.n_starts} starts ({training.n_starts_pruned} pruned)"
        )
        print(_cache_line(service))
    return 0


def _cmd_batch_query(args: argparse.Namespace) -> int:
    database = load_database(args.db)
    service = RetrievalService(database)
    categories = [c.strip() for c in args.categories.split(",") if c.strip()]
    if not categories:
        print("error: --categories supplied no category names", file=sys.stderr)
        return 2
    queries = [
        _category_query(service, args, category, args.seed + index)
        for index, category in enumerate(categories)
    ]
    started_at = time.perf_counter()
    results = service.batch_query(queries, workers=args.workers)
    elapsed = time.perf_counter() - started_at
    rows = []
    for result in results:
        category = result.query.query_id
        top = result.top()
        rows.append(
            [
                category,
                result.query.learner,
                top[0].image_id if top else "-",
                f"{result.precision_at(args.top, category):.2f}" if top else "-",
                f"{result.timing.fit_seconds:.2f}",
            ]
        )
    print(
        ascii_table(
            ["category", "learner", "best match", f"p@{args.top}", "fit s"],
            rows,
            title=f"batch of {len(results)} queries ({args.workers} workers)",
        )
    )
    print(
        f"wall time {elapsed:.2f}s, "
        f"throughput {len(results) / elapsed:.2f} queries/s"
    )
    if args.verbose:
        trainings = [r.training for r in results if r.training is not None]
        pruned = sum(training.n_starts_pruned for training in trainings)
        print(f"training: {pruned} restarts pruned")
        print(_cache_line(service))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    database = load_database(args.db)
    config = ExperimentConfig(
        target_category=args.category,
        learner=args.learner,
        scheme=args.scheme,
        beta=args.beta,
        rounds=args.rounds,
        n_positive=args.positives,
        n_negative=args.negatives,
        training_fraction=args.training_fraction,
        start_bag_subset=2,
        start_instance_stride=2,
        max_iterations=60,
        seed=args.seed,
        restart_prune_margin=args.restart_prune_margin,
    )
    result = RetrievalExperiment(database, config).run()
    base_rate = result.n_relevant / len(result.relevance)
    rows = [
        [record.index, record.n_positive_bags, record.n_negative_bags,
         record.training_precision_at_10]
        for record in result.outcome.rounds
    ]
    print(
        ascii_table(
            ["round", "pos bags", "neg bags", "train p@10"],
            rows,
            title=f"experiment: {args.category!r} via {args.scheme}",
        )
    )
    print(
        f"test AP = {result.average_precision:.3f} (base rate {base_rate:.2f}); "
        f"band precision [0.3,0.4] = {result.band_precision:.3f}; "
        f"{result.elapsed_seconds:.1f}s"
    )
    if args.verbose:
        final = result.outcome.final_training
        print(
            f"final round: wall time {final.wall_time_s:.3f}s, "
            f"{final.n_starts} starts ({final.n_starts_pruned} pruned)"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    database = load_database(args.db)
    rows = [[category, count] for category, count in
            sorted(database.category_sizes().items())]
    print(ascii_table(["category", "images"], rows, title=repr(database)))
    config = database.feature_config
    print(
        f"features: h={config.resolution} ({config.n_dims} dims), "
        f"regions={config.region_family.name}, mirrors={config.include_mirrors}, "
        f"max {config.max_instances} instances/bag"
    )
    return 0


def build_server(args: argparse.Namespace):
    """Assemble the HTTP worker the ``serve`` command runs (test seam).

    Loads a cold database snapshot (``--db``), a warm service snapshot
    (``--snapshot``) or a sharded synthetic corpus directory
    (``--corpus-dir``), warms the requested learner corpora, and returns
    an unstarted :class:`~repro.serve.http.ReproServer`.
    """
    reorder_bags = bool(getattr(args, "reorder_bags", False))
    read_timeout = getattr(args, "read_timeout", None) or 30.0
    if getattr(args, "corpus_dir", None):
        service, info = load_corpus_service(
            args.corpus_dir,
            cache_size=args.cache_size,
            max_history=args.max_history,
            reorder_bags=reorder_bags,
        )
        print(f"opened sharded corpus {info.path}: {info.n_images} bags")
    elif args.snapshot:
        service, info = load_service(
            args.snapshot,
            cache_size=args.cache_size,
            max_history=args.max_history,
        )
        print(
            f"restored warm worker from {info.path.name}: {info.n_images} images, "
            f"{len(info.corpus_keys)} corpora, {info.n_cache_entries} cached concepts"
        )
    else:
        service = RetrievalService(
            load_database(args.db),
            cache_size=args.cache_size,
            max_history=args.max_history,
            reorder_bags=reorder_bags,
        )
    for learner in [name.strip() for name in args.warm.split(",") if name.strip()]:
        service.warm(learner)
    n_workers = getattr(args, "workers", 1) or 1
    if n_workers > 1:
        from repro.serve.workers import WorkerDispatchApp, WorkerPool

        pool = WorkerPool.from_service(
            service,
            n_workers,
            session_ttl=args.session_ttl,
            max_sessions=args.max_sessions,
        )
        print(
            f"started {pool.n_workers} workers "
            f"(pids {', '.join(map(str, pool.worker_pids()))}) over one "
            f"shared-memory corpus"
        )
        app = WorkerDispatchApp(
            pool,
            service=service,
            min_scatter_bags=getattr(args, "min_scatter_bags", None),
        )
        if app.scatter is not None:
            print(
                f"scatter/gather ranking on from "
                f"{app.scatter.min_scatter_bags} bags"
            )
        return ReproServer(app, host=args.host, port=args.port,
                           read_timeout=read_timeout)
    sessions = SessionStore(
        service, ttl_seconds=args.session_ttl, max_sessions=args.max_sessions
    )
    return ReproServer(ServiceApp(service, sessions=sessions),
                       host=args.host, port=args.port,
                       read_timeout=read_timeout)


def _cmd_serve(args: argparse.Namespace) -> int:
    server = build_server(args)
    app = server.app
    if hasattr(app, "pool"):
        database_repr = f"worker pool x{app.pool.n_workers}"
    else:
        database_repr = repr(app.service.database)
    print(
        f"serving {database_repr}\n"
        f"repro API at {server.url}/v1 "
        f"(endpoints: query, batch_query, feedback, rank, health, stats)\n"
        f"press Ctrl-C or send SIGTERM to stop (drains in-flight requests)"
    )
    # serve_forever() runs on a background thread and the main thread waits
    # on an Event: calling server.stop() from inside a signal handler that
    # interrupted serve_forever's own thread would deadlock in shutdown().
    stop_event = threading.Event()

    def _request_stop(signum, frame) -> None:  # noqa: ARG001 - signal API
        stop_event.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, _request_stop)
    try:
        server.start()
        stop_event.wait()
        print("\ndraining")
    except KeyboardInterrupt:  # pragma: no cover - racing a late Ctrl+C
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        drain = getattr(args, "drain_timeout", 5.0)
        server.stop(drain_timeout=drain)
        closer = getattr(app, "close", None)
        if callable(closer):
            closer()
    print("stopped")
    return 0


def _cmd_client_query(args: argparse.Namespace) -> int:
    positives = tuple(i.strip() for i in args.positive.split(",") if i.strip())
    negatives = tuple(i.strip() for i in args.negative.split(",") if i.strip())
    query = Query(
        positive_ids=positives,
        negative_ids=negatives,
        learner=args.learner,
        params=shape_learner_params(
            args.learner, scheme=args.scheme, beta=args.beta,
            start_bag_subset=2, seed=args.seed,
        ),
        top_k=args.top,
    )
    client = ReproClient(args.url, timeout=args.timeout,
                         deadline_ms=getattr(args, "deadline_ms", None))
    result = client.query(query)
    rows = [
        [entry.rank + 1, entry.image_id, entry.category, entry.distance]
        for entry in result.top()
    ]
    print(
        ascii_table(
            ["rank", "image", "category", "distance"],
            rows,
            title=f"top {args.top} matches from {args.url} "
            f"({args.learner} learner)",
        )
    )
    print(
        f"ranked {result.total_candidates} candidates remotely; "
        f"server timing: fit {result.timing.fit_seconds:.2f}s, "
        f"rank {result.timing.rank_seconds:.2f}s"
    )
    return 0


def _cmd_synth_generate(args: argparse.Namespace) -> int:
    import dataclasses

    config = get_preset(args.preset)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.bags is not None:
        config = config.with_total_bags(args.bags)
    report = generate_corpus(
        config,
        args.out,
        shard_size=args.shard_size,
        resume=not args.fresh,
    )
    generated = report.n_shards - report.n_shards_skipped
    print(
        f"corpus {report.fingerprint} ({config.name}, {config.mode} mode): "
        f"{report.n_bags} bags / {report.n_instances} instances in "
        f"{report.n_shards} shards at {report.directory}"
    )
    if report.n_shards_skipped:
        print(
            f"resumed: adopted {report.n_shards_skipped} checksum-matching "
            f"shards, generated {generated}"
        )
    if report.bags_per_second > 0:
        print(
            f"generated in {report.elapsed_seconds:.1f}s "
            f"({report.bags_per_second:.0f} bags/s)"
        )
    return 0


def _cmd_synth_inspect(args: argparse.Namespace) -> int:
    reader = ShardedCorpusReader(args.corpus_dir)
    config = reader.config
    rows = [
        ["bags", reader.n_bags],
        ["instances", reader.n_instances],
        ["dims", reader.n_dims],
        ["shards", reader.n_shards],
        ["fingerprint", reader.fingerprint or "-"],
    ]
    if config is not None:
        rows.extend(
            [
                ["scenario", config.name],
                ["mode", config.mode],
                ["categories", len(config.categories)],
                ["seed", config.seed],
            ]
        )
    print(ascii_table(["field", "value"], rows,
                      title=f"sharded corpus at {reader.directory}"))
    if args.verify:
        reader.verify()
        print(f"verified: all {reader.n_shards} shard checksums match")
    return 0


def _cmd_synth_pack(args: argparse.Namespace) -> int:
    reader = ShardedCorpusReader(args.corpus_dir)
    packed = reader.packed()
    path = save_packed_corpus(
        packed, args.out, fingerprint=reader.fingerprint, config=reader.config
    )
    print(
        f"packed {packed.n_bags} bags / {packed.n_instances} instances "
        f"from {reader.n_shards} shards into {path}"
    )
    return 0


_SYNTH_HANDLERS = {
    "generate": _cmd_synth_generate,
    "inspect": _cmd_synth_inspect,
    "pack": _cmd_synth_pack,
}


def _cmd_synth(args: argparse.Namespace) -> int:
    return _SYNTH_HANDLERS[args.synth_command](args)


def _cmd_index_build(args: argparse.Namespace) -> int:
    database = load_database(args.db)
    packed = database.packed()
    if args.reorder:
        packed, _ = packed.reordered_by_centroid()
        database.adopt_packed(packed)
        print(f"reordered {packed.n_bags} bags in clustered-centroid order")
    index = packed.shard_index()
    path = save_database(database, Path(args.out))
    print(
        f"indexed {packed.n_bags} bags: rank index "
        f"({index.n_shards} shards) into {path}"
    )
    return 0


def _cmd_index_inspect(args: argparse.Namespace) -> int:
    database = load_database(args.db)
    packed = database.cached_packed
    if packed is None:
        print(f"{args.db}: no packed corpus (cold snapshot); nothing indexed")
        return 0
    reordered = packed.image_ids != database.image_ids
    index = packed.cached_shard_index
    rows = [
        ["bags", packed.n_bags],
        ["instances", packed.n_instances],
        ["dims", packed.n_dims],
        ["bag order", "clustered (reordered)" if reordered else "insertion"],
        ["rank index", f"{index.n_shards} shards" if index is not None else "-"],
    ]
    print(ascii_table(["field", "value"], rows,
                      title=f"rank index of {args.db}"))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json as _json

    from repro.testing import FaultPlan, run_chaos_soak

    service = RetrievalService(load_database(args.db))
    service.warm("dd")
    plan = FaultPlan.generate(
        args.seed,
        n_workers=args.workers,
        n_faults=args.faults,
        window=max(4, args.requests // 2),
        stall_seconds=max(10.0, 5.0 * args.deadline_ms / 1000.0),
    )
    print(
        f"chaos soak: {args.requests} requests x {args.workers} workers, "
        f"seed {args.seed}, plan {dict(plan.counts())}, "
        f"deadline {args.deadline_ms:.0f}ms"
    )
    report = run_chaos_soak(
        service,
        n_workers=args.workers,
        seed=args.seed,
        n_requests=args.requests,
        deadline_ms=args.deadline_ms,
        plan=plan,
        min_scatter_bags=1,
    )
    if args.json:
        print(_json.dumps({
            "n_requests": report.n_requests,
            "n_faults_planned": report.n_faults_planned,
            "fault_counts": report.fault_counts,
            "n_retries": report.n_retries,
            "n_failures": report.n_failures,
            "baseline_failures": report.baseline_failures,
            "mismatches": report.mismatches,
            "resilience": report.resilience,
            "n_restarts": report.n_restarts,
            "max_attempt_seconds": report.max_attempt_seconds,
            "deadline_ms": report.deadline_ms,
            "elapsed_seconds": report.elapsed_seconds,
            "ok": report.ok,
        }, indent=2, sort_keys=True))
    else:
        print(
            f"faulted run: {report.n_retries} retries, "
            f"{report.n_restarts} worker restarts, "
            f"slowest attempt {report.max_attempt_seconds:.2f}s, "
            f"resilience {report.resilience}"
        )
        print(
            "rankings bit-identical to the fault-free run"
            if not report.mismatches
            else f"MISMATCHED requests: {report.mismatches}"
        )
    if not report.ok:
        print("error: chaos soak failed (mismatch or unanswered request)",
              file=sys.stderr)
        return 1
    if report.n_restarts < args.min_restarts:
        print(
            f"error: expected >= {args.min_restarts} worker restarts, "
            f"saw {report.n_restarts} (plan never fired?)",
            file=sys.stderr,
        )
        return 1
    return 0


_INDEX_HANDLERS = {
    "build": _cmd_index_build,
    "inspect": _cmd_index_inspect,
}


def _cmd_index(args: argparse.Namespace) -> int:
    return _INDEX_HANDLERS[args.index_command](args)


_HANDLERS = {
    "build-db": _cmd_build_db,
    "query": _cmd_query,
    "batch-query": _cmd_batch_query,
    "experiment": _cmd_experiment,
    "info": _cmd_info,
    "serve": _cmd_serve,
    "client-query": _cmd_client_query,
    "chaos": _cmd_chaos,
    "synth": _cmd_synth,
    "index": _cmd_index,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
