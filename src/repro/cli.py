"""Command-line interface: generate, inspect, build, query, sweep.

Everything the library does, scriptable without writing Python::

    seal-repro generate twitter --num-objects 5000 --out corpus.jsonl \\
        --queries queries.jsonl --kind small
    seal-repro stats corpus.jsonl
    seal-repro inspect engine.pkl
    seal-repro inspect live.pkl.serving --json
    seal-repro build corpus.jsonl --method seal --out engine.pkl
    seal-repro build corpus.jsonl --method seal --segmented \\
        --out live.pkl
    seal-repro build corpus.jsonl --method seal --segmented \\
        --out live.pkl --wal live.wal --wal-sync batch
    seal-repro recover live.pkl --wal live.wal
    seal-repro query engine.pkl --region 10,10,20,20 --tokens coffee,tea \\
        --tau-r 0.3 --tau-t 0.3
    seal-repro query engine.pkl --queries queries.jsonl
    seal-repro query engine.pkl --batch-file queries.jsonl
    seal-repro query engine.pkl --batch-file queries.jsonl --mmap
    seal-repro query engine.pkl --queries queries.jsonl --via-service
    seal-repro serve engine.pkl --queries queries.jsonl --threads 4 \\
        --repeat 8 --metrics-out metrics.json
    seal-repro serve engine.pkl --net --port 7471 --workers-procs 4
    seal-repro serve live.pkl --net --port 7471 --wal live.wal --replicate
    seal-repro serve replica-state --net --port 7472 \\
        --replica-of 127.0.0.1:7471
    seal-repro inspect replica-state --json
    seal-repro client --port 7471 --queries queries.jsonl \\
        --connections 4 --repeat 8 --oracle engine.pkl
    seal-repro update live.pkl --region 10,10,20,20 --tokens coffee
    seal-repro update live.pkl --from more-objects.jsonl
    seal-repro update live.pkl --wal live.wal --from more-objects.jsonl
    seal-repro delete live.pkl --oids 3,17
    seal-repro compact live.pkl
    seal-repro sweep corpus.jsonl --methods seal,irtree --axis tau_r

(Also reachable as ``python -m repro``.)
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Sequence

import numpy as np

from repro import Query, Rect, SealError, TokenWeighter, build_method
from repro.bench import format_series_table, measure_workload, sweep as run_sweep
from repro.core.engine import METHOD_REGISTRY, check_params
from repro.exec.batch import BatchExecutor
from repro.exec.durable import DurableSegmentedSealSearch, recover as recover_engine
from repro.exec.pipeline import run_query
from repro.exec.segments import SegmentedSealSearch
from repro.io.atomic import atomic_write_text
from repro.io.wal import SYNC_POLICIES, WriteAheadLog
from repro.service import QueryService
from repro.datasets import generate_queries, generate_twitter, generate_usa
from repro.io import load_corpus, load_engine, load_queries, save_corpus, save_engine, save_queries

#: Method-constructor knobs the CLI exposes, with parsers.
_METHOD_PARAMS = {
    "granularity": int,
    "mt": int,
    "max_level": int,
    "num_buckets": int,
    "max_entries": int,
    "min_objects": int,
    "budget_scaling": float,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seal-repro",
        description="SEAL spatio-textual similarity search (VLDB 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic corpus (and workload)")
    gen.add_argument("dataset", choices=["twitter", "usa"])
    gen.add_argument("--num-objects", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--out", required=True, help="corpus JSONL path")
    gen.add_argument("--queries", help="also write a query workload here")
    gen.add_argument("--kind", choices=["large", "small"], default="small")
    gen.add_argument("--num-queries", type=int, default=100)
    gen.add_argument("--tau-r", type=float, default=0.4)
    gen.add_argument("--tau-t", type=float, default=0.4)
    gen.set_defaults(handler=_cmd_generate)

    stats = sub.add_parser("stats", help="print corpus statistics")
    stats.add_argument("corpus")
    stats.set_defaults(handler=_cmd_stats)

    inspect_cmd = sub.add_parser(
        "inspect",
        help="print a snapshot's envelope without loading the engine: format, "
             "WAL lineage, segment/tombstone manifest, sidecar — or a serving "
             "directory's generation catalog",
    )
    inspect_cmd.add_argument("snapshot", help="snapshot path or serving directory")
    inspect_cmd.add_argument("--json", action="store_true",
                             help="emit one machine-readable JSON document")
    inspect_cmd.set_defaults(handler=_cmd_inspect)

    build = sub.add_parser("build", help="build an engine snapshot from a corpus")
    build.add_argument("corpus")
    build.add_argument(
        "--method", choices=sorted(METHOD_REGISTRY), default="planned",
        help="engine method (default: planned — a threshold rule sending each "
             "query to the token filter, or to the grid filter when its textual "
             "bound is vacuous; answers are bit-identical to every fixed method)",
    )
    build.add_argument("--out", required=True, help="snapshot path (.pkl)")
    build.add_argument(
        "--segmented", action="store_true",
        help="build an updatable segmented engine (accepts update/delete/compact)",
    )
    build.add_argument(
        "--buffer-capacity", type=int, default=None,
        help="segmented engine: seal the write buffer at this many objects",
    )
    build.add_argument(
        "--merge-fanout", type=int, default=None,
        help="segmented engine: merge when this many segments share a size tier",
    )
    _add_wal_args(
        build,
        wal_help="create a write-ahead log here; the snapshot becomes its "
                 "checkpoint base (requires --segmented)",
    )
    for name, type_ in _METHOD_PARAMS.items():
        build.add_argument(f"--{name.replace('_', '-')}", type=type_, default=None)
    build.set_defaults(handler=_cmd_build)

    recover_cmd = sub.add_parser(
        "recover",
        help="replay snapshot + WAL tail into the exact pre-crash engine, "
             "then checkpoint it",
    )
    recover_cmd.add_argument("engine", help="checkpoint snapshot path (may not exist yet)")
    _add_wal_args(recover_cmd, required=True)
    recover_cmd.add_argument(
        "--out", help="checkpoint the recovered engine here (default: the snapshot path)"
    )
    recover_cmd.add_argument(
        "--no-checkpoint", action="store_true",
        help="report only: leave the snapshot and WAL exactly as found",
    )
    recover_cmd.set_defaults(handler=_cmd_recover)

    update = sub.add_parser(
        "update", help="insert objects into a segmented engine snapshot"
    )
    update.add_argument("engine")
    update.add_argument("--region", help="x1,y1,x2,y2 of one object to insert")
    update.add_argument("--tokens", help="comma-separated tokens of that object")
    update.add_argument(
        "--from", dest="from_corpus",
        help="JSONL corpus whose objects are all inserted (oids reassigned)",
    )
    update.add_argument("--out", help="write the updated snapshot here (default: in place)")
    _add_wal_args(update)
    update.set_defaults(handler=_cmd_update)

    delete = sub.add_parser(
        "delete", help="tombstone objects in a segmented engine snapshot"
    )
    delete.add_argument("engine")
    delete.add_argument("--oids", required=True, help="comma-separated oids to delete")
    delete.add_argument("--out", help="write the updated snapshot here (default: in place)")
    _add_wal_args(delete)
    delete.set_defaults(handler=_cmd_delete)

    compact = sub.add_parser(
        "compact", help="fully compact a segmented engine snapshot (refreshes idf weights)"
    )
    compact.add_argument("engine")
    compact.add_argument("--out", help="write the compacted snapshot here (default: in place)")
    _add_wal_args(compact)
    compact.set_defaults(handler=_cmd_compact)

    query = sub.add_parser("query", help="query an engine snapshot")
    query.add_argument("engine")
    query.add_argument("--region", help="x1,y1,x2,y2")
    query.add_argument("--tokens", help="comma-separated tokens")
    query.add_argument("--tau-r", type=float, default=0.4)
    query.add_argument("--tau-t", type=float, default=0.4)
    query.add_argument("--queries", help="JSONL workload instead of a single query")
    query.add_argument(
        "--batch-file",
        help="JSONL workload run as one batch (throughput summary) "
             "instead of query-at-a-time",
    )
    query.add_argument(
        "--mmap", action="store_true",
        help="memory-map the snapshot's columnar-array sidecar instead of "
             "reading it into memory",
    )
    query.add_argument("--show", type=int, default=10, help="answers to print per query")
    query.add_argument(
        "--via-service", action="store_true",
        help="route through the concurrent query service (result cache + "
             "admission control) and print a service summary",
    )
    query.add_argument(
        "--explain", action="store_true",
        help="print the query planner's decision per query (planned engines)",
    )
    query.set_defaults(handler=_cmd_query)

    plan = sub.add_parser(
        "plan",
        help="explain a planned engine's dispatch: per query, the member the "
             "threshold rule picks, the branch that fired and why",
    )
    plan.add_argument("engine", help="snapshot built with --method planned")
    plan.add_argument("--region", help="x1,y1,x2,y2 of a single query")
    plan.add_argument("--tokens", help="comma-separated tokens of that query")
    plan.add_argument("--tau-r", type=float, default=0.4)
    plan.add_argument("--tau-t", type=float, default=0.4)
    plan.add_argument("--queries", help="JSONL workload instead of a single query")
    plan.add_argument("--json", action="store_true",
                      help="emit one machine-readable JSON document")
    plan.set_defaults(handler=_cmd_plan)

    serve = sub.add_parser(
        "serve",
        help="serve an engine: --net starts the multi-process network server; "
             "otherwise drives a workload through the in-process query service "
             "(client threads, result cache, admission control, metrics JSON)",
    )
    serve.add_argument("engine")
    serve.add_argument("--queries", help="JSONL query workload (in-process mode)")
    serve.add_argument(
        "--net", action="store_true",
        help="serve over TCP with a supervisor + forked worker processes, each "
             "memory-mapping the published snapshot generation (shared page "
             "cache, parallel across cores)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind interface (--net)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port; 0 picks a free one and prints it (--net)")
    serve.add_argument("--workers-procs", type=int, default=2,
                       help="worker processes sharing the listening socket (--net)")
    serve.add_argument(
        "--serving-dir",
        help="snapshot-generation directory workers discover their engine from "
             "(default: <engine>.serving next to the snapshot)",
    )
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="exit after this long instead of serving until a signal (--net)")
    serve.add_argument("--threads", type=int, default=4,
                       help="client threads replaying the workload concurrently")
    serve.add_argument("--repeat", type=int, default=1,
                       help="workload replays per client thread (repeats hit the cache)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache (every request runs the engine)")
    serve.add_argument("--cache-capacity", type=int, default=1024)
    serve.add_argument("--workers", type=int, default=4,
                       help="requests executing at once (admission slots)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="requests allowed to queue past the busy workers")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request queue-wait deadline in milliseconds")
    serve.add_argument("--mmap", action="store_true",
                       help="memory-map the snapshot's columnar-array sidecar")
    serve.add_argument("--metrics-out",
                       help="write the metrics JSON here (default: print to stdout)")
    serve.add_argument(
        "--replicate", action="store_true",
        help="with --net --wal: serve one durable primary process that ships "
             "its WAL to subscribing replicas (repl-* ops), instead of the "
             "forked read-only worker pool",
    )
    serve.add_argument(
        "--replica-of", metavar="HOST:PORT",
        help="serve as a read replica tailing this primary (--net); the "
             "engine argument is the replica's state directory (local resume "
             "checkpoint + lineage live there), not a snapshot path",
    )
    serve.add_argument(
        "--replica-poll", type=float, default=0.05,
        help="seconds between replica fetches once caught up (--replica-of)",
    )
    serve.add_argument(
        "--replica-checkpoint-records", type=int, default=1024,
        help="applied records between the replica's local resume checkpoints "
             "(--replica-of)",
    )
    _add_wal_args(
        serve,
        wal_help="recover the engine from snapshot + this WAL before serving, "
                 "and checkpoint on clean exit",
    )
    serve.set_defaults(handler=_cmd_serve)

    client = sub.add_parser(
        "client",
        help="network load driver: replay a workload against a running "
             "`serve --net` server from concurrent connections",
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument("--queries", required=True, help="JSONL query workload")
    client.add_argument("--connections", type=int, default=4,
                        help="concurrent client connections")
    client.add_argument("--repeat", type=int, default=1,
                        help="workload replays per connection")
    client.add_argument("--timeout", type=float, default=30.0,
                        help="per-request socket timeout in seconds")
    client.add_argument(
        "--oracle",
        help="engine snapshot to verify every networked answer against "
             "(bit-identical or exit 2)",
    )
    client.set_defaults(handler=_cmd_client)

    sweep_cmd = sub.add_parser("sweep", help="threshold sweep over methods (figure-style table)")
    sweep_cmd.add_argument("corpus")
    sweep_cmd.add_argument("--methods", default="seal,irtree,keyword-first,spatial-first")
    sweep_cmd.add_argument("--axis", choices=["tau_r", "tau_t"], default="tau_r")
    sweep_cmd.add_argument("--taus", default="0.1,0.2,0.3,0.4,0.5")
    sweep_cmd.add_argument("--kind", choices=["large", "small"], default="small")
    sweep_cmd.add_argument("--num-queries", type=int, default=16)
    sweep_cmd.add_argument("--seed", type=int, default=13)
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    lint = sub.add_parser(
        "lint",
        help="run the repo's AST invariant checkers (atomic writes, lock "
             "order, replay determinism, error transport, ...) over source "
             "trees; exits 1 on findings",
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="machine-readable report on stdout")
    lint.add_argument("--rules", help="comma-separated subset of rule names to run")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")
    lint.set_defaults(handler=_cmd_lint)

    return parser


def _add_wal_args(parser, *, required: bool = False, wal_help: str | None = None) -> None:
    """The shared write-ahead-log flags (``--wal``, ``--wal-sync``)."""
    parser.add_argument(
        "--wal", required=required,
        help=wal_help or "write-ahead log path: mutations are logged (durable "
                         "per --wal-sync) instead of rewriting the snapshot",
    )
    parser.add_argument(
        "--wal-sync", choices=SYNC_POLICIES, default="always",
        help="WAL durability policy: fsync every append (always), group-commit "
             "batches (batch), or leave flushing to the OS (none)",
    )


# ----------------------------------------------------------------------
# Command handlers
# ----------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = generate_twitter if args.dataset == "twitter" else generate_usa
    objects = generator(args.num_objects, seed=args.seed)
    count = save_corpus(objects, args.out)
    print(f"wrote {count} objects to {args.out}")
    if args.queries:
        workload = generate_queries(
            objects,
            args.kind,
            num_queries=args.num_queries,
            seed=args.seed,
            tau_r=args.tau_r,
            tau_t=args.tau_t,
        )
        save_queries(workload, args.queries)
        print(f"wrote {len(workload)} {args.kind}-region queries to {args.queries}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    objects = load_corpus(args.corpus)
    if not objects:
        print("empty corpus")
        return 0
    areas = np.array([obj.region.area for obj in objects])
    tokens = np.array([len(obj.tokens) for obj in objects])
    vocab = {t for obj in objects for t in obj.tokens}
    from repro.geometry.rect import mbr_of

    space = mbr_of([obj.region for obj in objects])
    print(f"objects:            {len(objects)}")
    print(f"space:              {space.as_tuple()} ({space.area:.4g} area units)")
    print(f"region area:        mean {areas.mean():.4g}, median {np.median(areas):.4g}, "
          f"max {areas.max():.4g}")
    print(f"tokens per object:  mean {tokens.mean():.2f}, max {tokens.max()}")
    print(f"distinct tokens:    {len(vocab)}")
    return 0


def _print_replica_status(status: dict) -> None:
    lag = status.get("lag_bytes")
    print(f"replica:            {status.get('replica')} "
          f"(of {status.get('primary')})")
    print(f"applied lineage:    generation {status.get('generation')}, "
          f"offset {status.get('offset')}")
    print(f"lag:                "
          f"{'unknown' if lag is None else f'{lag} bytes'}; "
          f"{status.get('applied_records')} records applied over "
          f"{status.get('shipments')} shipments "
          f"({status.get('bootstraps')} bootstrap(s), via "
          f"{status.get('source')})")
    if status.get("last_error"):
        print(f"last error:         {status['last_error']}")


def _cmd_inspect(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.io.generations import current_snapshot, list_generations
    from repro.io.snapshot import sidecar_path, validate_snapshot
    from repro.service.replication import (
        REPLICA_SNAPSHOT_NAME,
        read_replica_status,
    )

    path = Path(args.snapshot)
    document: dict = {}
    if path.is_dir():
        replica_status = read_replica_status(path)
        if replica_status is not None:
            # A replica state directory: report the tailing status, then
            # inspect the local resume checkpoint (if one landed yet).
            document["replica"] = replica_status
            snapshot = path / REPLICA_SNAPSHOT_NAME
            if not snapshot.exists():
                document["snapshot"] = None
                if args.json:
                    print(json.dumps(document, indent=2, sort_keys=True))
                else:
                    _print_replica_status(replica_status)
                    print("snapshot:           none (no local checkpoint yet)")
                return 0
            path = snapshot
        else:
            # A serving directory: report the generation catalog, then
            # inspect the generation workers would boot from.
            generation, snapshot = current_snapshot(path)
            document["serving_dir"] = {
                "path": str(path),
                "generation": generation,
                "snapshot": str(snapshot),
                "generations_on_disk": [p.name for p in list_generations(path)],
            }
            path = snapshot
    info = validate_snapshot(path)
    sidecar = sidecar_path(path)
    document.update(
        {
            "snapshot": str(path),
            "format": info["format"],
            "library_version": info["library_version"],
            "num_arrays": info["num_arrays"],
            "sidecar": (
                {"path": str(sidecar), "bytes": sidecar.stat().st_size}
                if sidecar.exists()
                else None
            ),
            "wal": info["wal"],
            "manifest": info["manifest"],
        }
    )
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    if "replica" in document:
        _print_replica_status(document["replica"])
    if "serving_dir" in document:
        catalog = document["serving_dir"]
        print(f"serving dir:        {catalog['path']}")
        print(f"current generation: {catalog['generation']} -> {catalog['snapshot']}")
        if catalog["generations_on_disk"]:
            print(f"generations kept:   {', '.join(catalog['generations_on_disk'])}")
    print(f"snapshot:           {document['snapshot']}")
    print(f"format:             {document['format']} "
          f"(library {document['library_version']})")
    sidecar_doc = document["sidecar"]
    if sidecar_doc is not None:
        print(f"columnar arrays:    {document['num_arrays']} in sidecar "
              f"({sidecar_doc['bytes'] / 1e6:.2f} MB, mmap-able)")
    else:
        print(f"columnar arrays:    {document['num_arrays']} (no sidecar)")
    wal = document["wal"]
    if wal is not None:
        print(f"wal checkpoint:     generation {wal.get('generation')}, "
              f"offset {wal.get('offset')}")
    else:
        print("wal checkpoint:     none (plain save, not a WAL checkpoint)")
    manifest = document["manifest"]
    if manifest is None:
        print("manifest:           none (not a segmented engine)")
        return 0
    if manifest.get("kind") == "planned":
        print(f"engine:             planned over {manifest.get('methods')}")
        print(f"objects:            {manifest.get('objects')}")
        print(f"rule:               {manifest['rule']}")
        return 0
    print(f"engine:             {manifest.get('kind')} over "
          f"{manifest.get('method')!r}")
    print(f"objects:            {manifest.get('live')} live, "
          f"{manifest.get('buffer')} buffered, "
          f"{manifest.get('tombstones')} tombstones, "
          f"next oid {manifest.get('next_oid')}")
    segments = manifest.get("segments") or []
    print(f"segments:           {len(segments)} "
          f"({manifest.get('compactions')} compactions)")
    for i, segment in enumerate(segments):
        print(f"  segment {i}: {segment['objects']} objects "
              f"({segment['live']} live), tier {segment['tier']}, "
              f"{segment['method']} index")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    objects = load_corpus(args.corpus)
    params = {
        name: getattr(args, name)
        for name in _METHOD_PARAMS
        if getattr(args, name, None) is not None
    }
    # Knobs are method-specific: a flag the method (for ``planned``, both
    # of its members) has no use for is an error, not a constructor
    # TypeError traceback and not a silent no-op.
    check_params(args.method, params)
    if not args.segmented and (
        args.buffer_capacity is not None or args.merge_fanout is not None
    ):
        print(
            "error: --buffer-capacity/--merge-fanout require --segmented",
            file=sys.stderr,
        )
        return 2
    if args.wal and not args.segmented:
        print("error: --wal requires --segmented (only the updatable engine "
              "takes mutations to log)", file=sys.stderr)
        return 2
    started = time.perf_counter()
    if args.segmented:
        knobs = {}
        if args.buffer_capacity is not None:
            knobs["buffer_capacity"] = args.buffer_capacity
        if args.merge_fanout is not None:
            knobs["merge_fanout"] = args.merge_fanout
        engine = SegmentedSealSearch(
            ((obj.region, obj.tokens) for obj in objects),
            args.method,
            **knobs,
            **params,
        )
        label = f"{args.method} segmented ({engine.num_segments} segments)"
    else:
        engine = build_method(objects, args.method, **params)
        label = args.method
    elapsed = time.perf_counter() - started
    wal_note = ""
    if args.wal:
        # The build is the WAL's checkpoint base: the corpus lands in the
        # snapshot, the (empty) log records mutations from here on.
        wal = WriteAheadLog.create(args.wal, config=engine.config(), sync=args.wal_sync)
        durable = DurableSegmentedSealSearch(engine, wal, snapshot_path=args.out)
        durable.checkpoint()
        durable.close()
        wal_note = f", WAL at {args.wal} ({args.wal_sync} sync)"
    else:
        save_engine(engine, args.out)
    report = engine.index_size()
    size = f", index {report.total_mb:.2f} MB" if report is not None else ""
    print(f"built {label} over {len(objects)} objects in {elapsed:.1f}s{size}; "
          f"snapshot at {args.out}{wal_note}")
    return 0


def _parse_region(text: str) -> Rect | None:
    try:
        coords = [float(v) for v in text.split(",")]
    except ValueError:
        return None
    if len(coords) != 4:
        return None
    return Rect(*coords)


def _load_segmented(path: str):
    """Load a snapshot that must hold a segmented (updatable) engine."""
    engine = load_engine(path)
    if not isinstance(engine, SegmentedSealSearch):
        print(
            f"error: {path} does not hold a segmented engine; "
            "rebuild it with `build --segmented`",
            file=sys.stderr,
        )
        return None
    return engine


def _open_for_update(args: argparse.Namespace):
    """The engine an update command mutates.

    Without ``--wal``: the plain snapshot engine (the command rewrites
    the whole snapshot afterwards).  With ``--wal``: the engine
    recovered from ``snapshot + WAL tail`` — mutations then append to
    the log at O(1) cost and the snapshot is left alone (the durability
    win), unless ``--out`` asks for a checkpoint.
    """
    if args.wal:
        return recover_engine(args.engine, args.wal, sync=args.wal_sync)
    return _load_segmented(args.engine)


def _persist_updated(engine, args: argparse.Namespace) -> str:
    """Make an update command's mutations durable; returns a note."""
    if isinstance(engine, DurableSegmentedSealSearch):
        if args.out:
            engine.checkpoint(args.out)
            engine.close()
            return f"; checkpointed to {args.out} (WAL truncated)"
        engine.close()  # syncs pending appends
        return f"; logged to {args.wal} (snapshot unchanged)"
    save_engine(engine, args.out or args.engine)
    return ""


def _segmented_summary(engine) -> str:
    return (
        f"{len(engine)} live objects, {engine.num_segments} segments, "
        f"{engine.pending} buffered, {engine.tombstones} tombstones"
    )


def _cmd_update(args: argparse.Namespace) -> int:
    # Arguments first: a usage error must not leave a recovered WAL open.
    if not args.from_corpus and not args.region and args.tokens is None:
        print("error: provide --region/--tokens and/or --from", file=sys.stderr)
        return 2
    inserts: List[tuple] = []
    if args.from_corpus:
        inserts.extend((obj.region, obj.tokens) for obj in load_corpus(args.from_corpus))
    if args.region or args.tokens is not None:
        if not args.region or args.tokens is None:
            print("error: --region and --tokens go together", file=sys.stderr)
            return 2
        region = _parse_region(args.region)
        if region is None:
            print("error: --region needs x1,y1,x2,y2", file=sys.stderr)
            return 2
        inserts.append((region, frozenset(t for t in args.tokens.split(",") if t)))
    engine = _open_for_update(args)
    if engine is None:
        return 2
    if not inserts:
        # An explicitly-given --from file that held zero objects is a
        # successful no-op, not a usage error.
        print(f"inserted 0 objects ({args.from_corpus} is empty); "
              f"{_segmented_summary(engine)}")
        if isinstance(engine, DurableSegmentedSealSearch):
            engine.close()
        return 0
    oids = [engine.insert(region, tokens) for region, tokens in inserts]
    note = _persist_updated(engine, args)
    span = f"oid {oids[0]}" if len(oids) == 1 else f"oids {oids[0]}..{oids[-1]}"
    print(f"inserted {len(oids)} objects ({span}); {_segmented_summary(engine)}{note}")
    return 0


def _cmd_delete(args: argparse.Namespace) -> int:
    # Arguments first: a usage error must not leave a recovered WAL open.
    try:
        oids = [int(v) for v in args.oids.split(",") if v]
    except ValueError:
        print("error: --oids needs comma-separated integers", file=sys.stderr)
        return 2
    if not oids:
        print("error: --oids needs at least one oid", file=sys.stderr)
        return 2
    engine = _open_for_update(args)
    if engine is None:
        return 2
    deleted, missing = [], []
    for oid in oids:
        (deleted if engine.delete(oid) else missing).append(oid)
    if deleted or args.out or args.wal:
        # Nothing deleted, no destination, no log: skip the rewrite.
        persist_note = _persist_updated(engine, args)
    else:
        persist_note = ""
    note = f" (not live: {missing})" if missing else ""
    print(f"deleted {len(deleted)} objects{note}; "
          f"{_segmented_summary(engine)}{persist_note}")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    engine = _open_for_update(args)
    if engine is None:
        return 2
    started = time.perf_counter()
    engine.compact()
    elapsed = time.perf_counter() - started
    note = _persist_updated(engine, args)
    print(f"compacted in {elapsed:.1f}s; {_segmented_summary(engine)}{note}")
    return 0


def _recovery_summary(engine: DurableSegmentedSealSearch) -> str:
    report = engine.recovery
    torn = (
        f", {report['torn_bytes_dropped']} torn tail bytes dropped"
        if report["torn_bytes_dropped"]
        else ""
    )
    return (
        f"recovered {report['live']} live objects from {report['source']} "
        f"({report['records_replayed']} WAL records replayed{torn})"
    )


def _cmd_recover(args: argparse.Namespace) -> int:
    engine = recover_engine(args.engine, args.wal, sync=args.wal_sync)
    print(f"{_recovery_summary(engine)}; {_segmented_summary(engine)}")
    if args.no_checkpoint:
        engine.close()
        return 0
    target = args.out or args.engine
    engine.checkpoint(target)
    engine.close()
    print(f"checkpointed to {target}; WAL {args.wal} truncated")
    return 0


def _print_answers(i: int, result, show: int) -> str:
    shown = result.answers[:show]
    more = f" (+{len(result) - len(shown)} more)" if len(result) > len(shown) else ""
    return f"query {i}: {len(result)} answers {shown}{more}"


def _service_summary(service: QueryService) -> str:
    metrics = service.metrics()
    cache = metrics["cache"]
    latency = metrics["latency_ms"]
    hit_note = (
        f"cache hits {cache['hits']}/{cache['hits'] + cache['misses']} "
        f"({100.0 * cache['hit_rate']:.0f}%)"
        if cache is not None
        else "cache off"
    )
    return (
        f"service: epoch {metrics['epoch']}, {hit_note}, "
        f"p50 {latency['p50_ms']:.2f} ms, p99 {latency['p99_ms']:.2f} ms, "
        f"rejected {metrics['admission']['rejected']}"
    )


def _plan_summary(decision: dict) -> str:
    """One planner decision: the chosen member, the branch of the rule
    that fired and why (``query --explain`` and ``plan`` print the same
    text)."""
    return f"{decision['chosen']}  [{decision['branch']}: {decision['why']}]"


def _planner_of(engine, path: str):
    """The planner that explains ``engine``'s dispatch, or ``None`` after
    printing why there is none.  A segmented planned engine embeds one
    per full-tier segment; they share the rule, so the first one
    explains for all."""
    from repro.exec.planner import iter_planners

    planner = next(iter_planners(engine), None)
    if planner is None:
        hint = "rebuild it as a planned engine (build --method planned)"
        if isinstance(engine, SegmentedSealSearch) and engine.config()["method"] == "planned":
            hint = ("every segment is below the size from which a segmented "
                    "engine builds its configured method (see `inspect`)")
        print(f"error: {path} holds no query planner; {hint}", file=sys.stderr)
    return planner


def _queries_from_args(args: argparse.Namespace, alternatives: str) -> List[Query] | None:
    """The ``--queries`` workload, else the one query spelled by
    ``--region/--tokens/--tau-r/--tau-t``; ``None`` after printing the
    usage error (``alternatives`` names the command's other inputs)."""
    if args.queries:
        return load_queries(args.queries)
    if not args.region or args.tokens is None:
        print(f"error: provide --region and --tokens, {alternatives}", file=sys.stderr)
        return None
    region = _parse_region(args.region)
    if region is None:
        print("error: --region needs x1,y1,x2,y2", file=sys.stderr)
        return None
    tokens = frozenset(t for t in args.tokens.split(",") if t)
    return [Query(region, tokens, args.tau_r, args.tau_t)]


def _cmd_query(args: argparse.Namespace) -> int:
    engine = load_engine(args.engine, mmap=args.mmap)
    planner = None
    if args.explain:
        planner = _planner_of(engine, args.engine)
        if planner is None:
            return 2
    service = QueryService(engine) if args.via_service else None
    try:
        if args.batch_file:
            queries = load_queries(args.batch_file)
            started = time.perf_counter()
            if service is not None:
                results = service.query_batch(queries)
            else:
                results = BatchExecutor().run(engine, queries).results
            elapsed = time.perf_counter() - started
            for i, result in enumerate(results):
                print(_print_answers(i, result, args.show))
                if planner is not None:
                    print(f"  plan: {_plan_summary(planner.explain(queries[i]))}")
            qps = len(results) / elapsed if elapsed else 0.0
            mean_ms = 1000.0 * elapsed / len(results) if results else 0.0
            print(f"batch: {len(results)} queries in {elapsed:.3f}s "
                  f"({qps:.0f} q/s, {mean_ms:.2f} ms/query)")
            if service is not None:
                print(_service_summary(service))
            return 0
        queries = _queries_from_args(args, "--queries, or --batch-file")
        if queries is None:
            return 2
        for i, query in enumerate(queries):
            if service is not None:
                result = service.query(query)
            else:
                result = run_query(engine, query)
            print(f"{_print_answers(i, result, args.show)} — "
                  f"{1000 * result.stats.total_seconds:.2f} ms, "
                  f"{result.stats.candidates} candidates")
            if planner is not None:
                print(f"  plan: {_plan_summary(planner.explain(query))}")
        if service is not None:
            print(_service_summary(service))
        return 0
    finally:
        if service is not None:
            service.close()


def _cmd_plan(args: argparse.Namespace) -> int:
    import json

    planner = _planner_of(load_engine(args.engine), args.engine)
    if planner is None:
        return 2
    queries = _queries_from_args(args, "or --queries")
    if queries is None:
        return 2

    document = {
        "engine": args.engine,
        "queries": [planner.explain(query) for query in queries],
    }
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    tally: dict = {}
    for i, decision in enumerate(document["queries"]):
        tally[decision["chosen"]] = tally.get(decision["chosen"], 0) + 1
        print(f"query {i}: -> {_plan_summary(decision)}")
    if len(queries) > 1:
        summary = ", ".join(f"{name}: {count}" for name, count in sorted(tally.items()))
        print(f"selections over {len(queries)} queries: {summary}")
    return 0


def _service_config(args: argparse.Namespace) -> dict:
    """The QueryService keyword arguments every serve mode shares."""
    return {
        "enable_cache": not args.no_cache,
        "cache_capacity": args.cache_capacity,
        "workers": args.workers,
        "max_queue": args.max_queue,
        "default_deadline": (
            args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
        ),
    }


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    if args.deadline_ms is not None and args.deadline_ms <= 0:
        print("error: --deadline-ms must be positive", file=sys.stderr)
        return 2
    if args.replica_of:
        if not args.net:
            print("error: --replica-of requires --net", file=sys.stderr)
            return 2
        if args.wal:
            print("error: a replica keeps no local WAL; it resumes from its "
                  "state directory and the primary's log", file=sys.stderr)
            return 2
        return _serve_replica(args)
    if args.replicate and not args.net:
        print("error: --replicate requires --net", file=sys.stderr)
        return 2
    if args.net:
        return _serve_net(args)
    if not args.queries:
        print("error: --queries is required without --net", file=sys.stderr)
        return 2
    # Arguments first: a usage error must not leave a recovered WAL open.
    if args.threads < 1 or args.repeat < 1:
        print("error: --threads and --repeat must be positive", file=sys.stderr)
        return 2
    queries = load_queries(args.queries)
    if not queries:
        print("error: the workload file holds no queries", file=sys.stderr)
        return 2
    if args.wal:
        engine = recover_engine(args.engine, args.wal, sync=args.wal_sync, mmap=args.mmap)
        print(_recovery_summary(engine))
    else:
        engine = load_engine(args.engine, mmap=args.mmap)
    service = QueryService(engine, **_service_config(args))
    failures: List[BaseException] = []

    def client() -> None:
        try:
            for _ in range(args.repeat):
                for query in queries:
                    service.query(query)
        except BaseException as exc:  # surfaced after the join, loudly
            failures.append(exc)

    total = args.threads * args.repeat * len(queries)
    print(f"serving {type(engine).__name__} to {args.threads} client threads "
          f"× {args.repeat} repeats × {len(queries)} queries "
          f"(cache {'off' if args.no_cache else 'on'}, {args.workers} workers)")
    started = time.perf_counter()
    try:
        # The context manager is the teardown guarantee: the service
        # stops admitting on every exit path (checkpoint failure
        # included).
        with service:
            threads = [
                threading.Thread(target=client, name=f"client-{i}")
                for i in range(args.threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            if args.wal and not failures:
                # Clean shutdown is the natural checkpoint boundary: the
                # replayed tail (and any recovery repair) lands in the
                # snapshot and the log resets — the next recovery starts
                # from here.
                service.checkpoint()
                print(f"checkpointed to {engine.snapshot_path}; WAL {args.wal} truncated")
    finally:
        if args.wal:
            engine.close()
    if failures:
        print(f"error: {len(failures)} client(s) failed: {failures[0]}", file=sys.stderr)
        return 2
    qps = total / elapsed if elapsed else 0.0
    print(f"served {total} requests in {elapsed:.3f}s ({qps:.0f} q/s)")
    print(_service_summary(service))
    metrics_text = service.metrics_json()
    if args.metrics_out:
        # Atomic + fsynced: a crash mid-write must never leave truncated
        # JSON for whatever scrapes this file.
        atomic_write_text(args.metrics_out, metrics_text + "\n")
        print(f"metrics JSON written to {args.metrics_out}")
    else:
        print(metrics_text)
    return 0


def _install_stop_signals(stop) -> None:
    """SIGINT/SIGTERM set the event (main thread only — tests call the
    serve handlers from worker threads, where signal() would raise)."""
    import signal
    import threading

    def on_signal(signum, frame) -> None:
        stop.set()

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGINT, on_signal)
        signal.signal(signal.SIGTERM, on_signal)


def _wait_until_stopped(stop, max_seconds) -> None:
    deadline = time.monotonic() + max_seconds if max_seconds is not None else None
    while not stop.is_set():
        if deadline is not None and time.monotonic() >= deadline:
            return
        time.sleep(0.2)


def _serve_primary(args: argparse.Namespace) -> int:
    """A single durable process shipping its WAL to subscribing replicas."""
    import threading

    from repro.service import NetworkServer, QueryService, ReplicationPrimary

    if not args.wal:
        print("error: --replicate requires --wal (replication ships the "
              "write-ahead log)", file=sys.stderr)
        return 2
    durable = recover_engine(args.engine, args.wal, sync=args.wal_sync, mmap=args.mmap)
    print(_recovery_summary(durable))
    stop = threading.Event()
    _install_stop_signals(stop)
    service = QueryService(durable, **_service_config(args))
    replication = ReplicationPrimary(durable)
    service.replication = replication
    try:
        with service, NetworkServer(service, host=args.host, port=args.port) as server:
            host, port = server.address
            position = durable.stable_position
            print(f"listening on {host}:{port} — durable primary shipping WAL "
                  f"generation {position['generation']} (replicas join with "
                  f"--replica-of {host}:{port})", flush=True)
            _wait_until_stopped(stop, args.max_seconds)
            status = replication.status()
            print(f"shipped {status['records_shipped']} records over "
                  f"{status['shipments']} shipments to "
                  f"{len(status['replicas'])} replica(s)")
            service.checkpoint()
            print(f"checkpointed to {durable.snapshot_path}; "
                  f"WAL {args.wal} truncated")
    finally:
        durable.close()
    return 0


def _serve_replica(args: argparse.Namespace) -> int:
    """A read replica: tail the primary's WAL, serve queries locally."""
    import threading
    from pathlib import Path

    from repro.service import NetworkServer
    from repro.service.replication import ReplicaApplier

    host, _, port_text = args.replica_of.rpartition(":")
    if not host or not port_text.isdigit():
        print("error: --replica-of takes HOST:PORT", file=sys.stderr)
        return 2
    stop = threading.Event()
    _install_stop_signals(stop)
    applier = ReplicaApplier(
        host,
        int(port_text),
        root=Path(args.engine),
        poll_interval=args.replica_poll,
        checkpoint_records=args.replica_checkpoint_records,
        mmap=args.mmap,
        service_config=_service_config(args),
    )
    try:
        applier.start()
    except (SealError, OSError) as exc:
        print(f"error: could not bootstrap from {args.replica_of}: {exc}",
              file=sys.stderr)
        return 2
    try:
        service = applier.service
        # Route repl-* ops to the applier: it refuses them loudly (no
        # chained replication), and metrics gain the replica block.
        service.replication = applier
        with service, NetworkServer(
            service, host=args.host, port=args.port, generation=applier.generation
        ) as server:
            bind_host, bind_port = server.address
            status = applier.status()
            print(f"replica {status['replica']} bootstrapped via "
                  f"{status['source']} at generation {status['generation']}, "
                  f"offset {status['offset']}")
            print(f"listening on {bind_host}:{bind_port} — read replica "
                  f"tailing {args.replica_of} "
                  f"(cache {'off' if args.no_cache else 'on'})", flush=True)
            _wait_until_stopped(stop, args.max_seconds)
    finally:
        applier.stop()
    status = applier.status()
    print(f"replica stopped at generation {status['generation']}, offset "
          f"{status['offset']}: {status['applied_records']} records applied "
          f"over {status['shipments']} shipments, "
          f"{status['bootstraps']} bootstrap(s)")
    return 0


def _serve_net(args: argparse.Namespace) -> int:
    """The multi-process network server: publish, fork, serve, drain."""
    import threading
    from pathlib import Path

    from repro.io.generations import publish_snapshot
    from repro.service import ProcessSupervisor

    if args.replicate:
        return _serve_primary(args)
    if args.workers_procs < 1:
        print("error: --workers-procs must be positive", file=sys.stderr)
        return 2
    engine_path = Path(args.engine)
    if args.wal:
        # Boot from the recovered checkpoint: replay the WAL tail into
        # the snapshot first, so workers memory-map the exact pre-crash
        # state (PR 5's recover path feeding PR 6's workers).
        durable = recover_engine(args.engine, args.wal, sync=args.wal_sync)
        print(_recovery_summary(durable))
        durable.checkpoint()
        durable.close()
        print(f"checkpointed to {engine_path}; WAL {args.wal} truncated")
    serving_dir = (
        Path(args.serving_dir)
        if args.serving_dir
        else engine_path.with_name(engine_path.name + ".serving")
    )
    generation, snapshot = publish_snapshot(serving_dir, source_path=engine_path)
    stop = threading.Event()
    _install_stop_signals(stop)
    supervisor = ProcessSupervisor(
        serving_dir,
        workers=args.workers_procs,
        host=args.host,
        port=args.port,
        service_config=_service_config(args),
    )
    with supervisor:
        host, port = supervisor.address
        print(f"published generation {generation} ({snapshot}) in {serving_dir}")
        print(f"listening on {host}:{port} — {args.workers_procs} worker "
              f"processes over one mmap-shared snapshot "
              f"(cache {'off' if args.no_cache else 'on'}, "
              f"{args.workers} threads/worker)", flush=True)
        _wait_until_stopped(stop, args.max_seconds)
    print(f"drained: generation {supervisor.generation}, "
          f"{supervisor.respawns} worker respawns")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import threading

    from repro.core.errors import ProtocolError
    from repro.service import NetworkClient

    queries = load_queries(args.queries)
    if not queries:
        print("error: the workload file holds no queries", file=sys.stderr)
        return 2
    if args.connections < 1 or args.repeat < 1:
        print("error: --connections and --repeat must be positive", file=sys.stderr)
        return 2
    expected = None
    if args.oracle:
        oracle = load_engine(args.oracle)
        expected = [run_query(oracle, query).answers for query in queries]
    failures: List[str] = []
    mismatches: List[str] = []
    reconnects = [0]
    lock = threading.Lock()

    def drive(connection_id: int) -> None:
        client: NetworkClient | None = None
        try:
            client = NetworkClient(args.host, args.port, timeout=args.timeout)
            for _ in range(args.repeat):
                for i, query in enumerate(queries):
                    for attempt in (1, 2, 3):
                        try:
                            result = client.query(query)
                            break
                        except ProtocolError:
                            # Worker recycled or crashed mid-conversation:
                            # reconnect and retry — loud past 3 strikes.
                            client.close()
                            if attempt == 3:
                                raise
                            time.sleep(0.2 * attempt)
                            client = NetworkClient(
                                args.host, args.port, timeout=args.timeout
                            )
                            with lock:
                                reconnects[0] += 1
                    if expected is not None and result.answers != expected[i]:
                        with lock:
                            mismatches.append(
                                f"query {i}: got {result.answers[:8]}, "
                                f"oracle {expected[i][:8]}"
                            )
        except Exception as exc:  # noqa: BLE001 - reported after the join
            with lock:
                failures.append(f"connection {connection_id}: {exc}")
        finally:
            if client is not None:
                client.close()

    total = args.connections * args.repeat * len(queries)
    started = time.perf_counter()
    threads = [
        threading.Thread(target=drive, args=(i,), name=f"net-client-{i}")
        for i in range(args.connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    qps = total / elapsed if elapsed else 0.0
    note = f", {reconnects[0]} reconnects" if reconnects[0] else ""
    print(f"drove {total} requests over {args.connections} connections "
          f"in {elapsed:.3f}s ({qps:.0f} q/s{note})")
    if failures:
        print(f"error: {len(failures)} connection(s) failed: {failures[0]}",
              file=sys.stderr)
        return 2
    if mismatches:
        print(f"error: {len(mismatches)} answer(s) diverged from the oracle: "
              f"{mismatches[0]}", file=sys.stderr)
        return 2
    if expected is not None:
        print(f"all {total} answers identical to the {args.oracle} oracle")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    objects = load_corpus(args.corpus)
    weighter = TokenWeighter(obj.tokens for obj in objects)
    names: List[str] = [m.strip() for m in args.methods.split(",") if m.strip()]
    taus = [float(v) for v in args.taus.split(",")]
    workload = generate_queries(
        objects, args.kind, num_queries=args.num_queries, seed=args.seed
    )
    series = {}
    for name in names:
        method = build_method(objects, name, weighter)
        series[name] = run_sweep(method, list(workload), taus, args.axis)
    print(format_series_table(
        f"{args.kind}-region queries over {args.corpus}, vary {args.axis} (ms/query)",
        args.axis,
        series,
    ))
    print()
    print(format_series_table("candidates per query", args.axis, series, metric="candidates"))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import (
        LintDriver,
        describe_rules,
        render_json,
        render_text,
    )

    if args.list_rules:
        width = max(len(row["rule"]) for row in describe_rules())
        for row in describe_rules():
            print(f"{row['rule']:<{width}}  {row['description']}")
        return 0
    rules = None
    if args.rules:
        rules = [name.strip() for name in args.rules.split(",") if name.strip()]
    try:
        driver = LintDriver(rules=rules)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings, checked = driver.lint_paths(args.paths)
    if args.as_json:
        print(render_json(findings, checked))
    else:
        print(render_text(findings, checked))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
