"""Command-line interface: generate, inspect, build, query, sweep.

Everything the library does, scriptable without writing Python::

    seal-repro generate twitter --num-objects 5000 --out corpus.jsonl \\
        --queries queries.jsonl --kind small
    seal-repro stats corpus.jsonl
    seal-repro inspect engine.pkl
    seal-repro build corpus.jsonl --method seal --out engine.pkl
    seal-repro build corpus.jsonl --method seal --segmented \\
        --out live.pkl
    seal-repro build corpus.jsonl --method seal --segmented \\
        --out live.pkl --wal live.wal --wal-sync batch
    seal-repro recover live.pkl --wal live.wal
    seal-repro query engine.pkl --region 10,10,20,20 --tokens coffee,tea \\
        --tau-r 0.3 --tau-t 0.3
    seal-repro query engine.pkl --queries queries.jsonl
    seal-repro query engine.pkl --queries queries.jsonl --explain
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

Every refusal leaves through one path: a handler raises
:class:`CommandError` (or the library raises a :class:`SealError`), and
:func:`main` prints ``error: <message>`` on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro import Query, Rect, SealError, TokenWeighter, build_method
from repro.bench import format_series_table, sweep as run_sweep
from repro.core.engine import METHOD_REGISTRY, check_params
from repro.core.errors import ProtocolError
from repro.core.stats import SearchStats
from repro.datasets import generate_queries, generate_twitter, generate_usa
from repro.exec.durable import DurableSegmentedSealSearch, recover as recover_engine
from repro.exec.pipeline import BatchExecutor, run_query
from repro.exec.planner import WHY
from repro.exec.segments import SegmentedSealSearch
from repro.geometry.rect import mbr_of
from repro.io import (
    atomic_write_text,
    load_corpus,
    load_engine,
    load_queries,
    save_corpus,
    save_engine,
    save_queries,
    validate_snapshot,
)
from repro.io.snapshot import sidecar_path
from repro.io.wal import SYNC_POLICIES, WriteAheadLog
from repro.service import (
    NetworkClient,
    NetworkServer,
    ProcessSupervisor,
    QueryService,
    ReplicaApplier,
    ReplicationPrimary,
)
from repro.service.metrics import PLANNED
from repro.service.replication import REPLICA_SNAPSHOT_NAME, read_replica_status

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


class CommandError(SealError):
    """A command refused its arguments or could not finish its work."""


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (SealError, FileNotFoundError) as exc:
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
             "WAL lineage, segment/tombstone manifest, sidecar — or a replica "
             "state directory's tailing status",
    )
    inspect_cmd.add_argument("snapshot", help="snapshot path or replica state directory")
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
        build.add_argument(_flag(name), type=type_, default=None)
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
    query.add_argument("--region", help="x1,y1,x2,y2 of a single query")
    query.add_argument("--tokens", help="comma-separated tokens of that query")
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
        help="print under each answer line what ran, as the result records "
             "it: method label and candidates, one line per segment and the "
             "write buffer of a segmented engine",
    )
    query.set_defaults(handler=_cmd_query)

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
             "memory-mapping the engine snapshot (shared page cache, "
             "parallel across cores)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind interface (--net)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port; 0 picks a free one and prints it (--net)")
    serve.add_argument("--workers-procs", type=int, default=2,
                       help="worker processes sharing the listening socket (--net)")
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
# Argument helpers
# ----------------------------------------------------------------------


def _flag(name: str) -> str:
    """The command-line spelling of an ``args`` attribute."""
    return "--" + name.replace("_", "-")


def _csv(text: str) -> List[str]:
    """The non-empty items of a comma-separated flag value."""
    return [item.strip() for item in text.split(",") if item.strip()]


def _given(args: argparse.Namespace, names) -> dict:
    """The flags among ``names`` the command line set."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _require_positive(args: argparse.Namespace, *names: str) -> None:
    """Refuse unless every named numeric flag is above zero."""
    if any(getattr(args, name) <= 0 for name in names):
        raise CommandError(f"{' and '.join(map(_flag, names))} must be positive")


def _region_and_tokens(args: argparse.Namespace, missing: str) -> Tuple[Rect, frozenset]:
    """The region and token set spelled by ``--region x1,y1,x2,y2`` and
    ``--tokens a,b`` (``missing`` is the error when either is absent)."""
    if not args.region or args.tokens is None:
        raise CommandError(missing)
    try:
        region = Rect(*(float(v) for v in args.region.split(",")))
    except (TypeError, ValueError):
        raise CommandError("--region needs x1,y1,x2,y2") from None
    return region, frozenset(_csv(args.tokens))


def _workload(path: str) -> List[Query]:
    """A query workload a command needs at least one query of."""
    queries = load_queries(path)
    if not queries:
        raise CommandError("the workload file holds no queries")
    return queries


def _print_json(document: dict) -> None:
    print(json.dumps(document, indent=2, sort_keys=True))


def _rate(count: int, elapsed: float) -> float:
    return count / elapsed if elapsed else 0.0


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
    path = Path(args.snapshot)
    document: dict = {}
    if path.is_dir():
        # A replica state directory: report the tailing status, then
        # inspect the local resume checkpoint (if one landed yet).
        replica_status = read_replica_status(path)
        if replica_status is None:
            raise CommandError(f"{path} is a directory but no replica state directory")
        document["replica"] = replica_status
        path = path / REPLICA_SNAPSHOT_NAME
    if "replica" in document and not path.exists():
        document["snapshot"] = None
    else:
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
        _print_json(document)
        return 0
    if "replica" in document:
        _print_replica_status(document["replica"])
    if document["snapshot"] is None:
        print("snapshot:           none (no local checkpoint yet)")
        return 0
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
    params = _given(args, _METHOD_PARAMS)
    # Knobs are method-specific: a flag the method (for ``planned``, both
    # of its members) has no use for is an error, not a constructor
    # TypeError traceback and not a silent no-op.
    check_params(args.method, params)
    knobs = _given(args, ("buffer_capacity", "merge_fanout"))
    if knobs and not args.segmented:
        raise CommandError("--buffer-capacity/--merge-fanout require --segmented")
    if args.wal and not args.segmented:
        raise CommandError("--wal requires --segmented (only the updatable engine "
                           "takes mutations to log)")
    started = time.perf_counter()
    if args.segmented:
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


def _segmented_summary(engine) -> str:
    return (
        f"{len(engine)} live objects, {engine.num_segments} segments, "
        f"{engine.pending} buffered, {engine.tombstones} tombstones"
    )


def _mutate(args: argparse.Namespace, mutation: Callable[..., Tuple[str, bool]]) -> int:
    """The one path of ``update``, ``delete`` and ``compact``: open the
    engine, apply ``mutation``, make it durable, print one line.

    Without ``--wal`` the engine is the plain snapshot's, and a mutation
    rewrites the whole snapshot (at ``--out`` if given).  With ``--wal``
    it is recovered from ``snapshot + WAL tail``: mutations append to the
    log at O(1) cost and leave the snapshot alone (the durability win),
    unless ``--out`` asks for a checkpoint.  ``mutation(engine)`` returns
    its report and whether there is anything to persist.
    """
    if args.wal:
        engine = recover_engine(args.engine, args.wal, sync=args.wal_sync)
    else:
        engine = load_engine(args.engine)
        if not isinstance(engine, SegmentedSealSearch):
            raise CommandError(f"{args.engine} does not hold a segmented engine; "
                               "rebuild it with `build --segmented`")
    note = ""
    try:
        report, persist = mutation(engine)
        if persist and args.wal and args.out:
            engine.checkpoint(args.out)
            note = f"; checkpointed to {args.out} (WAL truncated)"
        elif persist and args.wal:
            note = f"; logged to {args.wal} (snapshot unchanged)"
        elif persist:
            save_engine(engine, args.out or args.engine)
    finally:
        if args.wal:
            engine.close()  # syncs pending appends
    print(f"{report}; {_segmented_summary(engine)}{note}")
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    # Arguments first: a usage error must not leave a recovered WAL open.
    if not args.from_corpus and not args.region and args.tokens is None:
        raise CommandError("provide --region/--tokens and/or --from")
    inserts: List[tuple] = []
    if args.from_corpus:
        inserts.extend((obj.region, obj.tokens) for obj in load_corpus(args.from_corpus))
    if args.region or args.tokens is not None:
        inserts.append(_region_and_tokens(args, "--region and --tokens go together"))

    def insert(engine) -> Tuple[str, bool]:
        if not inserts:
            # An explicitly-given --from file that held zero objects is a
            # successful no-op, not a usage error.
            return f"inserted 0 objects ({args.from_corpus} is empty)", False
        oids = [engine.insert(region, tokens) for region, tokens in inserts]
        span = f"oid {oids[0]}" if len(oids) == 1 else f"oids {oids[0]}..{oids[-1]}"
        return f"inserted {len(oids)} objects ({span})", True

    return _mutate(args, insert)


def _cmd_delete(args: argparse.Namespace) -> int:
    # Arguments first: a usage error must not leave a recovered WAL open.
    try:
        oids = [int(v) for v in _csv(args.oids)]
    except ValueError:
        raise CommandError("--oids needs comma-separated integers") from None
    if not oids:
        raise CommandError("--oids needs at least one oid")

    def delete(engine) -> Tuple[str, bool]:
        deleted, missing = [], []
        for oid in oids:
            (deleted if engine.delete(oid) else missing).append(oid)
        note = f" (not live: {missing})" if missing else ""
        # Nothing deleted, no destination, no log: skip the rewrite.
        return f"deleted {len(deleted)} objects{note}", bool(deleted or args.out or args.wal)

    return _mutate(args, delete)


def _cmd_compact(args: argparse.Namespace) -> int:
    def compact(engine) -> Tuple[str, bool]:
        started = time.perf_counter()
        engine.compact()
        return f"compacted in {time.perf_counter() - started:.1f}s", True

    return _mutate(args, compact)


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


def _recovered(args: argparse.Namespace, mmap: bool = False) -> DurableSegmentedSealSearch:
    """The engine ``snapshot + WAL tail`` replays into a serve mode's."""
    engine = recover_engine(args.engine, args.wal, sync=args.wal_sync, mmap=mmap)
    print(_recovery_summary(engine))
    return engine


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


def _answers_line(i: int, result, show: int) -> str:
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


def _ran_line(stats: SearchStats) -> str:
    """What one source's stats record of its run: the method label and
    the candidate count, a ``planned:<member>`` label glossed by why the
    threshold rule picks that member."""
    line = f"  ran: {stats.method}, {stats.candidates} candidates"
    if stats.method.startswith(PLANNED):
        line += f" ({WHY[stats.method[len(PLANNED):]]})"
    return line


def _cmd_query(args: argparse.Namespace) -> int:
    engine = load_engine(args.engine, mmap=args.mmap)
    service = QueryService(engine) if args.via_service else None
    try:
        if args.batch_file:
            queries = load_queries(args.batch_file)
            started = time.perf_counter()
            if service is not None:
                results = service.query_batch(queries)
            else:
                results = BatchExecutor().run(engine, queries)
            elapsed = time.perf_counter() - started
        else:
            if args.queries:
                queries = load_queries(args.queries)
            else:
                region, tokens = _region_and_tokens(
                    args, "provide --region and --tokens, --queries, or --batch-file"
                )
                queries = [Query(region, tokens, args.tau_r, args.tau_t)]
            run = service.query if service is not None else lambda q: run_query(engine, q)
            results = [run(query) for query in queries]
        for i, result in enumerate(results):
            line = _answers_line(i, result, args.show)
            if not args.batch_file:
                line += (f" — {1000 * result.stats.total_seconds:.2f} ms, "
                         f"{result.stats.candidates} candidates")
            print(line)
            if args.explain:
                # A segmented engine keeps each source's stats, in source
                # order (its segments, then the write buffer).
                for stats in result.stats.per_source or (result.stats,):
                    print(_ran_line(stats))
        if args.batch_file:
            mean_ms = 1000.0 * elapsed / len(results) if results else 0.0
            print(f"batch: {len(results)} queries in {elapsed:.3f}s "
                  f"({_rate(len(results), elapsed):.0f} q/s, {mean_ms:.2f} ms/query)")
        if service is not None:
            print(_service_summary(service))
        return 0
    finally:
        if service is not None:
            service.close()


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


def _run_threads(count: int, target: Callable[[int], None], name: str) -> float:
    """Run ``target(i)`` on ``count`` threads; the seconds until all joined."""
    started = time.perf_counter()
    threads = [
        threading.Thread(target=target, args=(i,), name=f"{name}-{i}")
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


def _stop_event() -> threading.Event:
    """The event a ``serve --net`` mode waits on (``--max-seconds`` bounds
    the wait): SIGINT/SIGTERM set it.  Handlers go in on the main thread
    only — tests call the serve handlers from worker threads, where
    signal() would raise — and before any fork, so forked workers
    inherit them rather than the default dispositions."""
    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, lambda *_: stop.set())
    return stop


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.deadline_ms is not None:
        _require_positive(args, "deadline_ms")
    for mode in ("replica_of", "replicate"):
        if getattr(args, mode) and not args.net:
            raise CommandError(f"{_flag(mode)} requires --net")
    if args.replica_of:
        if args.wal:
            raise CommandError("a replica keeps no local WAL; it resumes from its "
                               "state directory and the primary's log")
        return _serve_replica(args)
    if args.replicate:
        return _serve_primary(args)
    if args.net:
        return _serve_net(args)
    if not args.queries:
        raise CommandError("--queries is required without --net")
    # Arguments first: a usage error must not leave a recovered WAL open.
    _require_positive(args, "threads", "repeat")
    queries = _workload(args.queries)
    if args.wal:
        engine = _recovered(args, mmap=args.mmap)
    else:
        engine = load_engine(args.engine, mmap=args.mmap)
    service = QueryService(engine, **_service_config(args))
    failures: List[BaseException] = []

    def client(thread_id: int) -> None:
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
    try:
        # The context manager is the teardown guarantee: the service
        # stops admitting on every exit path (checkpoint failure
        # included).
        with service:
            elapsed = _run_threads(args.threads, client, "client")
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
        raise CommandError(f"{len(failures)} client(s) failed: {failures[0]}")
    print(f"served {total} requests in {elapsed:.3f}s ({_rate(total, elapsed):.0f} q/s)")
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


def _serve_primary(args: argparse.Namespace) -> int:
    """A single durable process shipping its WAL to subscribing replicas."""
    if not args.wal:
        raise CommandError("--replicate requires --wal (replication ships the "
                           "write-ahead log)")
    durable = _recovered(args, mmap=args.mmap)
    stop = _stop_event()
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
            stop.wait(args.max_seconds)
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
    host, _, port_text = args.replica_of.rpartition(":")
    if not host or not port_text.isdigit():
        raise CommandError("--replica-of takes HOST:PORT")
    stop = _stop_event()
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
        raise CommandError(f"could not bootstrap from {args.replica_of}: {exc}") from exc
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
            stop.wait(args.max_seconds)
    finally:
        applier.stop()
    status = applier.status()
    print(f"replica stopped at generation {status['generation']}, offset "
          f"{status['offset']}: {status['applied_records']} records applied "
          f"over {status['shipments']} shipments, "
          f"{status['bootstraps']} bootstrap(s)")
    return 0


def _serve_net(args: argparse.Namespace) -> int:
    """The multi-process network server: fork, serve, drain."""
    _require_positive(args, "workers_procs")
    engine_path = Path(args.engine)
    if args.wal:
        # Boot from the recovered checkpoint: replay the WAL tail into
        # the snapshot first, so workers memory-map the exact pre-crash
        # state.
        durable = _recovered(args)
        durable.checkpoint()
        durable.close()
        print(f"checkpointed to {engine_path}; WAL {args.wal} truncated")
    stop = _stop_event()
    supervisor = ProcessSupervisor(
        engine_path,
        workers=args.workers_procs,
        host=args.host,
        port=args.port,
        service_config=_service_config(args),
    )
    with supervisor:
        host, port = supervisor.address
        print(f"listening on {host}:{port} — {args.workers_procs} worker "
              f"processes over one mmap-shared snapshot {engine_path} "
              f"(cache {'off' if args.no_cache else 'on'}, "
              f"{args.workers} threads/worker)", flush=True)
        stop.wait(args.max_seconds)
    print(f"drained: {supervisor.respawns} worker respawns")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    queries = _workload(args.queries)
    _require_positive(args, "connections", "repeat")
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
                            # Worker drained or crashed mid-conversation:
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
    elapsed = _run_threads(args.connections, drive, "net-client")
    note = f", {reconnects[0]} reconnects" if reconnects[0] else ""
    print(f"drove {total} requests over {args.connections} connections "
          f"in {elapsed:.3f}s ({_rate(total, elapsed):.0f} q/s{note})")
    if failures:
        raise CommandError(f"{len(failures)} connection(s) failed: {failures[0]}")
    if mismatches:
        raise CommandError(f"{len(mismatches)} answer(s) diverged from the oracle: "
                           f"{mismatches[0]}")
    if expected is not None:
        print(f"all {total} answers identical to the {args.oracle} oracle")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require_positive(args, "num_queries")
    taus = [float(v) for v in _csv(args.taus)]
    methods = _csv(args.methods)
    if not taus:
        raise CommandError("--taus needs at least one threshold")
    if not methods:
        raise CommandError("--methods needs at least one method")
    objects = load_corpus(args.corpus)
    weighter = TokenWeighter(obj.tokens for obj in objects)
    workload = generate_queries(
        objects, args.kind, num_queries=args.num_queries, seed=args.seed
    )
    series = {}
    for name in methods:
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
    try:
        driver = LintDriver(rules=_csv(args.rules) if args.rules else None)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    findings, checked = driver.lint_paths(args.paths)
    if args.as_json:
        print(render_json(findings, checked))
    else:
        print(render_text(findings, checked))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
