"""Command-line interface: an XML database with generic value indices.

Examples::

    repro-xml init db --typed double dateTime --substring
    repro-xml load db persons persons.xml
    repro-xml generate db XMark1 --scale 0.2
    repro-xml stats db
    repro-xml query db '//person[.//age = 42]' --explain
    repro-xml lookup db --string ArthurDent
    repro-xml lookup db --range 40 80
    repro-xml bench figure10

(Also runnable as ``python -m repro.cli ...``.)
"""

from __future__ import annotations

import argparse
import sys

from .core.concurrency import EpochNotRetained
from .database import Database
from .errors import ReproError
from .workloads import DATASETS, collect_stats
from .workloads.stats import DatasetStats

__all__ = ["main"]


def _describe(manager, nid: int) -> str:
    doc, pre = manager.store.node(nid)
    kind = doc.kind[pre]
    if kind == 1:
        label = f"<{doc.name_of(pre)}>"
    elif kind == 2:
        label = f"text {doc.text_of(pre)!r}"
    elif kind == 3:
        label = f"@{doc.name_of(pre)}={doc.text_of(pre)!r}"
    else:
        label = "document"
    return f"  nid {nid} [{doc.name}] {label}"


def _open(path: str, retain_epochs: int = 0) -> Database:
    """Open an existing database (WAL recovery included)."""
    import os

    if not os.path.exists(os.path.join(path, "MANIFEST.json")):
        raise ReproError(f"no database at {path!r}; run 'init' first")
    db = Database(path, retain_epochs=retain_epochs)
    if db.recovered_records:
        print(f"(recovered {db.recovered_records} update(s) from the WAL)")
    report = db.recovery
    details = []
    if report.skipped_epoch:
        details.append(f"{report.skipped_epoch} already-checkpointed "
                       "record(s) skipped")
    if report.rejected_crc:
        details.append(f"{report.rejected_crc} record(s) rejected by CRC")
    if report.torn_tail:
        details.append("torn tail discarded")
    if details:
        print(f"(WAL recovery: {'; '.join(details)})")
    return db


def cmd_init(args) -> int:
    Database(
        args.db,
        string=not args.no_string,
        typed=tuple(args.typed),
        substring=args.substring,
    ).close()
    print(f"initialised empty database at {args.db}")
    return 0


def _is_cluster(path: str) -> bool:
    from .shard.manifest import ShardingManifest

    return ShardingManifest.exists(path)


def _open_cluster(path: str):
    """Spin up the workers of an existing shard cluster directory."""
    from .shard import ShardCluster

    return ShardCluster(path).start()


def cmd_load(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        xml = fh.read()
    if _is_cluster(args.db):
        with _open_cluster(args.db) as cluster:
            shard = cluster.load(args.name, xml)
        print(f"loaded {args.name!r} onto shard {shard}")
        return 0
    with _open(args.db) as db:
        doc = db.load(args.name, xml)
    print(f"loaded {args.name!r}: {len(doc):,} nodes")
    return 0


def cmd_generate(args) -> int:
    spec = DATASETS.get(args.dataset)
    if spec is None:
        print(f"unknown dataset {args.dataset!r}; one of {sorted(DATASETS)}",
              file=sys.stderr)
        return 2
    if _is_cluster(args.db):
        with _open_cluster(args.db) as cluster:
            shard = cluster.load(args.dataset, spec.build(args.scale))
        print(f"generated {args.dataset} onto shard {shard}")
        return 0
    with _open(args.db) as db:
        doc = db.load(args.dataset, spec.build(args.scale))
    print(f"generated {args.dataset}: {len(doc):,} nodes")
    return 0


def cmd_stats(args) -> int:
    with _open(args.db) as db:
        print(DatasetStats.header())
        for name, doc in db.store.documents.items():
            print(collect_stats(doc, name).row())
        print("\nindex sizes (modelled bytes):")
        for name, size in db.manager.index_sizes().items():
            print(f"  {name:>10}: {size:,}")
        print(f"  {'database':>10}: {db.store.byte_size():,}")
        metrics = db.metrics()
        if metrics["counters"]:
            print("\nruntime counters:")
            for name, value in metrics["counters"].items():
                print(f"  {name:>24}: {value:,}")
        if metrics["timers"]:
            print("\nruntime timers:")
            for name, timer in metrics["timers"].items():
                print(
                    f"  {name:>24}: n={timer['count']:,} "
                    f"mean={timer['mean_s'] * 1000:.3f}ms "
                    f"max={timer['max_s'] * 1000:.3f}ms"
                )
        if metrics.get("histograms"):
            print("\nruntime histograms:")
            for name, histogram in metrics["histograms"].items():
                print(
                    f"  {name:>24}: n={histogram['count']:,} "
                    f"mean={histogram['mean']:.1f} "
                    f"max={histogram['max']:.0f}"
                )
    return 0


def _parse_addr(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def cmd_query(args) -> int:
    if args.connect is not None:
        from .client import Client

        host, port = _parse_addr(args.connect)
        client = Client(host, port)
        try:
            if args.explain:
                print(client.explain(args.xpath)["summary"])
            rows = client.query_rows(args.xpath,
                                     use_indexes=not args.no_index,
                                     as_of=args.as_of)
        finally:
            client.close()
        suffix = f" as of epoch {args.as_of}" if args.as_of is not None \
            else ""
        print(f"{len(rows)} hit(s){suffix}")
        for doc, pre, nid in rows[: args.limit]:
            print(f"  [{doc}] pre {pre} (nid {nid})")
        if len(rows) > args.limit:
            print(f"  ... and {len(rows) - args.limit} more")
        return 0
    if args.db is None:
        raise ReproError("query needs a DB path or --connect HOST:PORT")
    if _is_cluster(args.db):
        with _open_cluster(args.db) as cluster:
            if args.explain:
                print(cluster.explain(args.xpath)["summary"])
            rows = cluster.query(args.xpath,
                                 use_indexes=not args.no_index)
        print(f"{len(rows)} hit(s)")
        for doc, pre, nid in rows[: args.limit]:
            print(f"  [{doc}] pre {pre} (shard nid {nid})")
        if len(rows) > args.limit:
            print(f"  ... and {len(rows) - args.limit} more")
        return 0
    manager = _open(args.db)
    if args.explain:
        explanation = manager.explain(args.xpath)
        print(f"plan: {explanation}")
        print(explanation.tree())
    try:
        hits = manager.query(args.xpath, use_indexes=not args.no_index,
                             as_of=args.as_of)
    except EpochNotRetained as exc:
        manager.close(checkpoint=False)
        raise ReproError(
            f"{exc} (epochs are per-process: as-of queries usually "
            "target a live server via --connect)"
        ) from None
    print(f"{len(hits)} hit(s)")
    for nid in hits[: args.limit]:
        print(_describe(manager, nid))
    if len(hits) > args.limit:
        print(f"  ... and {len(hits) - args.limit} more")
    manager.close(checkpoint=False)
    return 0


def cmd_lookup(args) -> int:
    manager = _open(args.db)
    if args.string is not None:
        hits = list(manager.lookup_string(args.string))
    elif args.double is not None:
        hits = list(manager.lookup_typed_equal("double", args.double))
    elif args.range is not None:
        low, high = args.range
        hits = [n for _v, n in manager.lookup_typed_range("double", low, high)]
    elif args.contains is not None:
        hits = list(manager.lookup_contains(args.contains))
    elif args.regex is not None:
        hits = list(manager.lookup_regex(args.regex))
    else:
        print("choose one of --string/--double/--range/--contains/--regex",
              file=sys.stderr)
        manager.close(checkpoint=False)
        return 2
    print(f"{len(hits)} hit(s)")
    for nid in hits[: args.limit]:
        print(_describe(manager, nid))
    manager.close(checkpoint=False)
    return 0


def cmd_update(args) -> int:
    db = _open(args.db)
    recomputed = db.update_text(args.nid, args.text)
    db.close(checkpoint=False)  # the WAL carries the update
    print(f"updated node {args.nid}; {recomputed} index entries recomputed")
    return 0


def cmd_checkpoint(args) -> int:
    with _open(args.db) as db:
        db.checkpoint()
    print("checkpoint complete; WAL truncated")
    return 0


def cmd_verify(args) -> int:
    with _open(args.db) as db:
        report = db.verify()
    print(report.summary())
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    import asyncio

    from .server import serve

    if args.shards is not None or _is_cluster(args.db):
        return _serve_cluster(args)
    db = _open(args.db, retain_epochs=args.retain_epochs)
    try:
        asyncio.run(serve(
            db, args.host, args.port,
            max_pending_updates=args.max_pending_updates,
        ))
    except KeyboardInterrupt:
        pass
    print("server drained; WAL closed")
    return 0


def _serve_cluster(args) -> int:
    """``serve --shards N``: one engine process per shard, served on
    per-shard ports (clients route/scatter via ShardCluster or talk to
    a shard directly — every port speaks the full wire protocol)."""
    import signal
    import threading

    from .shard import ShardCluster

    cluster = ShardCluster(args.db, shards=args.shards)
    cluster.start()
    for shard, (host, port) in cluster.addresses().items():
        print(f"shard {shard}: {host}:{port}")
    print(f"serving {cluster.manifest.shards} shard(s) at {args.db!r} "
          "(SIGTERM drains)")
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *_: stop.set())
        except ValueError:
            break  # non-main thread (tests): stopped programmatically
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    cluster.stop()
    print("cluster drained; WALs closed")
    return 0


def cmd_shard_init(args) -> int:
    from .shard import ShardCluster

    cluster = ShardCluster(
        args.root, shards=args.shards,
        config={
            "string": not args.no_string,
            "typed": list(args.typed),
            "substring": args.substring,
        },
    )
    cluster.create_shards()
    print(f"initialised {args.shards}-shard cluster at {args.root}")
    return 0


def cmd_migrate(args) -> int:
    if not _is_cluster(args.db):
        print(f"error: {args.db!r} is not a shard cluster", file=sys.stderr)
        return 1
    with _open_cluster(args.db) as cluster:
        report = cluster.migrate_document(args.name, args.shard)
    if not report["moved"]:
        print(f"{args.name!r} already on shard {args.shard}")
        return 0
    print(f"moved {args.name!r}: shard {report['src']} -> {report['dst']} "
          f"({report['bytes']} bytes, {report['duration_s'] * 1e3:.1f} ms "
          f"total, updates paused {report['pause_s'] * 1e3:.1f} ms)")
    return 0


def cmd_rebalance(args) -> int:
    if not _is_cluster(args.db):
        print(f"error: {args.db!r} is not a shard cluster", file=sys.stderr)
        return 1
    with _open_cluster(args.db) as cluster:
        result = cluster.rebalance(weight=args.weight,
                                   apply=not args.dry_run)
    for name, dst in result["moves"]:
        verb = "would move" if args.dry_run else "moved"
        print(f"{verb} {name!r} -> shard {dst}")
    if not result["moves"]:
        print("placement already balanced")
    before, after = result["loads_before"], result["loads_after"]
    for shard in sorted(after):
        print(f"shard {shard}: {before.get(shard, 0)} -> "
              f"{after[shard]} {args.weight}")
    return 0


def cmd_resize(args) -> int:
    if not _is_cluster(args.db):
        print(f"error: {args.db!r} is not a shard cluster", file=sys.stderr)
        return 1
    with _open_cluster(args.db) as cluster:
        result = cluster.resize(args.shards)
    for name, src, dst in result["moves"]:
        print(f"moved {name!r}: shard {src} -> {dst}")
    print(f"cluster now has {result['shards']} shard(s)")
    return 0


def cmd_bench(args) -> int:
    from .bench import figure9, figure10, figure11, repl, shard, table1

    module = {
        "table1": table1,
        "figure9": figure9,
        "figure10": figure10,
        "figure11": figure11,
        "shard": shard,
        "repl": repl,
    }[args.experiment]
    return module.main() or 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xml",
        description="Generic and updatable XML value indices (EDBT 2009)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create an empty database directory")
    p.add_argument("db")
    p.add_argument("--typed", nargs="*", default=["double"],
                   help="typed range indices to maintain")
    p.add_argument("--no-string", action="store_true",
                   help="skip the string equality index")
    p.add_argument("--substring", action="store_true",
                   help="maintain the q-gram substring index")
    p.set_defaults(fn=cmd_init)

    p = sub.add_parser("load", help="shred and index an XML file")
    p.add_argument("db")
    p.add_argument("name")
    p.add_argument("file")
    p.set_defaults(fn=cmd_load)

    p = sub.add_parser("generate", help="generate a catalog dataset")
    p.add_argument("db")
    p.add_argument("dataset")
    p.add_argument("--scale", type=float, default=0.1)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("stats", help="Table 1 statistics per document")
    p.add_argument("db")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("query", help="evaluate an XPath query")
    p.add_argument("db", nargs="?", default=None,
                   help="database directory (omit with --connect)")
    p.add_argument("xpath")
    p.add_argument("--no-index", action="store_true")
    p.add_argument("--explain", action="store_true")
    p.add_argument("--limit", type=int, default=10)
    p.add_argument("--as-of", type=int, default=None, dest="as_of",
                   metavar="EPOCH",
                   help="time-travel: answer at a retained epoch "
                        "(docs/replication.md)")
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="query a live server instead of opening a "
                        "directory")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("lookup", help="direct index lookups")
    p.add_argument("db")
    p.add_argument("--string")
    p.add_argument("--double", type=float)
    p.add_argument("--range", nargs=2, type=float, metavar=("LOW", "HIGH"))
    p.add_argument("--contains")
    p.add_argument("--regex")
    p.add_argument("--limit", type=int, default=10)
    p.set_defaults(fn=cmd_lookup)

    p = sub.add_parser("update", help="update a text node's value")
    p.add_argument("db")
    p.add_argument("nid", type=int)
    p.add_argument("text")
    p.set_defaults(fn=cmd_update)

    p = sub.add_parser(
        "checkpoint", help="snapshot the database and truncate the WAL"
    )
    p.add_argument("db")
    p.set_defaults(fn=cmd_checkpoint)

    p = sub.add_parser(
        "verify", help="re-derive and cross-check all index contents"
    )
    p.add_argument("db")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "serve", help="serve the database over TCP (docs/serving.md)"
    )
    p.add_argument("db")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7307)
    p.add_argument("--max-pending-updates", type=int, default=64,
                   help="admission bound on in-flight updates "
                        "(beyond it: busy + retry_after_ms)")
    p.add_argument("--shards", type=int, default=None,
                   help="serve a shard cluster: one engine process per "
                        "shard (docs/sharding.md)")
    p.add_argument("--retain-epochs", type=int, default=0,
                   dest="retain_epochs",
                   help="time-travel window for as_of queries "
                        "(docs/replication.md)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "shard-init",
        help="create an empty N-shard cluster directory (docs/sharding.md)",
    )
    p.add_argument("root")
    p.add_argument("--shards", type=int, required=True)
    p.add_argument("--typed", nargs="*", default=["double"],
                   help="typed range indices to maintain")
    p.add_argument("--no-string", action="store_true",
                   help="skip the string equality index")
    p.add_argument("--substring", action="store_true",
                   help="maintain the q-gram substring index")
    p.set_defaults(fn=cmd_shard_init)

    p = sub.add_parser(
        "migrate",
        help="move one document to another shard, online "
             "(docs/sharding.md, Elastic shards)",
    )
    p.add_argument("db")
    p.add_argument("name")
    p.add_argument("shard", type=int)
    p.set_defaults(fn=cmd_migrate)

    p = sub.add_parser(
        "rebalance",
        help="re-level document placement across shards",
    )
    p.add_argument("db")
    p.add_argument("--weight", default="bytes", choices=["bytes", "nodes"],
                   help="per-document load measure")
    p.add_argument("--dry-run", action="store_true",
                   help="print the plan without migrating")
    p.set_defaults(fn=cmd_rebalance)

    p = sub.add_parser(
        "resize",
        help="grow or shrink the cluster's shard count",
    )
    p.add_argument("db")
    p.add_argument("shards", type=int)
    p.set_defaults(fn=cmd_resize)

    p = sub.add_parser(
        "bench",
        help="run one paper experiment, or a shard/replica sweep "
             "(make paper runs every paper driver and claim)")
    p.add_argument("experiment",
                   choices=["table1", "figure9", "figure10", "figure11",
                            "shard", "repl"])
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
