"""Command-line interface.

The CLI exposes the engine's pipeline for quick, scriptable inspection::

    python -m repro schemas                      # list the corpus schemas
    python -m repro show-schema apertum          # print a schema tree
    python -m repro datasets                     # Table II summary
    python -m repro match D7                     # run the matcher, show correspondences
    python -m repro mappings D7 --h 20           # top-h possible mappings
    python -m repro blocktree D7 --tau 0.2       # block-tree statistics
    python -m repro query D7 Q7                  # evaluate one of the paper's queries
    python -m repro query D7 "Order/DeliverTo/Contact/EMail" --top-k 10
    python -m repro batch D7 Q1 Q2 Q7 --workers 8 --repeat 3
    python -m repro delta D7 Q1 Q7 --touch 10    # incremental mapping delta
    python -m repro explain D7 Q7                # which plan would run, and why
    python -m repro serve D7 --port 8750         # network server (see docs/serving.md)
    python -m repro client query Q7 --port 8750 --top-k 5

All dataset-bound commands are backed by one :class:`repro.engine.Dataspace`
session per invocation, so the matching, mapping set and block tree are built
(or fetched from cache) exactly once.  ``batch`` pushes its queries through
the concurrent :class:`repro.service.QueryService` and reports throughput and
result-cache hit rates; ``explain`` shows how the session's result cache
participated.  ``query``, ``blocktree``, ``batch`` and ``explain`` accept
``--json`` for machine-readable output; every ``--json`` result payload uses
the canonical codecs of :mod:`repro.api.serialize`, so CLI output, server
responses and golden snapshots are the same bytes for the same answers.

Every command writes to stdout and returns a non-zero exit code on invalid
input, so the CLI composes well with shell pipelines.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from repro.api.serialize import (
    delta_report_to_json,
    explain_to_json,
    result_to_json,
    value_distribution_to_json,
)
from repro.engine import Dataspace, available_plans, plan_for
from repro.exceptions import ReproError
from repro.schema.corpus import SCHEMA_SIZES, available_schemas, load_corpus_schema
from repro.schema.parser import schema_to_text
from repro.workloads.datasets import DATASET_IDS, load_dataset
from repro.workloads.queries import QUERY_STRINGS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Managing uncertainty of XML schema matching (ICDE 2010 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("schemas", help="list the synthetic corpus schemas")

    show_schema = subparsers.add_parser("show-schema", help="print a corpus schema tree")
    show_schema.add_argument("standard", help="schema name, e.g. apertum, xcbl, cidx")
    show_schema.add_argument("--max-lines", type=int, default=60,
                             help="truncate output after this many lines (default 60)")

    subparsers.add_parser("datasets", help="summarise the Table II datasets")

    match = subparsers.add_parser("match", help="run the matcher on a dataset")
    match.add_argument("dataset", help="dataset id, e.g. D7")
    match.add_argument("--limit", type=int, default=20, help="correspondences to print")

    mappings = subparsers.add_parser("mappings", help="generate top-h possible mappings")
    mappings.add_argument("dataset")
    mappings.add_argument("--h", type=int, default=20, dest="h", help="number of mappings")
    mappings.add_argument("--method", choices=("partition", "murty"), default="partition")

    blocktree = subparsers.add_parser("blocktree", help="build a block tree and show statistics")
    blocktree.add_argument("dataset")
    blocktree.add_argument("--num-mappings", type=int, default=100)
    blocktree.add_argument("--tau", type=float, default=0.2)
    blocktree.add_argument("--json", action="store_true",
                           help="emit the statistics as a JSON object")

    # Plan choices are derived from the engine's plan registry, so a newly
    # registered plan is immediately selectable here without touching the CLI.
    plan_help = ("evaluation plan: 'auto' lets the engine pick (default), or one of "
                 + ", ".join(available_plans())
                 + " (spelling-insensitive: 'block-tree' == 'blocktree')")

    query = subparsers.add_parser("query", help="evaluate a probabilistic twig query")
    query.add_argument("dataset")
    query.add_argument("query", help="a query id (Q1..Q10) or a twig pattern string")
    query.add_argument("--num-mappings", type=int, default=100)
    query.add_argument("--top-k", type=int, default=None)
    query.add_argument("--algorithm", "--plan", dest="algorithm", default="auto",
                       metavar="PLAN", help=plan_help)
    query.add_argument("--json", action="store_true",
                       help="emit answers and statistics as a JSON object")

    batch = subparsers.add_parser(
        "batch", help="evaluate many queries concurrently through the query service"
    )
    batch.add_argument("dataset")
    batch.add_argument("queries", nargs="+",
                       help="query ids (Q1..Q10) and/or twig pattern strings")
    batch.add_argument("--num-mappings", type=int, default=100)
    batch.add_argument("--top-k", type=int, default=None)
    batch.add_argument("--workers", type=int, default=8,
                       help="service thread-pool size (default 8)")
    batch.add_argument("--repeat", type=int, default=1,
                       help="replay the batch this many times (later rounds hit the cache)")
    batch.add_argument("--no-cache", action="store_true",
                       help="bypass the session result cache")
    batch.add_argument("--json", action="store_true",
                       help="emit results and service statistics as a JSON object")

    delta = subparsers.add_parser(
        "delta",
        help="apply an incremental mapping delta and show surviving-cache statistics",
    )
    delta.add_argument("dataset")
    delta.add_argument("queries", nargs="+",
                       help="query ids (Q1..Q10) and/or twig pattern strings to warm, "
                            "then re-run after the delta")
    delta.add_argument("--num-mappings", type=int, default=100)
    delta.add_argument("--touch", type=int, default=10,
                       help="mappings touched by the synthetic delta (default 10)")
    delta.add_argument("--mode", choices=("reweight", "structural"), default="reweight",
                       help="reweight: mass-preserving probability rotation; "
                            "structural: remove one correspondence per touched mapping")
    delta.add_argument("--json", action="store_true",
                       help="emit the delta report and per-query cache states as JSON")

    explain = subparsers.add_parser(
        "explain", help="show how a query would be evaluated (plan, inputs, timings)"
    )
    explain.add_argument("dataset")
    explain.add_argument("query", help="a query id (Q1..Q10) or a twig pattern string")
    explain.add_argument("--num-mappings", type=int, default=100)
    explain.add_argument("--top-k", type=int, default=None)
    explain.add_argument("--algorithm", "--plan", dest="algorithm", default="auto",
                         metavar="PLAN", help=plan_help)
    explain.add_argument("--json", action="store_true",
                         help="emit the report as a JSON object")

    store = subparsers.add_parser(
        "store", help="manage a persistent artifact store (sqlite block store)"
    )
    store.add_argument("action", choices=("persist", "stats", "verify", "gc"),
                       help="persist: build a dataset session and write its artifacts; "
                            "stats: block/ref occupancy and counters; "
                            "verify: checksum-walk every ref'd manifest; "
                            "gc: delete blocks unreachable from any ref")
    store.add_argument("--path", required=True,
                       help="filesystem path of the sqlite block store")
    store.add_argument("--dataset", default="D7",
                       help="dataset to persist (persist action, default D7)")
    store.add_argument("--num-mappings", type=int, default=100)
    store.add_argument("--json", action="store_true",
                       help="emit the report as a JSON object")

    serve = subparsers.add_parser(
        "serve", help="serve a dataset session over TCP (HTTP + binary protocol)"
    )
    serve.add_argument("dataset", help="dataset id, e.g. D7")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (default 0: pick a free port and print it)")
    serve.add_argument("--num-mappings", type=int, default=100)
    serve.add_argument("--max-inflight", type=int, default=None,
                       help="admission cap on concurrently executing requests "
                            "(default: the service's worker-pool size)")
    serve.add_argument("--max-queue", type=int, default=32,
                       help="admission cap on queued requests (default 32); "
                            "arrivals beyond both caps are shed with a typed "
                            "'overloaded' error")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="per-request deadline in seconds (default 30)")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve with the session result cache bypassed")
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="serve for a bounded time, then drain and exit "
                            "(default: until interrupted)")

    subscribe = subparsers.add_parser(
        "subscribe",
        help="register a standing query on a running server and stream its updates",
    )
    subscribe.add_argument("query",
                           help="a query id (Q1..Q10) or a twig pattern string")
    subscribe.add_argument("--host", default="127.0.0.1")
    subscribe.add_argument("--port", type=int, required=True)
    subscribe.add_argument("--top-k", type=int, default=None)
    subscribe.add_argument("--max-updates", type=int, default=0,
                           help="stop after this many updates, the initial "
                                "snapshot included (default 0: stream until "
                                "interrupted or the socket timeout expires)")
    subscribe.add_argument("--timeout", type=float, default=30.0,
                           help="socket timeout waiting for the next update "
                                "(default 30)")
    subscribe.add_argument("--json", action="store_true",
                           help="emit one canonical update payload per line")

    client = subparsers.add_parser(
        "client", help="issue typed requests to a running repro server"
    )
    client.add_argument("op", choices=("query", "batch", "explain", "stats", "ping"),
                        help="operation to perform")
    client.add_argument("arguments", nargs="*",
                        help="query ids (Q1..Q10) and/or twig pattern strings "
                             "(query/explain take one, batch takes many)")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument("--top-k", type=int, default=None)
    client.add_argument("--plan", default=None, metavar="PLAN",
                        help="force an evaluation plan on the server")
    client.add_argument("--no-cache", action="store_true",
                        help="bypass the server's result cache for this request")
    client.add_argument("--timeout", type=float, default=30.0,
                        help="socket timeout in seconds (default 30)")
    client.add_argument("--json", action="store_true",
                        help="emit the canonical response payload as JSON")
    return parser


def _plan_name(algorithm: str) -> Optional[str]:
    """Resolve the CLI's ``--algorithm`` spelling against the plan registry.

    ``"auto"`` means no override (the engine picks).  Any other spelling is
    resolved through :func:`repro.engine.plan_for`, which normalises case and
    separators and — for unknown names — raises a
    :class:`~repro.exceptions.QueryError` listing the registered plans (the
    CLI surfaces it as an ``error:`` line with exit code 2).
    """
    if algorithm == "auto":
        return None
    return plan_for(algorithm).name


# --------------------------------------------------------------------------- #
# Command implementations
# --------------------------------------------------------------------------- #
def _cmd_schemas(args, out) -> int:  # noqa: ARG001
    for name in available_schemas():
        out.write(f"{name:<12} {SCHEMA_SIZES[name]:>5} elements\n")
    return 0


def _cmd_show_schema(args, out) -> int:
    schema = load_corpus_schema(args.standard)
    lines = schema_to_text(schema).splitlines()
    for line in lines[: args.max_lines]:
        out.write(line + "\n")
    if len(lines) > args.max_lines:
        out.write(f"... ({len(lines) - args.max_lines} more elements)\n")
    return 0


def _cmd_datasets(args, out) -> int:  # noqa: ARG001
    out.write(f"{'id':<5} {'source':<10} {'|S|':>5} {'target':<10} {'|T|':>5} "
              f"{'opt':<4} {'capacity':>9}\n")
    for dataset_id in DATASET_IDS:
        row = load_dataset(dataset_id).describe()
        out.write(f"{row['id']:<5} {row['S']:<10} {row['|S|']:>5} {row['T']:<10} "
                  f"{row['|T|']:>5} {row['opt']:<4} {row['capacity']:>9}\n")
    return 0


def _cmd_match(args, out) -> int:
    session = Dataspace.from_dataset(args.dataset)
    matching = session.matching
    out.write(f"{args.dataset}: {matching.capacity} correspondences\n")
    ranked = sorted(matching, key=lambda c: -c.score)[: args.limit]
    for correspondence in ranked:
        source_path = session.source_schema.get(correspondence.source_id).path
        target_path = session.target_schema.get(correspondence.target_id).path
        out.write(f"  {correspondence.score:.3f}  {source_path}  ~  {target_path}\n")
    return 0


def _cmd_mappings(args, out) -> int:
    session = Dataspace.from_dataset(args.dataset, h=args.h, method=args.method)
    started = time.perf_counter()
    mapping_set = session.mapping_set
    elapsed = time.perf_counter() - started
    out.write(f"{args.dataset}: top-{len(mapping_set)} mappings via {args.method} "
              f"in {elapsed:.2f}s (o-ratio {mapping_set.o_ratio():.2f})\n")
    for mapping in list(mapping_set)[:10]:
        out.write(f"  mapping {mapping.mapping_id:<3} p={mapping.probability:.4f} "
                  f"score={mapping.score:.2f} correspondences={len(mapping)}\n")
    return 0


def _cmd_blocktree(args, out) -> int:
    session = Dataspace.from_dataset(args.dataset, h=args.num_mappings, tau=args.tau)
    info = session.block_tree.describe()
    if args.json:
        out.write(json.dumps(info, indent=2, sort_keys=True) + "\n")
        return 0
    out.write(f"block tree for {args.dataset} (|M|={args.num_mappings}, tau={args.tau}):\n")
    for key in ("num_blocks", "non_leaf_blocks_created", "hash_entries", "max_block_size",
                "mean_block_size", "mean_block_support", "compression_ratio",
                "construction_seconds"):
        value = info[key]
        if isinstance(value, float):
            value = f"{value:.4f}"
        out.write(f"  {key:<26} {value}\n")
    return 0


def _cmd_query(args, out) -> int:
    session = Dataspace.from_dataset(args.dataset, h=args.num_mappings)
    plan = _plan_name(args.algorithm)
    builder = session.query(args.query)
    if plan is not None:
        builder = builder.plan(plan)
    if args.top_k is not None:
        builder = builder.top_k(args.top_k)
    # Build the artifacts the chosen plan needs outside the timed window, as
    # the paper does: the reported time measures evaluation, not one-time
    # matching/mapping/document construction.
    chosen = plan_for(plan if plan is not None else session.plan_decision(builder.prepared))
    session.snapshot(need_tree=chosen.uses_block_tree)
    if chosen.uses_compiled:
        session.compiled

    started = time.perf_counter()
    result = builder.execute()
    elapsed = time.perf_counter() - started

    distribution = sorted(result.value_distribution().items(), key=lambda kv: -kv[1])
    if args.json:
        payload = {
            "dataset": args.dataset.upper(),
            "query": builder.prepared.text,
            "algorithm": args.algorithm,
            "num_mappings": args.num_mappings,
            "top_k": args.top_k,
            "elapsed_ms": round(elapsed * 1000, 3),
            "num_non_empty": len(result.non_empty()),
            "result": result_to_json(result),
            "value_distribution": value_distribution_to_json(result),
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0

    if args.query.upper() in QUERY_STRINGS:
        out.write(f"{args.query.upper()}: {QUERY_STRINGS[args.query.upper()]}\n")
    out.write(f"{len(result)} answers ({len(result.non_empty())} non-empty) "
              f"in {elapsed * 1000:.1f} ms using {args.algorithm}\n")
    for answer in list(result)[:10]:
        out.write(f"  mapping {answer.mapping_id:<4} p={answer.probability:.4f} "
                  f"matches={len(answer.matches)}\n")
    if distribution:
        out.write("value distribution of the output node:\n")
        for value, probability in distribution[:10]:
            out.write(f"  {probability:.3f}  {value!r}\n")
    return 0


def _cmd_batch(args, out) -> int:
    from repro.service import QueryService

    session = Dataspace.from_dataset(args.dataset, h=args.num_mappings)
    rounds = max(1, args.repeat)
    # Build artifacts outside the timed window.  The default (compiled) plan
    # needs the compiled mapping set but no block tree.
    session.snapshot(need_tree=False)
    session.compiled
    started = time.perf_counter()
    with QueryService(
        session, max_workers=args.workers, use_cache=not args.no_cache
    ) as service:
        for _ in range(rounds):
            results = service.execute_many(args.queries, k=args.top_k)
        elapsed = time.perf_counter() - started
        stats = service.stats()

    total_ops = len(args.queries) * rounds
    throughput = total_ops / elapsed if elapsed > 0 else 0.0
    if args.json:
        payload = {
            "dataset": args.dataset.upper(),
            "num_mappings": args.num_mappings,
            "top_k": args.top_k,
            "workers": args.workers,
            "rounds": rounds,
            "total_ops": total_ops,
            "elapsed_ms": round(elapsed * 1000, 3),
            "throughput_qps": round(throughput, 2),
            "results": [
                {"query": query, "result": result_to_json(result)}
                for query, result in zip(args.queries, results)
            ],
            "service": stats,
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0

    out.write(f"{total_ops} queries ({len(args.queries)} distinct x {rounds} rounds) "
              f"in {elapsed * 1000:.1f} ms on {args.workers} workers "
              f"({throughput:.1f} q/s)\n")
    for query, result in zip(args.queries, results):
        out.write(f"  {query:<40} {len(result)} answers "
                  f"({len(result.non_empty())} non-empty)\n")
    cache = stats.get("result_cache", {})
    out.write(f"cache: hits={cache.get('hits', 0)} misses={cache.get('misses', 0)} "
              f"hit_rate={cache.get('hit_rate', 0.0)}\n")
    return 0


def _build_synthetic_delta(session, touch: int, mode: str):
    """A deterministic delta touching the ``touch`` least probable mappings.

    ``reweight`` rotates the probabilities of the touched mappings among
    themselves (mass-preserving by construction); ``structural`` removes each
    touched mapping's lexicographically largest correspondence.
    """
    from repro.engine import MappingDelta

    mapping_set = session.mapping_set
    ranked = sorted(mapping_set, key=lambda m: (m.probability, m.mapping_id))
    touched = sorted(m.mapping_id for m in ranked[: max(1, touch)])
    if mode == "structural":
        removals = []
        for mapping_id in touched:
            pairs = sorted(mapping_set[mapping_id].correspondences)
            if pairs:
                removals.append((mapping_id, pairs[-1]))
        return MappingDelta.build(remove=removals)
    rotated = {
        mapping_id: mapping_set[touched[(index + 1) % len(touched)]].probability
        for index, mapping_id in enumerate(touched)
    }
    return MappingDelta.build(reweight=rotated)


def _cmd_delta(args, out) -> int:
    session = Dataspace.from_dataset(args.dataset, h=args.num_mappings)
    # Warm every query so the post-delta run shows what survived.
    for query in args.queries:
        session.execute(query)
    delta = _build_synthetic_delta(session, args.touch, args.mode)
    report = session.apply_delta(delta)
    states = []
    for query in args.queries:
        explain = session.explain(query)
        states.append({"query": query, "cache": explain.cache,
                       "num_answers": explain.num_answers})
    cache_stats = session.result_cache.stats()

    if args.json:
        payload = {
            "dataset": args.dataset.upper(),
            "num_mappings": args.num_mappings,
            "mode": args.mode,
            "delta": delta_report_to_json(report),
            "queries": states,
            "result_cache": cache_stats.to_dict(),
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0

    out.write(report.format() + "\n")
    surviving = sum(1 for state in states if state["cache"] in ("hit", "retained"))
    out.write(f"queries:    {surviving}/{len(states)} served without re-evaluation "
              f"after the delta\n")
    for state in states:
        out.write(f"  {state['query']:<40} cache={state['cache']:<9} "
                  f"answers={state['num_answers']}\n")
    out.write(f"cache:      retained={cache_stats.retained} hits={cache_stats.hits} "
              f"misses={cache_stats.misses}\n")
    return 0


def _cmd_explain(args, out) -> int:
    session = Dataspace.from_dataset(args.dataset, h=args.num_mappings)
    report = session.explain(args.query, k=args.top_k, plan=_plan_name(args.algorithm))
    if args.json:
        out.write(json.dumps(explain_to_json(report), indent=2) + "\n")
    else:
        out.write(report.format() + "\n")
    return 0


def _cmd_store(args, out) -> int:
    from repro.store import ArtifactStore, SqliteBlockStore

    with SqliteBlockStore(args.path) as blocks:
        store = ArtifactStore(blocks)
        if args.action == "persist":
            session = Dataspace.from_dataset(
                args.dataset, h=args.num_mappings, store=store
            )
            report = session.persist()
            payload = {
                "ref": report["ref"],
                "manifest": report["manifest"],
                "artifacts": report["artifacts"],
                "elapsed_ms": round(report["elapsed_ms"], 1),
                "provenance": session.artifact_provenance(),
            }
            if args.json:
                out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            else:
                out.write(f"persisted {args.dataset} under {report['ref']}\n")
                out.write(f"  manifest:  {report['manifest'][:16]}...\n")
                out.write(f"  artifacts: {report['artifacts']}  "
                          f"results: {report['results']}  "
                          f"({report['elapsed_ms']:.1f} ms)\n")
        elif args.action == "stats":
            stats = store.stats()
            if args.json:
                out.write(json.dumps(stats, indent=2, sort_keys=True) + "\n")
            else:
                out.write(f"blocks:  {stats['blocks']} ({stats['total_bytes']} bytes)\n")
                out.write(f"refs:    {stats['refs']}\n")
                for name in sorted(blocks.refs()):
                    out.write(f"  {name}\n")
        elif args.action == "verify":
            report = store.verify()
            if args.json:
                out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
            else:
                for name, status in sorted(report["refs"].items()):
                    out.write(f"  {name}: {status}\n")
                out.write(f"checked {report['blocks_checked']} blocks, "
                          f"{report['errors']} errors\n")
            return 2 if report["errors"] else 0
        else:  # gc
            report = store.gc()
            if args.json:
                out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
            else:
                out.write(f"removed {report['removed']} unreachable blocks "
                          f"({report['live']} live)\n")
    return 0


def _cmd_serve(args, out) -> int:
    from repro.net import ReproServer

    target = Dataspace.from_dataset(args.dataset, h=args.num_mappings)
    server = ReproServer(
        target,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        request_timeout=args.timeout,
        use_cache=not args.no_cache,
    )

    def announce(started) -> None:
        out.write(f"serving {args.dataset.upper()} on "
                  f"{started.host}:{started.port} "
                  f"(max_inflight={started.server_stats()['max_inflight']}, "
                  f"max_queue={args.max_queue})\n")
        if hasattr(out, "flush"):
            out.flush()

    server.serve(max_seconds=args.max_seconds, on_start=announce)
    return 0


def _cmd_subscribe(args, out) -> int:
    import socket as _socket

    from repro.net import connect

    try:
        with connect(args.host, args.port, timeout=args.timeout) as client:
            stream = client.subscribe(args.query, k=args.top_k)
            rows: list = []
            delivered = 0
            try:
                for event in stream:
                    rows = event.apply(rows)
                    delivered += 1
                    if args.json:
                        out.write(json.dumps(event.to_json(), sort_keys=True) + "\n")
                    else:
                        out.write(
                            f"[{event.kind}] epoch={event.delta_epoch} "
                            f"+{len(event.added)} -{len(event.removed)} "
                            f"~{len(event.rescored)} rows={len(rows)}\n"
                        )
                        for answer in rows[:5]:
                            out.write(f"  mapping {answer.mapping_id:<4} "
                                      f"p={answer.probability:.4f}\n")
                    if hasattr(out, "flush"):
                        out.flush()
                    if args.max_updates and delivered >= args.max_updates:
                        break
            except (KeyboardInterrupt, _socket.timeout):
                pass
            finally:
                stream.close()
    except OSError as error:
        out.write(f"error: cannot reach {args.host}:{args.port}: {error}\n")
        return 2
    return 0


def _cmd_client(args, out) -> int:
    from repro.net import connect

    if args.op in ("query", "explain") and len(args.arguments) != 1:
        out.write(f"error: '{args.op}' takes exactly one query\n")
        return 2
    if args.op == "batch" and not args.arguments:
        out.write("error: 'batch' takes at least one query\n")
        return 2
    try:
        with connect(args.host, args.port, timeout=args.timeout) as client:
            if args.op == "ping":
                client.ping()
                out.write("ok\n")
            elif args.op == "stats":
                out.write(json.dumps(client.stats(), indent=2, sort_keys=True) + "\n")
            elif args.op == "explain":
                report = client.explain(
                    args.arguments[0], k=args.top_k, plan=args.plan
                )
                if args.json:
                    out.write(json.dumps(explain_to_json(report), indent=2) + "\n")
                else:
                    out.write(report.format() + "\n")
            elif args.op == "batch":
                results = client.query_batch(
                    args.arguments, k=args.top_k, plan=args.plan,
                    use_cache=not args.no_cache,
                )
                if args.json:
                    payload = [
                        {"query": result.query, "result": result.to_json()}
                        for result in results
                    ]
                    out.write(json.dumps(payload, indent=2) + "\n")
                else:
                    for result in results:
                        out.write(f"  {result.query:<40} {len(result)} answers "
                                  f"({len(result.non_empty())} non-empty)\n")
            else:  # query
                result = client.query(
                    args.arguments[0], k=args.top_k, plan=args.plan,
                    use_cache=not args.no_cache,
                )
                if args.json:
                    payload = {"query": result.query, "result": result.to_json()}
                    out.write(json.dumps(payload, indent=2) + "\n")
                else:
                    out.write(f"{len(result)} answers "
                              f"({len(result.non_empty())} non-empty)\n")
                    for answer in list(result)[:10]:
                        out.write(f"  mapping {answer.mapping_id:<4} "
                                  f"p={answer.probability:.4f} "
                                  f"matches={answer.num_matches}\n")
    except OSError as error:
        out.write(f"error: cannot reach {args.host}:{args.port}: {error}\n")
        return 2
    return 0


_COMMANDS = {
    "schemas": _cmd_schemas,
    "show-schema": _cmd_show_schema,
    "datasets": _cmd_datasets,
    "match": _cmd_match,
    "mappings": _cmd_mappings,
    "blocktree": _cmd_blocktree,
    "query": _cmd_query,
    "batch": _cmd_batch,
    "delta": _cmd_delta,
    "explain": _cmd_explain,
    "store": _cmd_store,
    "serve": _cmd_serve,
    "subscribe": _cmd_subscribe,
    "client": _cmd_client,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as error:
        out.write(f"error: {error}\n")
        return 2
