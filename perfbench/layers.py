"""Which entry points are traced, and how spans and counts become layer metrics.

Every per-layer metric the benchmark reports is listed in :data:`PER_LAYER`
with its unit (``BENCHMARK.json`` lists the same names; a test keeps the two
in step).  A workload that never crosses a layer reports 0 for it: no span,
no time, no count.
"""

from __future__ import annotations

import bisect
from typing import Optional

import measure
from tracing import Span, Target, by_op, covered, self_times


def _query_tag(args, result):
    request = args[1]
    query = getattr(request, "query", None)
    return None if query is None else (query, getattr(request, "k", None))


def _length_tag(args, result):
    return len(result) if isinstance(result, (bytes, bytearray)) else None


#: Engine entry points, traced in whichever process holds the session.
ENGINE_TARGETS = (
    Target("service.execute", "repro.service.service", "QueryService.execute"),
    Target("engine.prepare", "repro.engine.dataspace", "Dataspace.prepare"),
    Target("engine.plan_decision", "repro.engine.dataspace", "Dataspace.plan_decision"),
    Target("engine.filter", "repro.engine.dataspace", "Dataspace.relevant_for"),
    Target("plan.run", "repro.engine.plans", "QueryPlan.run"),
    # ptq imports match_twig by name: wrap the name its call sites look up.
    Target("query.match_twig", "repro.query.ptq", "match_twig"),
    Target("compiled.rewrite_groups", "repro.engine.compiled", "CompiledMappingSet.rewrite_groups"),
    Target("compiled.patch", "repro.engine.compiled", "CompiledMappingSet.patched"),
    Target("delta.apply_batch", "repro.engine.dataspace", "Dataspace.apply_delta_batch"),
    Target("streaming.drain", "repro.engine.streaming", "SubscriptionRegistry.drain"),
)
#: remote-hot's server process: one op per ApiHandler.handle call, and the
#: response encode that follows it on the same worker thread.
SERVER_TARGETS = (
    Target("api.handle", "repro.api.handler", "ApiHandler.handle", "root", _query_tag),
    Target("api.encode", "repro.net.server", "encode_message", "tail", _length_tag),
) + ENGINE_TARGETS
#: remote-hot's load process: the client's public verb and its codecs.
CLIENT_TARGETS = (
    Target("net.client_query", "repro.net.client", "ReproClient.query"),
    Target("api.encode_request", "repro.net.client", "encode_message"),
    Target("api.decode_response", "repro.net.client", "decode_response"),
    Target("api.result_from_json", "repro.net.client", "result_from_json"),
)

#: Entry points that span nearly a whole op.  trace.unattributed_frac does
#: not count them as cover: their self time (dispatch, the cache lookup of a
#: hit and, on remote-hot, the transport that no entry point wraps: event
#: loop, admission, worker hop, sockets) is time no layer below accounts for.
ENTRY_SPANS = frozenset({"net.client_query", "api.handle", "service.execute"})

PER_LAYER = (
    ("net.transport_ms", "ms"),
    ("net.requests", "count"),
    ("net.shed", "count"),
    ("net.queued_max", "count"),
    ("api.encode_ms", "ms"),
    ("api.decode_ms", "ms"),
    ("api.response_bytes", "bytes"),
    ("service.execute_ms", "ms"),
    ("engine.prepare_ms", "ms"),
    ("engine.plan_decision_ms", "ms"),
    ("engine.filter_ms", "ms"),
    ("cache.result_hit_ratio", "fraction"),
    ("cache.result_hits", "count"),
    ("cache.result_misses", "count"),
    ("cache.result_retained", "count"),
    ("cache.retained_per_write", "count/write"),
    ("cache.evictions", "count"),
    ("cache.filter_hit_ratio", "fraction"),
    ("cache.filter_hits", "count"),
    ("cache.filter_misses", "count"),
    ("cache.filter_retained", "count"),
    ("plan.run_ms", "ms"),
    ("plan.run_p99_ms", "ms"),
    ("query.match_twig_ms", "ms/read"),
    ("query.match_twig_calls", "count"),
    ("query.match_twig_calls_per_read", "count/read"),
    ("compiled.rewrite_groups_ms", "ms"),
    ("compiled.patch_ms", "ms"),
    ("delta.commit_ms", "ms"),
    ("streaming.drain_ms", "ms"),
    ("streaming.unaffected", "count/write"),
    ("streaming.reweight_only", "count/write"),
    ("streaming.structural", "count/write"),
    ("streaming.notifications", "count/write"),
    ("write_p50_ms", "ms"),
    ("write_p95_ms", "ms"),
    ("failed_frac", "fraction"),
    ("setup.match_s", "s"),
    ("setup.mappings_s", "s"),
    ("setup.compile_s", "s"),
    ("setup.subscribe_s", "s"),
    ("setup.server_start_s", "s"),
    ("setup.warm_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
    ("gc.full_pause_ms", "ms"),
    ("gc.paused_read_share", "fraction"),
)

#: Counters read from the public stats surfaces; see :func:`flatten_stats`.
COUNTERS = (
    "result.hits", "result.misses", "result.retained", "result.evictions",
    "filter.hits", "filter.misses", "filter.retained",
    "sub.unaffected", "sub.reweight_only", "sub.structural", "sub.notifications",
    "net.admitted", "net.shed", "net.peak_queued",
)


def flatten_stats(stats: dict) -> dict:
    """The counters of a ``QueryService.stats()`` / ``client.stats()`` dict."""
    result = stats.get("result_cache", {})
    filt = stats.get("filter_cache", {})
    subs = stats.get("subscriptions", {})
    server = stats.get("server", {})
    return {
        "result.hits": result.get("hits", 0),
        "result.misses": result.get("misses", 0),
        "result.retained": result.get("retained", 0),
        "result.evictions": result.get("evictions", 0),
        "filter.hits": filt.get("hits", 0),
        "filter.misses": filt.get("misses", 0),
        "filter.retained": filt.get("retained", 0),
        "sub.unaffected": subs.get("unaffected", 0),
        "sub.reweight_only": subs.get("reweight_only", 0),
        "sub.structural": subs.get("structural", 0),
        "sub.notifications": subs.get("notifications", 0),
        "net.admitted": server.get("admitted", 0),
        "net.shed": server.get("shed", 0),
        "net.peak_queued": server.get("peak_queued", 0),
    }


def count_delta(before: dict, after: dict) -> dict:
    """Counters accrued between two snapshots (high-water marks as read after)."""
    return {
        name: after[name] if name == "net.peak_queued" else after[name] - before[name]
        for name in COUNTERS
    }


def _p50_ms(values: list[float]) -> float:
    return measure.percentile(values, 50.0) * 1000.0 if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def match_server_ops(client_ops: dict, server_spans: list[Span]) -> dict[int, list[Span]]:
    """Pair each server op with the client op that issued it.

    Both processes read the same monotonic clock, so a server op (handle
    start to encode end) lies inside the client call that sent it; the
    request's (query, k) disambiguates concurrent calls.
    """
    roots = sorted(
        (root.start, root.end, root.tag, op)
        for op, spans in client_ops.items()
        for root in spans
        if root.parent is None and root.name.startswith("op.")
    )
    starts = [row[0] for row in roots]
    matched: dict[int, list[Span]] = {}
    for op, spans in by_op(server_spans).items():
        handle = [s for s in spans if s.name == "api.handle"]
        if not handle:
            continue
        lo = handle[0].start
        hi = max(s.end for s in spans)
        tag = handle[0].tag
        index = bisect.bisect_right(starts, lo) - 1
        for start, end, client_tag, client_op in reversed(roots[max(0, index - 7): index + 1]):
            if start <= lo and hi <= end and client_tag == tag and client_op not in matched:
                matched[client_op] = spans
                break
    return matched


def _remote_parts(client: list[Span], server: Optional[list[Span]]) -> dict:
    """Split one remote-hot client op into client codec, server and transport time."""
    def total(spans, *names):
        return sum(s.duration for s in spans if s.name in names)

    root = next(s for s in client if s.name == "op.read")
    decode = total(client, "api.decode_response", "api.result_from_json")
    parts = {"op": root.duration, "decode": decode, "transport": None, "handle": None,
             "encode": None, "root": root}
    query_call = [s for s in client if s.name == "net.client_query"]
    if server and query_call:
        parts["handle"] = total(server, "api.handle")
        parts["encode"] = total(server, "api.encode")
        parts["transport"] = (
            query_call[0].duration - decode - total(client, "api.encode_request")
            - parts["handle"] - parts["encode"]
        )
    return parts


def slow_op_report(spans: list[Span], server_spans: list[Span]) -> dict:
    """Where remote-hot's slowest 1% of reads spent their time, against the median read.

    Components are means in ms over the ops that were matched to a server op.
    """
    read_ops = {op: s for op, s in by_op(spans).items() if any(x.name == "op.read" for x in s)}
    matched = match_server_ops(read_ops, server_spans)
    parts = sorted(
        (p for p in (_remote_parts(c, matched.get(op)) for op, c in read_ops.items())
         if p["transport"] is not None),
        key=lambda p: p["op"],
    )
    if not parts:
        return {"matched": 0, "reads": len(read_ops)}
    slow = parts[-max(1, len(parts) // 100):]
    middle = parts[len(parts) // 2 - 5: len(parts) // 2 + 5] or parts
    pauses = full_collections(server_spans)

    def mean_ms(group):
        return {
            key: 1000.0 * sum(p[key] for p in group) / len(group)
            for key in ("op", "transport", "handle", "encode", "decode")
        }

    return {
        "matched": len(parts),
        "reads": len(read_ops),
        "slowest_1pct_ms": mean_ms(slow),
        "median_ms": mean_ms(middle),
        "slowest_1pct_paused_share": paused_share([p["root"] for p in slow], pauses),
    }


def full_collections(spans: list[Span]) -> list[Span]:
    return [s for s in spans if s.name == "gc.full"]


def paused_share(roots: list[Span], pauses: list[Span]) -> float:
    """Share of the ops (root spans) that overlap a full collection."""
    paused = sum(1 for root in roots if any(p.start < root.end and p.end > root.start
                                            for p in pauses))
    return _ratio(paused, len(roots))


def layer_metrics(
    *,
    spans: list[Span],
    server_spans: Optional[list[Span]],
    counts: dict,
    reads: int,
    writes: int,
    write_latencies: list[float],
    failed: int,
    attempted: int,
    setup: dict,
    traced_rate: float,
    untraced_rate: float,
) -> dict:
    """Every metric of :data:`PER_LAYER` for one traced run.

    ``spans`` are the load process's (for in-process workloads, the only
    process), ``server_spans`` remote-hot's server's.  ``counts`` are the
    counter deltas over the traced phase, which ran ``reads`` and ``writes``
    ops.  Latencies are in seconds.
    """
    ops = by_op(spans)
    read_ops = {op: s for op, s in ops.items() if any(x.name == "op.read" for x in s)}
    write_ops = {op: s for op, s in ops.items() if any(x.name == "op.write" for x in s)}
    engine_ops = read_ops
    if server_spans is not None:
        matched = match_server_ops(read_ops, server_spans)
        engine_ops = {op: s for op, s in by_op(server_spans).items()}
    else:
        matched = {}

    def durations(op_spans: dict, name: str) -> list[float]:
        return [s.duration for spans_ in op_spans.values() for s in spans_ if s.name == name]

    parts = [
        _remote_parts(client, matched.get(op)) for op, client in read_ops.items()
    ] if server_spans is not None else []
    transport = [p["transport"] for p in parts if p["transport"] is not None]
    decode = [p["decode"] for p in parts]

    encode_spans = [s for s in (server_spans or []) if s.name == "api.encode"]
    response_bytes = [s.tag for s in encode_spans if isinstance(s.tag, int)]
    plan_runs = sorted(durations(engine_ops, "plan.run"))
    own = self_times(s for spans_ in engine_ops.values() for s in spans_)
    twig = [
        own[s.span] for spans_ in engine_ops.values() for s in spans_
        if s.name == "query.match_twig"
    ]

    commits, drains, patches = [], [], []
    for spans_ in write_ops.values():
        apply = [s for s in spans_ if s.name == "delta.apply_batch"]
        drain = [s for s in spans_ if s.name == "streaming.drain"]
        drains.extend(s.duration for s in drain)
        patches.extend(s.duration for s in spans_ if s.name == "compiled.patch")
        if apply:
            end = drain[0].start if drain else apply[0].end
            commits.append(end - apply[0].start)

    wall = attributed = 0.0
    for op, spans_ in ops.items():
        root = [s for s in spans_ if s.parent is None and s.name.startswith("op.")]
        if not root:
            continue
        wall += root[0].duration
        inner = [
            s for s in spans_ + matched.get(op, [])
            if s is not root[0] and s.name not in ENTRY_SPANS
        ]
        attributed += covered(((s.start, s.end) for s in inner), root[0].start, root[0].end)
    # A retained serve is a lookup that missed at the new epoch and was then
    # served by retain(): it counts once in misses and once in retained.
    result_lookups = counts["result.hits"] + counts["result.misses"]
    filter_lookups = counts["filter.hits"] + counts["filter.misses"]
    write_sorted = sorted(write_latencies)
    metrics = {
        "net.transport_ms": _p50_ms(transport),
        "net.requests": counts["net.admitted"],
        "net.shed": counts["net.shed"],
        "net.queued_max": counts["net.peak_queued"],
        "api.encode_ms": _p50_ms([s.duration for s in encode_spans]),
        "api.decode_ms": _p50_ms(decode),
        "api.response_bytes": _ratio(sum(response_bytes), len(response_bytes)),
        "service.execute_ms": _p50_ms(durations(engine_ops, "service.execute")),
        "engine.prepare_ms": _p50_ms(durations(engine_ops, "engine.prepare")),
        "engine.plan_decision_ms": _p50_ms(durations(engine_ops, "engine.plan_decision")),
        "engine.filter_ms": _p50_ms(durations(engine_ops, "engine.filter")),
        "cache.result_hit_ratio": _ratio(
            counts["result.hits"] + counts["result.retained"], result_lookups
        ),
        "cache.result_hits": counts["result.hits"],
        "cache.result_misses": counts["result.misses"],
        "cache.result_retained": counts["result.retained"],
        "cache.retained_per_write": _ratio(counts["result.retained"], writes),
        "cache.evictions": counts["result.evictions"],
        "cache.filter_hit_ratio": _ratio(
            counts["filter.hits"] + counts["filter.retained"], filter_lookups
        ),
        "cache.filter_hits": counts["filter.hits"],
        "cache.filter_misses": counts["filter.misses"],
        "cache.filter_retained": counts["filter.retained"],
        "plan.run_ms": _p50_ms(plan_runs),
        "plan.run_p99_ms": measure.percentile(plan_runs, 99.0) * 1000.0 if plan_runs else 0.0,
        "query.match_twig_ms": _ratio(sum(twig) * 1000.0, reads),
        "query.match_twig_calls": len(twig),
        "query.match_twig_calls_per_read": _ratio(len(twig), reads),
        "compiled.rewrite_groups_ms": _p50_ms(durations(engine_ops, "compiled.rewrite_groups")),
        "compiled.patch_ms": _p50_ms(patches),
        "delta.commit_ms": _p50_ms(commits),
        "streaming.drain_ms": _p50_ms(drains),
        "streaming.unaffected": _ratio(counts["sub.unaffected"], writes),
        "streaming.reweight_only": _ratio(counts["sub.reweight_only"], writes),
        "streaming.structural": _ratio(counts["sub.structural"], writes),
        "streaming.notifications": _ratio(counts["sub.notifications"], writes),
        "write_p50_ms": _p50_ms(write_sorted),
        "write_p95_ms": measure.percentile(write_sorted, 95.0) * 1000.0 if write_sorted else 0.0,
        "failed_frac": _ratio(failed, attempted),
        "trace.overhead_frac": 1.0 - _ratio(traced_rate, untraced_rate),
        "trace.unattributed_frac": _ratio(wall - attributed, wall),
    }
    # Full collections of the process that holds the session, and the share
    # of reads that waited on one: the population read_p99_ms may sample.
    pauses = full_collections(server_spans if server_spans is not None else spans)
    read_roots = [s for spans_ in read_ops.values() for s in spans_ if s.name == "op.read"]
    metrics["gc.full_pause_ms"] = _p50_ms([p.duration for p in pauses])
    metrics["gc.paused_read_share"] = paused_share(read_roots, pauses)
    for step in ("match_s", "mappings_s", "compile_s", "subscribe_s", "server_start_s", "warm_s"):
        metrics["setup." + step] = float(setup.get(step, 0.0))
    return metrics
