"""Engine facade overhead vs direct block-tree evaluation (fig 9f workload).

The :class:`repro.engine.Dataspace` facade must not tax the hot path: once a
session is warm (artifacts built, queries prepared), executing the ten
Table III queries through prepared queries should cost no more than calling
``evaluate_ptq_blocktree`` directly — in fact the prepared path skips the
per-call resolve and filter stages, so it is usually slightly faster.

The engine calls bypass the session result cache (``use_cache=False``): this
benchmark isolates the facade's dispatch overhead, while the cache's effect
is measured by ``test_bench_service_throughput``.
"""

from __future__ import annotations

from repro.engine import Dataspace
from repro.workloads.queries import QUERY_IDS

from _workloads import (
    best_of_paired,
    build_block_tree,
    build_mapping_set,
    evaluate_ptq_blocktree,
    load_query,
    load_source_document,
)

#: Tolerated facade overhead on the warm path (25%, far above the observed cost).
MAX_OVERHEAD = 0.25


def test_engine_overhead_fig9f(benchmark, experiment_report):
    mapping_set = build_mapping_set("D7", 100)
    document = load_source_document("D7")
    tree = build_block_tree(mapping_set)
    queries = [load_query(query_id) for query_id in QUERY_IDS]

    session = Dataspace.from_dataset("D7", h=100)
    prepared = [session.prepare(query_id) for query_id in QUERY_IDS]
    session.block_tree  # warm the session: build artifacts outside the measurement
    for item in prepared:
        item.execute()

    def run_engine():
        for item in prepared:
            item.execute(plan="blocktree", use_cache=False)

    def run_direct():
        for query in queries:
            evaluate_ptq_blocktree(query, mapping_set, document, tree)

    benchmark.pedantic(run_engine, rounds=3, iterations=1)

    engine_time, direct_time = best_of_paired(5, run_engine, run_direct)
    overhead = engine_time / direct_time - 1.0 if direct_time > 0 else 0.0

    report = experiment_report(
        "engine_overhead",
        "Engine facade vs direct evaluate_ptq_blocktree (D7, Q1-Q10, |M|=100)",
    )
    report.add_row("direct", f"{direct_time * 1000:7.1f} ms for all 10 queries")
    report.add_row("engine", f"{engine_time * 1000:7.1f} ms for all 10 queries")
    report.add_row("overhead", f"{overhead:+.1%} (budget {MAX_OVERHEAD:+.0%})")

    assert engine_time <= direct_time * (1.0 + MAX_OVERHEAD), (
        f"engine facade overhead {overhead:+.1%} exceeds {MAX_OVERHEAD:+.0%} "
        f"(engine {engine_time * 1000:.1f} ms vs direct {direct_time * 1000:.1f} ms)"
    )
