"""B2B purchase-order integration: query an XCBL document through an Apertum schema.

This is the paper's headline scenario (dataset D7): a company receives
purchase orders as XCBL documents but its applications are written against an
Apertum-style target schema.  The schema matching between the two standards
is uncertain, so the example opens one engine session on D7 and

* lets it derive the 100 most probable mappings and the block tree,
* answers the ten evaluation queries (Table III) under all three evaluation
  plans (``basic`` vs ``blocktree`` vs the default ``compiled`` bitset
  core), reporting the answers and the speed-ups,
* shows batched evaluation of the whole workload against one session, and
* asks for a top-k restriction through the fluent builder.

Run with:  python examples/purchase_order_integration.py
"""

from __future__ import annotations

import time

import repro


def timed(func, *args, **kwargs):
    started = time.perf_counter()
    result = func(*args, **kwargs)
    return time.perf_counter() - started, result


def main() -> None:
    ds = repro.Dataspace.from_dataset("D7", h=100)
    print(f"dataset D7: {ds.source_schema.name} ({len(ds.source_schema)} elements) "
          f"-> {ds.target_schema.name} ({len(ds.target_schema)} elements)")
    print(f"matcher produced {ds.matching.capacity} correspondences")

    print(f"|M| = {len(ds.mapping_set)} possible mappings, "
          f"o-ratio = {ds.mapping_set.o_ratio():.2f}")

    block_tree = ds.block_tree
    print(f"block tree: {block_tree.num_blocks} c-blocks, "
          f"compression {block_tree.compression_ratio():.1%}, "
          f"built in {block_tree.construction_seconds * 1000:.1f} ms")
    print(f"source document: {ds.document.name} with {len(ds.document)} nodes\n")

    print(f"{'query':<6} {'answers':>8} {'basic':>10} {'block-tree':>12} {'compiled':>10}")
    total_basic = total_tree = total_compiled = 0.0
    for query_id in repro.QUERY_IDS:
        # Warm the prepared query's resolve/filter caches and the compiled
        # bitset view so the timed runs measure pure evaluation, not
        # one-time compilation work.
        ds.prepare(query_id).relevant_mappings()
        ds.compiled
        basic_time, basic_result = timed(ds.query(query_id).plan("basic").execute)
        tree_time, tree_result = timed(ds.query(query_id).plan("blocktree").execute)
        compiled_time, compiled_result = timed(
            ds.query(query_id).plan("compiled").no_cache().execute
        )
        reference = {(a.mapping_id, a.matches) for a in basic_result}
        assert reference == {(a.mapping_id, a.matches) for a in tree_result}
        assert reference == {(a.mapping_id, a.matches) for a in compiled_result}
        total_basic += basic_time
        total_tree += tree_time
        total_compiled += compiled_time
        print(f"{query_id:<6} {len(tree_result.non_empty()):>8} "
              f"{basic_time * 1000:>9.1f}m {tree_time * 1000:>11.1f}m "
              f"{compiled_time * 1000:>9.1f}m")
    print(f"\ntotal: basic {total_basic * 1000:.1f} ms, "
          f"block-tree {total_tree * 1000:.1f} ms, "
          f"compiled {total_compiled * 1000:.1f} ms "
          f"({total_basic / total_compiled:.1f}x over basic)")

    # The whole Table III workload in one batched call: the session prepares
    # every query, selects the plan once, and reuses its cached artifacts.
    batch_time, batch_results = timed(ds.query_batch, list(repro.QUERY_IDS))
    print(f"\nbatch: all {len(batch_results)} queries in {batch_time * 1000:.1f} ms "
          f"(prepared queries cached: second run "
          f"{timed(ds.query_batch, list(repro.QUERY_IDS))[0] * 1000:.1f} ms)")

    # A user who only cares about the most credible interpretations can ask
    # for the top-k answers instead.
    topk_time, topk = timed(ds.query("Q7").top_k(10).execute)
    full_time, _ = timed(ds.query("Q7").execute)
    print(f"\ntop-10 PTQ for Q7: {len(topk)} answers in {topk_time * 1000:.1f} ms "
          f"(full PTQ takes {full_time * 1000:.1f} ms)")
    best = topk.answers[0]
    print(f"most probable mapping: {best.mapping_id} (p={best.probability:.3f}), "
          f"{len(best.matches)} matches")

    # How was it evaluated?  The engine explains its plan choice.
    print("\nexplain Q7 (top-10):")
    print(ds.query("Q7").top_k(10).explain().format())


if __name__ == "__main__":
    main()
