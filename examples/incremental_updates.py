"""Incremental mapping evolution: apply_delta under concurrent queries.

The dataspace setting the paper targets is never static — uncertain mappings
evolve as evidence accrues.  Before the delta engine, any probability or
correspondence change meant a cold restart: rebuild the mapping set, recompile
the bitsets, drop every cached result.  This example shows the delta path:

1. **Deltas instead of rebuilds** — ``ds.apply_delta(MappingDelta.build(...))``
   patches the mapping set in place (structure-sharing), recompiles only the
   touched bitmask columns, and bumps the fine-grained ``delta_epoch`` —
   the generation (and therefore the bulk of the cache) survives.
2. **Surviving cache entries** — results whose relevant mappings and target
   elements the delta provably did not touch are *retained* across the epoch
   (one bitwise AND decides); ``explain()`` shows ``cache: retained``.
3. **Concurrent writers and readers** — each delta commit publishes one new
   session state while a pool of reader threads keeps querying; snapshots make
   every answer internally consistent, and the service's single-flight keys
   include the epoch so post-delta requests never join pre-delta flights.

Run with:  python examples/incremental_updates.py
"""

from __future__ import annotations

import threading

import repro
from repro.engine import MappingDelta
from repro.service import QueryService

#: Queries kept warm while the mapping set evolves underneath them.
QUERIES = ("Q1", "Q2", "Q7", "ORDER/SUPPLIER_PARTY")


def rotation_delta(mapping_set, ids):
    """A mass-preserving probability rotation among the given mapping ids."""
    return MappingDelta.build(
        reweight={
            ids[i]: mapping_set[ids[(i + 1) % len(ids)]].probability
            for i in range(len(ids))
        }
    )


def main() -> None:
    ds = repro.Dataspace.from_dataset("D7", h=50)

    # 1. Warm the cache, then evolve the low-probability tail of the top-h.
    for query in QUERIES:
        ds.execute(query)
    delta = rotation_delta(ds.mapping_set, ids=[45, 46, 47, 48, 49])
    report = ds.apply_delta(delta)
    print(report.format())
    print()

    # 2. Which cached answers survived the epoch boundary?
    for query in QUERIES:
        explain = ds.explain(query)
        print(f"  {query:<24} cache={explain.cache}")
    stats = ds.result_cache.stats()
    print(f"result cache: {stats.retained} retained, "
          f"{stats.hits} hits, {stats.misses} misses\n")

    # 3. Keep applying deltas while reader threads hammer the service.
    stop = threading.Event()
    answered = []

    with QueryService(ds, max_workers=4) as service:
        def reader() -> None:
            while not stop.is_set():
                for query in QUERIES:
                    answered.append(len(service.execute(query)))

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for round_index in range(5):
            service.apply_delta(
                rotation_delta(ds.mapping_set, ids=[40 + round_index, 45, 49])
            )
        stop.set()
        for thread in threads:
            thread.join()
        service_stats = service.stats()

    print(f"after 5 concurrent deltas: epoch={ds.delta_epoch}, "
          f"generation={ds.generation}")
    print(f"served {service_stats['completed']} requests, "
          f"errors={service_stats['errors']}")
    final = ds.result_cache.stats()
    print(f"result cache: {final.retained} retained across all epochs, "
          f"hit rate {final.hit_rate:.2f}")

    # Sanity: the evolved session answers exactly like a from-scratch rebuild.
    rebuilt = repro.MappingSet(
        ds.mapping_set.matching, ds.mapping_set.mappings, normalize=False
    )
    reference = repro.Dataspace.from_mapping_set(rebuilt, document=ds.document)
    from repro.workloads import load_query

    query = load_query("Q7")
    same = {
        (a.mapping_id, a.probability, a.matches) for a in ds.execute(query)
    } == {
        (a.mapping_id, a.probability, a.matches)
        for a in reference.execute(query)
    }
    print(f"delta-applied state identical to full rebuild: {same}")


if __name__ == "__main__":
    main()
