"""Scatter-gather speedup gate: sharded corpus vs a single-shard run.

A large generated workload — a high-fanout catalogue document (many
repeatable sections of repeatable products) with an ambiguous matching whose
mappings disagree on the leaf correspondences — is evaluated two ways:

* **single shard** — ``ShardedCorpus`` over 1 shard, i.e. the whole document
  behind the scatter-gather machinery (so the comparison isolates the
  *partitioning* effect, not harness overhead);
* **sharded** — the same corpus over ``NUM_SHARDS`` subtree shards.

Sharding wins because the twig matcher's structural filtering is
super-linear in candidate-list sizes: a branchy query pays
``O(|candidates| x sum |child matches|)`` ancestor checks, and cutting the
document into N shards drops the cross terms between candidates and child
matches that live in different subtrees (which can never nest), leaving
roughly 1/N of the work.  The gate therefore holds even under the GIL,
where thread-level parallelism alone could not deliver 2x for pure-Python
evaluation.  The corpus sizes its pool through
:func:`~repro.corpus.engine.recommend_scatter_workers`, and the executor
configuration actually used is recorded in the benchmark's ``extra_info``
so each ``BENCH_<run>.json`` artifact says how the measured run was wired.

Design notes for CI (this file runs in the workflow's perf-trajectory job):

* **ratio-only assertion** — both sides are timed in the same process on the
  same warmed corpus state, in alternating rounds, so machine speed and its
  drift cancel out; the per-round ratio spread is recorded next to it;
* **warm measurements** — sessions, shard partitions, per-shard compiled
  artifacts, resolved queries and the filter cache are built before timing; the result
  cache is bypassed so real evaluation is measured;
* **byte-identity sanity** — before timing, the sharded answers are asserted
  equal to the unsharded engine's, so the speedup being gated is for an
  *exact* executor.
"""

from __future__ import annotations

from repro.document.document import XMLDocument
from repro.engine import Dataspace
from repro.mapping.mapping import Mapping
from repro.mapping.mapping_set import MappingSet
from repro.matching.matching import SchemaMatching
from repro.schema.schema import Schema

from _workloads import paired_rounds, ratio_spread

#: Required speedup of the sharded scatter-gather run over a single shard.
MIN_SPEEDUP = 2.0
#: Shard count for the sharded side.
NUM_SHARDS = 4
#: Workload scale: sections per catalogue, products per section.
NUM_SECTIONS = 32
NUM_PRODUCTS = 10
#: Timed rounds per side (best-of, alternating).
ROUNDS = 5

#: Join-heavy twig queries over the generated catalogue (target labels).
QUERIES = (
    "//PRODUCT[./QTY]/NAME",
    "//SECTION//NAME",
    "//PRODUCT/NAME",
)


def build_workload() -> Dataspace:
    """One deterministic high-fanout session: schemas, matching, document."""
    source = Schema("catalog-src")
    catalog = source.add_root("Catalog")
    section = source.add_child(catalog, "Section", repeatable=True)
    product = source.add_child(section, "Product", repeatable=True)
    name = source.add_child(product, "Name")
    code = source.add_child(product, "Code")
    qty = source.add_child(product, "Qty")
    price = source.add_child(product, "Price")
    source.freeze()

    target = Schema("catalog-tgt")
    t_catalog = target.add_root("CATALOG")
    t_section = target.add_child(t_catalog, "SECTION", repeatable=True)
    t_product = target.add_child(t_section, "PRODUCT", repeatable=True)
    t_name = target.add_child(t_product, "NAME")
    t_qty = target.add_child(t_product, "QTY")
    target.freeze()

    matching = SchemaMatching(source, target, name="catalog")
    pairs = [
        (catalog, t_catalog, 0.95),
        (section, t_section, 0.90),
        (product, t_product, 0.90),
        (name, t_name, 0.80),
        (code, t_name, 0.60),
        (qty, t_qty, 0.80),
        (price, t_qty, 0.50),
    ]
    for source_element, target_element, score in pairs:
        matching.add_pair(source_element.element_id, target_element.element_id, score)

    structural = [(catalog, t_catalog), (section, t_section), (product, t_product)]

    def mapping(mapping_id: int, leaves, score: float) -> Mapping:
        keys = frozenset(
            (s.element_id, t.element_id) for s, t in structural + leaves
        )
        return Mapping(mapping_id, keys, score=score)

    mappings = [
        mapping(0, [(name, t_name), (qty, t_qty)], 4.0),
        mapping(1, [(name, t_name), (price, t_qty)], 2.0),
        mapping(2, [(code, t_name), (qty, t_qty)], 2.0),
        mapping(3, [(code, t_name), (price, t_qty)], 1.0),
        mapping(4, [(name, t_name)], 0.5),
        mapping(5, [(qty, t_qty)], 0.5),
    ]
    mapping_set = MappingSet(matching, mappings)

    document = XMLDocument(source, "catalog.xml")
    root = document.add_root(catalog.element_id)
    for section_index in range(NUM_SECTIONS):
        section_node = document.add_child(root, section.element_id)
        for product_index in range(NUM_PRODUCTS):
            product_node = document.add_child(section_node, product.element_id)
            document.add_child(
                product_node, name.element_id,
                value=f"item-{section_index}-{product_index}",
            )
            document.add_child(
                product_node, code.element_id,
                value=f"c{section_index * NUM_PRODUCTS + product_index}",
            )
            document.add_child(product_node, qty.element_id, value=str(product_index + 1))
            document.add_child(product_node, price.element_id, value="9.99")
    document.finalize()

    return Dataspace.from_mapping_set(
        mapping_set, document=document, name="catalog-bench"
    )


def test_corpus_scatter_gather_speedup(benchmark, experiment_report):
    session = build_workload()
    single = session.shard(1)
    sharded = session.shard(NUM_SHARDS)

    # Warm both corpora (shard state, compiled artifacts, resolve/filter
    # memos) and sanity-check byte-identity before the timed windows.
    for query in QUERIES:
        unsharded = session.execute(query, use_cache=False)
        for corpus in (single, sharded):
            merged = corpus.execute(query, use_cache=False)
            assert {
                (answer.mapping_id, answer.probability, answer.matches)
                for answer in merged
            } == {
                (answer.mapping_id, answer.probability, answer.matches)
                for answer in unsharded
            }, f"sharded answers diverge for {query}"

    def run(corpus):
        def sweep():
            for query in QUERIES:
                corpus.execute(query, use_cache=False)

        return sweep

    pairs = paired_rounds(ROUNDS, run(single), run(sharded))
    single_time = min(single_time for single_time, _ in pairs)
    sharded_time = min(sharded_time for _, sharded_time in pairs)
    speedup = single_time / sharded_time if sharded_time > 0 else float("inf")
    # Record the sharded sweep in the pytest-benchmark JSON so the CI
    # perf-trajectory artifact carries an absolute series for this gate too,
    # and stamp the run with its measured ratio and executor wiring.
    benchmark.pedantic(run(sharded), rounds=ROUNDS, iterations=1)
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["speedup_spread"] = ratio_spread(pairs)
    benchmark.extra_info["executor"] = sharded.executor_config()

    execution = sharded.explain(QUERIES[0], use_cache=False)
    report = experiment_report(
        "corpus_scatter",
        f"Sharded scatter-gather vs single shard "
        f"({NUM_SECTIONS}x{NUM_PRODUCTS} catalogue, {len(QUERIES)} queries, "
        f"{NUM_SHARDS} shards, best of {ROUNDS} alternating rounds)",
    )
    report.add_row("single shard", f"{single_time * 1000:8.1f} ms per sweep")
    report.add_row(f"{NUM_SHARDS} shards", f"{sharded_time * 1000:8.1f} ms per sweep")
    spread = benchmark.extra_info["speedup_spread"]
    report.add_row(
        "speedup",
        f"{speedup:.1f}x (required >= {MIN_SPEEDUP:.0f}x; per round "
        f"{spread['min']:.1f}-{spread['max']:.1f}x)",
    )
    report.add_row(
        "fan-out (Q0)",
        f"{execution.fan_out} evaluated, {execution.skipped_shards} skipped, "
        f"{execution.spine_rewrites} spine rewrites",
    )
    config = sharded.executor_config()
    report.add_row(
        "executor",
        f"{config['max_workers']} workers over "
        f"{config['num_shards']} shards",
    )

    assert speedup >= MIN_SPEEDUP, (
        f"scatter-gather over {NUM_SHARDS} shards is only {speedup:.2f}x a "
        f"single-shard run ({sharded_time * 1000:.1f} ms vs "
        f"{single_time * 1000:.1f} ms)"
    )
