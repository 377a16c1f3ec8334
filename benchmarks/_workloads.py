"""Cached workload builders shared by the benchmark modules.

Benchmarks reuse the library's own cached dataset loaders; this module adds a
few helpers (timed evaluation wrappers, environment-controlled scale knobs)
so individual benchmark files stay small.

Environment knobs
-----------------
``REPRO_BENCH_H``
    Number of top-h mappings used by the *generation* benchmarks
    (Fig. 10e).  Defaults to 50 so that the plain-Murty baseline over the
    full bipartite stays tractable on the largest datasets; set it to 100
    (the paper's value) for a longer, more faithful run.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.core.blocktree import BlockTreeConfig, build_block_tree
from repro.document.document import XMLDocument
from repro.engine import Dataspace
from repro.mapping.mapping import Mapping
from repro.mapping.mapping_set import MappingSet
from repro.matching.matching import SchemaMatching
from repro.query.ptq import evaluate_ptq_basic, evaluate_ptq_blocktree
from repro.schema.schema import Schema
from repro.workloads.datasets import build_mapping_set, load_dataset, load_source_document
from repro.workloads.queries import load_query

__all__ = [
    "bench_h",
    "build_block_tree",
    "BlockTreeConfig",
    "build_mapping_set",
    "load_dataset",
    "load_source_document",
    "load_query",
    "time_query",
    "evaluate_ptq_basic",
    "evaluate_ptq_blocktree",
    "CATALOGUE_QUERIES",
    "build_catalogue",
]

#: Join-heavy twig queries over the generated catalogue (target labels).
CATALOGUE_QUERIES = (
    "//PRODUCT[./QTY]/NAME",
    "//SECTION//NAME",
    "//PRODUCT/NAME",
)


def bench_h(default: int = 50) -> int:
    """Top-h used by the mapping-generation benchmarks (see module docs)."""
    try:
        return max(1, int(os.environ.get("REPRO_BENCH_H", default)))
    except ValueError:
        return default


def time_query(func, *args, **kwargs) -> tuple[float, object]:
    """Run ``func`` once and return (elapsed seconds, result)."""
    started = time.perf_counter()
    result = func(*args, **kwargs)
    return time.perf_counter() - started, result


def best_of(rounds: int, func, *args, **kwargs) -> tuple[float, object]:
    """Run ``func`` ``rounds`` times; return (best elapsed seconds, last result).

    Used for the per-query report rows, where a single measurement of a
    millisecond-scale evaluation is too noisy to compare algorithms fairly.
    """
    best = float("inf")
    result = None
    for _ in range(max(1, rounds)):
        elapsed, result = time_query(func, *args, **kwargs)
        best = min(best, elapsed)
    return best, result


def paired_rounds(
    rounds: int, first, second, passes: int = 1
) -> list[tuple[float, float]]:
    """Per-round total seconds of ``passes`` runs each of ``first`` and ``second``.

    For gates that compare two code paths.  Timing all rounds of one path and
    then all rounds of the other lets a change in the host's speed between the
    two phases show up as a difference between the paths; alternating them
    exposes both to the same conditions.  With ``passes`` above one the two
    paths also alternate pass by pass inside every round, and which one goes
    first alternates too: for paths whose single pass takes about a
    millisecond, the host's speed spells last longer than that, so each spell
    lands on both sides alike instead of deciding a whole round of one side.
    """
    clock = time.perf_counter
    totals = []
    for _ in range(max(1, rounds)):
        first_total = second_total = 0.0
        for index in range(max(1, passes)):
            swap = index % 2
            started = clock()
            (second if swap else first)()
            middle = clock()
            (first if swap else second)()
            lead, trail = middle - started, clock() - middle
            first_total += trail if swap else lead
            second_total += lead if swap else trail
        totals.append((first_total, second_total))
    return totals


def best_of_paired(rounds: int, first, second) -> tuple[float, float]:
    """Best elapsed seconds of ``first`` and of ``second`` over alternating rounds."""
    pairs = paired_rounds(rounds, first, second)
    return min(a for a, _ in pairs), min(b for _, b in pairs)


def ratio_spread(pairs: list[tuple[float, float]]) -> dict[str, float]:
    """Spread of the per-round ratio ``first / second`` of :func:`paired_rounds`.

    Recorded next to a gate's best-of ratio, so a trajectory record shows
    whether the ratio held in every round or only in the best ones.
    """
    ratios = [a / b if b > 0 else float("inf") for a, b in pairs]
    return {
        "min": round(min(ratios), 3),
        "median": round(statistics.median(ratios), 3),
        "max": round(max(ratios), 3),
        "rounds": len(ratios),
    }


def build_catalogue(num_sections: int = 32, num_products: int = 10) -> Dataspace:
    """One deterministic high-fanout session: schemas, matching, document.

    A catalogue document of ``num_sections`` repeatable sections of
    ``num_products`` repeatable products, under an ambiguous matching whose
    six mappings disagree on the leaf correspondences.  Every query of
    :data:`CATALOGUE_QUERIES` joins candidates that number in the hundreds
    per section count, which is what makes the workload show how twig
    matching scales with the document.
    """
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
    for section_index in range(num_sections):
        section_node = document.add_child(root, section.element_id)
        for product_index in range(num_products):
            product_node = document.add_child(section_node, product.element_id)
            document.add_child(
                product_node, name.element_id,
                value=f"item-{section_index}-{product_index}",
            )
            document.add_child(
                product_node, code.element_id,
                value=f"c{section_index * num_products + product_index}",
            )
            document.add_child(product_node, qty.element_id, value=str(product_index + 1))
            document.add_child(product_node, price.element_id, value="9.99")
    document.finalize()

    return Dataspace.from_mapping_set(
        mapping_set, document=document, name="catalog-bench"
    )
