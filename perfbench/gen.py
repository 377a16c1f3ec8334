"""Seeded input generators: request streams, the catalogue and delta streams.

Everything here is a pure function of the seed (and, for the delta stream,
of the session state the stream itself produced), so the same seed always
gives the same inputs.  Request frequencies are exact per block and only the
order inside a block is drawn from the seed: ten seeds then measure the
same mix, and the spread between them is the system's, not the sampler's.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Sequence

#: k values of write-mix's standing queries.
STANDING_KS = (None, 10, 20, 50)
#: remote-hot's requests per block; Zipf(1) over 32 keys gives the rarest 2.
ZIPF_BLOCK = 256
#: Paper query ids (Table III) that become standing queries.
PAPER_QUERIES = tuple(f"Q{i}" for i in range(1, 11))

#: Catalogue scale for eval-join: products are spread over the sections by
#: the seed, but the totals (and so the join sizes) are fixed.
CATALOGUE_SECTIONS = 10
CATALOGUE_PRODUCTS = 80
#: eval-join's three join-heavy shapes, run in equal shares.
JOIN_QUERIES = ("//PRODUCT[./QTY]/NAME", "//PRODUCT/NAME", "//SECTION//NAME")

#: write-mix: one write in every WRITE_EVERY ops, at a seeded position.
WRITE_EVERY = 20
#: write-mix write classes and their exact counts per block of 20 writes.
WRITE_CLASSES = (("rotate", 14), ("outside", 3), ("inside", 3))
#: Mappings whose probabilities one rotation permutes (<= 10% of 400), and
#: the number of disjoint rotation sets (one per rotation in a block).
ROTATE_SIZE = 10
ROTATION_SETS = 14
#: Fixed correspondences per structural write class.
SITES_PER_CLASS = 3
#: Chance that write-mix's oracle checks the reads of an epoch.
SAMPLE_EPOCH_RATE = 1.0 / 128


def rng_for(seed: int, *stream: object) -> random.Random:
    """An independent generator per (seed, stream name) pair."""
    return random.Random(repr((seed,) + stream))


def d7_keys(queries: Sequence[str]) -> list[tuple[str, Optional[int]]]:
    """The 32 (query, k) read keys, in Zipf rank order (first = most popular).

    Every query at top-10 ranks before every full result.  Full results of
    Q4-Q10 are 50-80 KB on the wire and cost 10-20x a top-10 read to encode
    and decode; ranked last they take 1/6 of remote-hot's reads instead of
    more than half, and a run takes about 1.5x as many reads.
    """
    return [(query, k) for k in (10, None) for query in queries]


def exact_counts(weights: Sequence[float], total: int) -> list[int]:
    """Largest-remainder apportionment of ``total`` by ``weights``."""
    mass = sum(weights)
    raw = [total * w / mass for w in weights]
    counts = [int(x) for x in raw]
    order = sorted(range(len(raw)), key=lambda i: (counts[i] - raw[i], i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def blocked_stream(counts: Sequence[int], rng: random.Random) -> Iterator[int]:
    """Endless indices: each block holds index i exactly counts[i] times."""
    block = [i for i, c in enumerate(counts) for _ in range(c)]
    while True:
        rng.shuffle(block)
        yield from block


def zipf_stream(n: int, seed: int, stream: str) -> Iterator[int]:
    """Zipf(1)-skewed key indices over ``range(n)``, exact per block of ZIPF_BLOCK."""
    counts = exact_counts([1.0 / rank for rank in range(1, n + 1)], ZIPF_BLOCK)
    return blocked_stream(counts, rng_for(seed, stream))


def uniform_stream(n: int, seed: int, stream: str) -> Iterator[int]:
    """Every index once per block of ``n``, in a seeded order."""
    return blocked_stream([1] * n, rng_for(seed, stream))


def write_mix_ops(seed: int) -> Iterator[str]:
    """The op kinds of write-mix: ``"read"`` or a write class name."""
    rng = rng_for(seed, "cadence")
    classes = blocked_stream([count for _, count in WRITE_CLASSES], rng_for(seed, "writes"))
    while True:
        slot = rng.randrange(WRITE_EVERY)
        for position in range(WRITE_EVERY):
            yield WRITE_CLASSES[next(classes)][0] if position == slot else "read"


def sampled_epochs(seed: int) -> Iterator[bool]:
    """Whether write-mix's oracle checks epoch 0, 1, 2, ... (epoch 0 always)."""
    rng = rng_for(seed, "sample")
    yield True
    while True:
        yield rng.random() < SAMPLE_EPOCH_RATE


# ---------------------------------------------------------------------- #
# eval-join's catalogue
# ---------------------------------------------------------------------- #
def build_catalogue(seed: int, timings: Optional[dict] = None):
    """A high-fanout catalogue session whose mappings disagree on the leaves.

    Same shape as the scatter gate's ``build_workload``: a source catalogue
    (Section* / Product* / Name, Code, Qty, Price), a target with only
    NAME and QTY leaves, a matching in which Name/Code compete for NAME and
    Qty/Price compete for QTY, and six mappings covering the combinations.
    The seed spreads the fixed number of products over the sections and
    draws the leaf values and mapping scores.
    """
    import time

    from repro.document.document import XMLDocument
    from repro.engine import Dataspace
    from repro.mapping.mapping import Mapping
    from repro.mapping.mapping_set import MappingSet
    from repro.matching.matching import SchemaMatching
    from repro.schema.schema import Schema

    rng = rng_for(seed, "catalogue")
    started = time.perf_counter()
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
    for s_el, t_el, score in (
        (catalog, t_catalog, 0.95),
        (section, t_section, 0.90),
        (product, t_product, 0.90),
        (name, t_name, 0.80),
        (code, t_name, 0.60),
        (qty, t_qty, 0.80),
        (price, t_qty, 0.50),
    ):
        matching.add_pair(s_el.element_id, t_el.element_id, score)
    if timings is not None:
        timings["match_s"] = time.perf_counter() - started

    started = time.perf_counter()
    structural = [(catalog, t_catalog), (section, t_section), (product, t_product)]
    leaves = [
        [(name, t_name), (qty, t_qty)],
        [(name, t_name), (price, t_qty)],
        [(code, t_name), (qty, t_qty)],
        [(code, t_name), (price, t_qty)],
        [(name, t_name)],
        [(qty, t_qty)],
    ]
    base_scores = (4.0, 2.0, 2.0, 1.0, 0.5, 0.5)
    mappings = [
        Mapping(
            mapping_id,
            frozenset((s.element_id, t.element_id) for s, t in structural + pairs),
            score=base * (1.0 + 0.2 * rng.random()),
        )
        for mapping_id, (pairs, base) in enumerate(zip(leaves, base_scores))
    ]
    mapping_set = MappingSet(matching, mappings)
    if timings is not None:
        timings["mappings_s"] = time.perf_counter() - started

    per_section = exact_counts(
        [0.5 + rng.random() for _ in range(CATALOGUE_SECTIONS)], CATALOGUE_PRODUCTS
    )
    document = XMLDocument(source, "catalog.xml")
    root = document.add_root(catalog.element_id)
    serial = 0
    for count in per_section:
        section_node = document.add_child(root, section.element_id)
        for _ in range(count):
            product_node = document.add_child(section_node, product.element_id)
            document.add_child(product_node, name.element_id, value=f"item-{rng.randrange(10**6)}")
            document.add_child(product_node, code.element_id, value=f"c{serial}")
            document.add_child(product_node, qty.element_id, value=str(rng.randint(1, 99)))
            document.add_child(product_node, price.element_id, value=f"{rng.uniform(1, 99):.2f}")
            serial += 1
    document.finalize()
    return Dataspace.from_mapping_set(mapping_set, document=document, name="catalog-bench")


# ---------------------------------------------------------------------- #
# write-mix's delta stream
# ---------------------------------------------------------------------- #
class DeltaStream:
    """Builds write-mix's delta batches from the seed and the current state.

    The content of the stream is fixed and the seed only orders it, so every
    seed applies the same multiset of edits:

    * ``rotate``: a mass-preserving rotation of the probabilities of one of
      ROTATION_SETS disjoint sets of ROTATE_SIZE mappings, spread over all
      ranks; each block of 20 writes rotates every set once;
    * ``outside`` / ``inside``: remove one of SITES_PER_CLASS fixed
      correspondences whose target is outside / inside every standing
      query's required targets, and on the next write of the same class put
      it back, so the state returns to its start after every pair.
    """

    def __init__(self, seed: int, mapping_set, query_target_mask: int) -> None:
        num_mappings = len(mapping_set)
        stride = num_mappings // ROTATE_SIZE
        if stride < ROTATION_SETS:
            raise ValueError(f"{num_mappings} mappings are too few for the rotation sets")
        self._rotations = [
            [first + stride * i for i in range(ROTATE_SIZE)] for first in range(ROTATION_SETS)
        ]
        self._rotation_order = uniform_stream(ROTATION_SETS, seed, "rotations")
        candidates: dict[str, list] = {"outside": [], "inside": []}
        for mapping in mapping_set:
            for pair in sorted(mapping.correspondences):
                inside = (query_target_mask >> pair[1]) & 1
                candidates["inside" if inside else "outside"].append((mapping.mapping_id, pair))
        self._sites: dict[str, list] = {}
        self._site_order: dict[str, Iterator[int]] = {}
        for kind, sites in candidates.items():
            if len(sites) < SITES_PER_CLASS:
                raise ValueError(f"too few {kind} correspondences to edit")
            step = len(sites) / SITES_PER_CLASS
            self._sites[kind] = [sites[int(step * (i + 0.5))] for i in range(SITES_PER_CLASS)]
            self._site_order[kind] = uniform_stream(SITES_PER_CLASS, seed, kind)
        self._pending: dict[str, Optional[tuple]] = {"outside": None, "inside": None}

    def next(self, kind: str, mapping_set):
        from repro.engine import MappingDelta
        from repro.engine.streaming import DeltaBatch

        if kind == "rotate":
            ids = self._rotations[next(self._rotation_order)]
            probabilities = [mapping_set[i].probability for i in ids]
            delta = MappingDelta.build(
                reweight={i: probabilities[(j + 1) % len(ids)] for j, i in enumerate(ids)}
            )
        elif self._pending[kind] is None:
            site = self._sites[kind][next(self._site_order[kind])]
            self._pending[kind] = site
            delta = MappingDelta.build(remove=[site])
        else:
            delta = MappingDelta.build(add=[self._pending[kind]])
            self._pending[kind] = None
        return DeltaBatch.of(delta)
