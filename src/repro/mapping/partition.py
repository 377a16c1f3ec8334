"""Partition-based top-h mapping generation (Section V-B, Algorithm 5).

The paper observes that XML schema matchings are sparse: the bipartite of a
matching decomposes into many small connected components ("partitions").
Because partitions share no elements, the score of a global mapping is the
sum of independent per-partition contributions, so the global top-h mappings
can be obtained by

1. ranking the top-h mappings of every partition independently (with Murty's
   algorithm on a much smaller bipartite), and
2. merging the per-partition rankings, keeping the h best score sums.

Two merge strategies are provided:

* ``"lazy"`` (default) — a best-first merge over the cross product of two
  ranked lists: only the O(h log h) index pairs that can still reach the top
  h are scored, and only the h survivors are materialised per merge step.
* ``"exhaustive"`` — materialise all |A| × |B| combinations and keep the best
  h; quadratic, used as the ablation baseline for the merge-strategy study.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.exceptions import AssignmentError, MappingError
from repro.mapping.bipartite import BipartiteGraph
from repro.mapping.murty import RankedMapping, rank_graph_murty
from repro.matching.correspondence import CorrespondenceKey
from repro.matching.matching import SchemaMatching

__all__ = ["partition_matching", "merge_rankings", "rank_mappings_partitioned"]


def partition_matching(matching: SchemaMatching) -> list[BipartiteGraph]:
    """Return the partitions (maximal connected sub-bipartites) of a matching.

    Mirrors the paper's ``partition`` function: every element that occurs in
    some correspondence ends up in exactly one partition; elements without
    correspondences are ignored (they can only map to their image and thus
    contribute nothing to any mapping's score).
    """
    graph = BipartiteGraph.from_matching(matching, include_unmatched_elements=False)
    return graph.connected_components()


def merge_rankings(
    first: list[RankedMapping],
    second: list[RankedMapping],
    h: int,
    strategy: str = "lazy",
) -> list[RankedMapping]:
    """Merge two per-partition rankings into the top-h combined ranking.

    Both inputs must be sorted by non-increasing score; because the
    partitions are disjoint, a combined mapping is simply the union of one
    mapping from each list and its score is the sum of the two scores.

    Parameters
    ----------
    first, second:
        Ranked ``(score, correspondence set)`` lists.
    h:
        Number of combinations to keep.
    strategy:
        ``"lazy"`` (best-first enumeration) or ``"exhaustive"``
        (full cross product, used as an ablation baseline).

    Raises
    ------
    MappingError
        If ``h`` is not positive or the strategy is unknown.
    """
    return _merge(first, second, h, strategy, frozenset.union)


def _merge(
    first: list[tuple[float, Any]],
    second: list[tuple[float, Any]],
    h: int,
    strategy: str,
    combine: Callable[[Any, Any], Any],
) -> list[tuple[float, Any]]:
    """:func:`merge_rankings` with ``combine`` joining two payloads."""
    if h <= 0:
        raise MappingError(f"h must be positive, got {h}")
    if not first:
        return second[:h]
    if not second:
        return first[:h]

    if strategy == "exhaustive":
        combinations = [
            (score_a + score_b, combine(payload_a, payload_b))
            for score_a, payload_a in first
            for score_b, payload_b in second
        ]
        combinations.sort(key=lambda item: -item[0])
        return combinations[:h]

    if strategy != "lazy":
        raise MappingError(f"unknown merge strategy {strategy!r}; expected 'lazy' or 'exhaustive'")

    # Index pairs (i, j) ordered by (-score sum, i, j).  Both lists are sorted,
    # so the (i + 1)(j + 1) - 1 pairs dominated by (i, j) all precede it: only
    # pairs with (i + 1)(j + 1) <= h can make the top h, about h ln h of them.
    candidates = [
        (-(score_a + score_b), i, j)
        for j, (score_b, _) in enumerate(second[:h])
        for i, (score_a, _) in enumerate(first[: h // (j + 1)])
    ]
    candidates.sort()
    return [
        (-negative_score, combine(first[i][1], second[j][1]))
        for negative_score, i, j in candidates[:h]
    ]


def rank_mappings_partitioned(
    matching: SchemaMatching,
    h: int,
    backend: str = "auto",
    merge_strategy: str = "lazy",
) -> list[RankedMapping]:
    """Rank the top-h mappings of ``matching`` with the partitioning approach.

    This is the paper's Algorithm 5: partition the matching, rank each
    partition with Murty's algorithm, then fold the per-partition rankings
    together while keeping only the h best combined mappings.

    The result is identical (up to ties between equal-score mappings) to
    :func:`repro.mapping.murty.rank_mappings_murty`, but much faster on
    sparse matchings because every assignment problem solved is restricted to
    one small partition.
    """
    if h <= 0:
        raise AssignmentError(f"h must be positive, got {h}")
    partitions = partition_matching(matching)
    if not partitions:
        return [(0.0, frozenset())]

    # A combined mapping is held as a chain ``(earlier chain, partition
    # edges)`` rather than a set: each merge then costs O(1) per kept
    # combination instead of copying the ever-growing union, and only the h
    # survivors are flattened at the end.
    combined: list[tuple[float, Any]] = [(0.0, ())]
    for partition in partitions:
        ranking = rank_graph_murty(partition, h, backend=backend)
        combined = _merge(combined, ranking, h, merge_strategy, _link)
    return [(score, _flatten(chain)) for score, chain in combined]


def _link(chain: Any, edges: frozenset[CorrespondenceKey]) -> Any:
    return (chain, edges)


def _flatten(chain: Any) -> frozenset[CorrespondenceKey]:
    parts: list[frozenset[CorrespondenceKey]] = []
    while chain:
        chain, edges = chain
        parts.append(edges)
    return frozenset().union(*parts)
