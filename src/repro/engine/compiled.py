"""The compiled evaluation core: columnar bitset algebra over a mapping set.

The paper's speed argument (Section III) is that possible mappings share most
of their correspondences, so evaluation work should be shared across them.
The object-graph representation pays per-mapping costs anyway: probing
``Mapping.source_for_target`` per query node per mapping, intersecting
``frozenset`` mapping-id sets for c-block membership, and filling one dict
entry per mapping in the evaluators.  This module lowers a
:class:`~repro.mapping.mapping_set.MappingSet` into dense integer indices so
those operations become single bitwise AND / popcount steps:

* **posting lists** — for every correspondence ``(s, t)`` a bitmask of the
  mappings that contain it (:meth:`CompiledMappingSet.pair_mask`);
* **coverage masks** — for every target element the union of its posting
  lists, i.e. the mappings that map it *somewhere*
  (:meth:`CompiledMappingSet.covered_mask`); ``filter_mappings`` becomes one
  AND per query node (:meth:`CompiledMappingSet.relevant_mask`);
* **source partitions** — for every target element, its posting lists grouped
  by source element: the one-step refinement used to split a candidate mask
  into groups sharing the same rewrite
  (:meth:`CompiledMappingSet.rewrite_groups`);
* **probability column** — mapping probabilities as a flat tuple indexed by
  mapping id, and its ranking: every id most probable first, sorted once per
  artifact (:meth:`CompiledMappingSet.ranked_ids`).

All columns are plain Python ints and float tuples: they are what
:meth:`CompiledMappingSet.patched` edits, what the persistent store
serialises, and what the hot loops below (coverage intersection, the
union-of-coverage filter step, partition refinement, probability
accumulation) run on directly.  The masks are a few machine words wide for
every mapping set the engine sees, so CPython's big-int AND/OR is cheaper
than any per-call conversion to an array library.

:meth:`CompiledMappingSet.rewrite_groups` is what the engine's ``compiled``
query plan runs on: it partitions the relevant mappings of a query embedding
into groups whose members rewrite *every* query node to the same source
element, so each distinct rewrite is evaluated exactly once and the result is
fanned back out by bitmask.  This generalises the c-block sharing of
Algorithm 4 — it shares work even where the block tree carries no anchored
block, and it never misses sharing because of the tree's construction budgets.

Instances are built through :meth:`MappingSet.compile`, which memoizes the
artifact on the (immutable) mapping set — under the engine's generation
machinery, invalidating the mapping set therefore also retires its compiled
view.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.mapping.mapping_set import (
    MappingSet,
    MappingSubset,
    ids_in_order,
    iter_mapping_ids,
    mapping_mask,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapping.mapping import Mapping
    from repro.matching.correspondence import CorrespondenceKey
    from repro.query.ptq import Rewrite
    from repro.query.resolve import Embedding

__all__ = ["CompiledMappingSet", "compile_mapping_set"]

#: A rewrite group: (bitmask of member mappings, target element -> source element).
RewriteGroup = tuple[int, dict[int, int]]


class CompiledMappingSet:
    """Dense, integer-indexed view of a mapping set (see module docstring).

    Built once per (immutable) mapping set via :meth:`MappingSet.compile`.
    All masks index mappings by their ``mapping_id``, which by construction
    is the mapping's position in the set.
    """

    __slots__ = (
        "mapping_set",
        "num_mappings",
        "all_mask",
        "probabilities",
        "_ranked",
        "_pair_masks",
        "_covered_masks",
        "_target_sources",
    )

    def __init__(self, mapping_set: MappingSet) -> None:
        self.mapping_set = mapping_set
        self.num_mappings = len(mapping_set)
        #: Bitmask with one bit per mapping, all set.
        self.all_mask = (1 << self.num_mappings) - 1
        #: Probability column, indexed by mapping id.
        self.probabilities: tuple[float, ...] = tuple(
            mapping.probability for mapping in mapping_set
        )
        self._ranked: Optional[tuple[int, ...]] = None
        pair_masks: dict["CorrespondenceKey", int] = {}
        covered_masks: dict[int, int] = {}
        sources: dict[int, dict[int, int]] = {}
        for mapping in mapping_set:
            bit = 1 << mapping.mapping_id
            for source_id, target_id in mapping.correspondences:
                key = (source_id, target_id)
                pair_masks[key] = pair_masks.get(key, 0) | bit
                covered_masks[target_id] = covered_masks.get(target_id, 0) | bit
                by_source = sources.setdefault(target_id, {})
                by_source[source_id] = by_source.get(source_id, 0) | bit
        self._pair_masks = pair_masks
        self._covered_masks = covered_masks
        # Source partitions are stored sorted by source id so every traversal
        # (rewrite grouping, stats) is deterministic.
        self._target_sources: dict[int, tuple[tuple[int, int], ...]] = {
            target_id: tuple(sorted(by_source.items()))
            for target_id, by_source in sources.items()
        }

    @classmethod
    def patched(
        cls,
        previous: "CompiledMappingSet",
        mapping_set: MappingSet,
        changed_pairs: dict[int, tuple[frozenset, frozenset]],
        probability_ids: Iterable[int],
    ) -> "CompiledMappingSet":
        """Derive a compiled view incrementally from a predecessor artifact.

        ``changed_pairs`` maps each structurally dirty mapping id to its
        ``(old_correspondences, new_correspondences)`` frozensets, and
        ``probability_ids`` lists the mappings whose probability changed.
        Only the posting lists of edited correspondences, the coverage masks
        and source partitions of their target elements, and the probability
        column entries of ``probability_ids`` are rebuilt; every other
        column is carried over from ``previous`` untouched.  The result is
        indistinguishable from a full :meth:`MappingSet.compile` of the same
        set (the differential suite pins dict-level equality), at a cost
        proportional to the edit instead of to ``h x |pairs|``.

        >>> # compiled = CompiledMappingSet.patched(old, new_set, {3: (old_pairs, new_pairs)}, [3])
        """
        self = object.__new__(cls)
        self.mapping_set = mapping_set
        self.num_mappings = previous.num_mappings
        self.all_mask = previous.all_mask
        probabilities = list(previous.probabilities)
        for mapping_id in probability_ids:
            probabilities[mapping_id] = mapping_set[mapping_id].probability
        self.probabilities = tuple(probabilities)
        self._ranked = None
        pair_masks = dict(previous._pair_masks)
        covered_masks = dict(previous._covered_masks)
        target_sources = dict(previous._target_sources)
        # Touched targets get a mutable source->mask dict, seeded from the
        # predecessor's (immutable) partition tuple exactly once.
        editable: dict[int, dict[int, int]] = {}

        def by_source(target_id: int) -> dict[int, int]:
            partitions = editable.get(target_id)
            if partitions is None:
                partitions = dict(target_sources.get(target_id, ()))
                editable[target_id] = partitions
            return partitions

        for mapping_id, (old_pairs, new_pairs) in changed_pairs.items():
            bit = 1 << mapping_id
            for key in old_pairs - new_pairs:
                source_id, target_id = key
                mask = pair_masks.get(key, 0) & ~bit
                if mask:
                    pair_masks[key] = mask
                else:
                    pair_masks.pop(key, None)
                partitions = by_source(target_id)
                source_mask = partitions.get(source_id, 0) & ~bit
                if source_mask:
                    partitions[source_id] = source_mask
                else:
                    partitions.pop(source_id, None)
            for key in new_pairs - old_pairs:
                source_id, target_id = key
                pair_masks[key] = pair_masks.get(key, 0) | bit
                partitions = by_source(target_id)
                partitions[source_id] = partitions.get(source_id, 0) | bit

        for target_id, partitions in editable.items():
            if partitions:
                target_sources[target_id] = tuple(sorted(partitions.items()))
                covered = 0
                for mask in partitions.values():
                    covered |= mask
                covered_masks[target_id] = covered
            else:
                # The last correspondence for this target was removed; a
                # fresh compile would not know the element at all.
                target_sources.pop(target_id, None)
                covered_masks.pop(target_id, None)

        self._pair_masks = pair_masks
        self._covered_masks = covered_masks
        self._target_sources = target_sources
        return self

    # ------------------------------------------------------------------ #
    # Mask primitives
    # ------------------------------------------------------------------ #
    def pair_mask(self, key: "CorrespondenceKey") -> int:
        """Posting list of correspondence ``key``: mappings containing it."""
        return self._pair_masks.get(key, 0)

    def covered_mask(self, target_id: int) -> int:
        """Mappings that map ``target_id`` to *some* source element."""
        return self._covered_masks.get(target_id, 0)

    def source_partitions(self, target_id: int) -> tuple[tuple[int, int], ...]:
        """``(source_id, mask)`` partition of :meth:`covered_mask`, ascending source id."""
        return self._target_sources.get(target_id, ())

    def mask_for(self, mappings: Iterable["Mapping"]) -> int:
        """Bitmask of the given mapping objects (by ``mapping_id``).

        A :class:`~repro.mapping.mapping_set.MappingSubset` already carries
        its mask, which is returned as is.
        """
        if isinstance(mappings, MappingSubset):
            return mappings.mask
        return mapping_mask(mapping.mapping_id for mapping in mappings)

    def iter_ids(self, mask: int) -> Iterator[int]:
        """Mapping ids encoded in ``mask``, ascending."""
        return iter_mapping_ids(mask)

    def mappings_of(self, mask: int) -> MappingSubset:
        """Materialise ``mask`` as mapping objects (ascending id), carrying ``mask``."""
        return self.mapping_set.subset(mask)

    # ------------------------------------------------------------------ #
    # Coverage / filtering (the paper's filter_mappings, as bit algebra)
    # ------------------------------------------------------------------ #
    def covers_mask(self, target_ids: Iterable[int]) -> int:
        """Mappings containing a correspondence for *every* given target element.

        ANDs the coverage masks of ``target_ids``, short-circuiting at zero.
        """
        covered = self._covered_masks
        mask = self.all_mask
        for target_id in target_ids:
            mask &= covered.get(target_id, 0)
            if not mask:
                break
        return mask

    def covers_targets(self, mapping_id: int, target_ids: Iterable[int]) -> bool:
        """Single-mapping coverage test against the compiled index."""
        bit = 1 << mapping_id
        return all(self._covered_masks.get(target_id, 0) & bit for target_id in target_ids)

    def mappings_covering(self, target_ids: Iterable[int]) -> MappingSubset:
        """Mapping objects covering every target id (ascending-id order)."""
        return self.mappings_of(self.covers_mask(target_ids))

    def relevant_mask(self, embeddings: Iterable["Embedding"]) -> int:
        """Mappings relevant for *any* embedding (union of per-embedding coverage).

        One coverage AND per embedding, OR-ed across embeddings and
        short-circuiting once every mapping is relevant.
        """
        mask = 0
        all_mask = self.all_mask
        for embedding in embeddings:
            mask |= self.covers_mask(set(embedding.values()))
            if mask == all_mask:
                break
        return mask

    def relevant_mappings(self, embeddings: Iterable["Embedding"]) -> MappingSubset:
        """The paper's ``filter_mappings`` over pre-resolved embeddings."""
        return self.mappings_of(self.relevant_mask(embeddings))

    # ------------------------------------------------------------------ #
    # Rewrite grouping (the compiled plan's sharing step)
    # ------------------------------------------------------------------ #
    def rewrite_groups(
        self, target_ids: Iterable[int], mask: Optional[int] = None
    ) -> list[RewriteGroup]:
        """Partition mappings by their rewrite of the given target elements.

        Starting from the mappings covering every target element (optionally
        intersected with ``mask``), the candidate bitmask is refined one
        target element at a time by the element's source partitions.  Each
        returned ``(group_mask, assignment)`` satisfies: every mapping in
        ``group_mask`` maps each requested target element to
        ``assignment[target_id]`` — i.e. the whole group shares one query
        rewrite.  Groups are disjoint and their union is exactly the covering
        candidates; traversal order is deterministic (targets ascending,
        sources ascending).
        """
        required = sorted(set(target_ids))
        candidates = self.covers_mask(required)
        if mask is not None:
            candidates &= mask
        if not candidates:
            return []
        target_sources = self._target_sources
        groups: list[RewriteGroup] = [(candidates, {})]
        for target_id in required:
            refined: list[RewriteGroup] = []
            for group_mask, assignment in groups:
                for source_id, source_mask in target_sources.get(target_id, ()):
                    shared = group_mask & source_mask
                    if shared:
                        extended = dict(assignment)
                        extended[target_id] = source_id
                        refined.append((shared, extended))
            groups = refined
        return groups

    # ------------------------------------------------------------------ #
    # Probability column
    # ------------------------------------------------------------------ #
    def probabilities_of(self, mask: int) -> list[float]:
        """Probability-column entries of ``mask``'s members, ascending id."""
        probabilities = self.probabilities
        return [probabilities[mapping_id] for mapping_id in iter_mapping_ids(mask)]

    def probability_of_mask(self, mask: int) -> float:
        """Accumulated probability mass of the mappings encoded in ``mask``.

        Sums in ascending mapping-id order with plain sequential IEEE-754
        addition, so the value is deterministic for a given mask.
        """
        probabilities = self.probabilities
        total = 0.0
        for mapping_id in iter_mapping_ids(mask):
            total += probabilities[mapping_id]
        return total

    def ranked_ids(self) -> tuple[int, ...]:
        """Every mapping id, most probable first, ties by ascending id.

        The row order of every result over this artifact and the order of
        top-k selection.  One stable sort of the probability column, done
        on first use and kept: only a delta (a new artifact) re-sorts.
        """
        ranked = self._ranked
        if ranked is None:
            ranked = self._ranked = tuple(
                sorted(range(self.num_mappings), key=self.probabilities.__getitem__, reverse=True)
            )
        return ranked

    def top_k(self, mask: int, k: int) -> list[int]:
        """The ``k`` most probable members of ``mask``, ties by ascending id (Definition 5)."""
        return ids_in_order(self.ranked_ids(), mask, k)

    def max_probability(self) -> float:
        """Largest single mapping probability (top-k session upper bounds)."""
        return max(self.probabilities)

    # ------------------------------------------------------------------ #
    # Statistics (surfaced by explain())
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Bitset statistics of the compiled artifact."""
        popcounts = [mask.bit_count() for mask in self._pair_masks.values()]
        num_masks = (
            len(self._pair_masks)
            + len(self._covered_masks)
            + sum(len(partitions) for partitions in self._target_sources.values())
        )
        mask_bytes = (self.num_mappings + 7) // 8
        return {
            "num_mappings": self.num_mappings,
            "num_posting_lists": len(self._pair_masks),
            "num_target_elements": len(self._covered_masks),
            "mean_posting_popcount": (
                round(sum(popcounts) / len(popcounts), 2) if popcounts else 0.0
            ),
            "max_posting_popcount": max(popcounts, default=0),
            "bitset_bytes": num_masks * mask_bytes,
        }

    def rewrite_stats(self, rewrites: list["Rewrite"], mask: int) -> dict:
        """Sharing statistics for one query's rewrites (from ``derive_rewrites``).

        ``rewrites`` is :func:`repro.query.ptq.derive_rewrites` output for the
        selected mappings ``mask``.  ``num_rewrite_groups`` counts its groups;
        ``num_distinct_rewrites`` its distinct source signatures — the number
        of twig matches the compiled plan runs; ``evaluations_saved`` is the
        number of per-mapping evaluations Algorithm 3 would have run that the
        compiled plan shares away.
        """
        stats = self.stats()
        stats.update(
            {
                "num_selected": mask.bit_count(),
                "selected_probability_mass": self.probability_of_mask(mask),
                "num_rewrite_groups": len(rewrites),
                "num_distinct_rewrites": len({signature for _, signature in rewrites}),
                "evaluations_saved": sum(
                    group_mask.bit_count() for group_mask, _ in rewrites
                ) - len(rewrites),
            }
        )
        return stats

    def __repr__(self) -> str:
        return (
            f"CompiledMappingSet(mappings={self.num_mappings}, "
            f"posting_lists={len(self._pair_masks)})"
        )


def compile_mapping_set(mapping_set: MappingSet) -> CompiledMappingSet:
    """Functional alias of :meth:`MappingSet.compile` (same memoized artifact)."""
    return mapping_set.compile()
