"""The :class:`MappingSet`: the paper's set ``M`` of possible mappings.

Besides the object model, this module hosts the primitive bitset helpers
(:func:`mapping_mask`, :func:`iter_mapping_ids`, :func:`ids_in_order`) shared by the compiled
evaluation core (:mod:`repro.engine.compiled`), the block tree and the PTQ
evaluators: a set of mapping ids is encoded as a Python int with bit ``i``
set iff mapping ``i`` is a member, so set algebra over mappings becomes
single bitwise AND/OR/popcount operations.  :class:`MappingSubset` is a
mapping list that carries that bitmask with it, so a relevant-mapping set
built from a mask never has to be converted back.
"""

from __future__ import annotations

import threading
from itertools import compress, islice
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.exceptions import MappingError
from repro.mapping.mapping import Mapping
from repro.matching.correspondence import CorrespondenceKey
from repro.matching.matching import SchemaMatching

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.compiled import CompiledMappingSet

__all__ = ["MappingSet", "MappingSubset", "mapping_mask", "iter_mapping_ids", "ids_in_order"]


def mapping_mask(mapping_ids: Iterable[int]) -> int:
    """Encode a set of mapping ids as a bitmask (bit ``i`` set iff ``i`` present)."""
    mask = 0
    for mapping_id in mapping_ids:
        mask |= 1 << mapping_id
    return mask


#: Masks with fewer members than this are peeled bit by bit; denser ones are
#: scanned as a digit string.  Peeling costs a big-int step per member and
#: scanning a step per bit in C: over 400 bits, 10 members peel in 3 us and
#: scan in 8 us, 400 members peel in 95 us and scan in 13 us.  The two meet
#: near 40 members at 400 bits and near 12 at 100 bits.
_SCAN_MIN_MEMBERS = 16
#: Binary digits -> the 0/1 bytes :func:`itertools.compress` selects with.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def iter_mapping_ids(mask: int) -> Iterator[int]:
    """The mapping ids encoded in ``mask`` (any int >= 0), in ascending order."""
    if mask.bit_count() < _SCAN_MIN_MEMBERS:
        return _peel_ids(mask)
    # Lowest bit first: the digits of ``bin`` reversed, without the "0b".
    flags = bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)
    return compress(range(len(flags)), flags)


def _peel_ids(mask: int) -> Iterator[int]:
    """Ids of ``mask`` ascending, one lowest set bit at a time."""
    while mask:
        low_bit = mask & -mask
        yield low_bit.bit_length() - 1
        mask ^= low_bit


def ids_in_order(ordered: Sequence[int], mask: int, limit: Optional[int] = None) -> list[int]:
    """The members of ``mask`` in the order they take in ``ordered``, at most ``limit``.

    ``ordered`` must list every member of ``mask``.  The mask becomes one
    0/1 byte per id and :func:`itertools.compress` selects with it, so the
    walk runs in C and stops once ``limit`` members are found.
    """
    size = max(ordered, default=-1) + 1
    flags = bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS).ljust(size, b"\x00")
    return list(islice(compress(ordered, map(flags.__getitem__, ordered)), limit))


class MappingSubset(list):
    """Mappings in ascending-id order, carrying their id bitmask as ``mask``.

    A plain :class:`list` in every other respect.  The relevant-mapping sets
    the engine derives from bitmasks (``filter_mappings`` over a compiled
    set, the session's filter cache) are built as subsets, so consumers that
    need the mask — cache retention, the compiled evaluator — read it
    instead of rebuilding it from the ids.  ``mask`` must equal
    ``mapping_mask(m.mapping_id for m in subset)``; the subset is treated as
    read-only.
    """

    __slots__ = ("mask",)

    def __init__(self, mappings: Iterable[Mapping] = (), mask: int = 0) -> None:
        super().__init__(mappings)
        self.mask = mask


#: Estimated storage cost of one correspondence (two element ids + a score),
#: used by the compression-ratio metric.  The exact constant does not matter;
#: it only scales both sides of the ratio.
CORRESPONDENCE_BYTES = 12
#: Estimated storage cost of one mapping id reference.
MAPPING_ID_BYTES = 4
#: Estimated fixed overhead per stored mapping (id + probability).
MAPPING_HEADER_BYTES = 12


class MappingSet:
    """A set of possible mappings ``M = {m_1, ..., m_|M|}`` with probabilities.

    Probabilities sum to one (the paper's model); they are usually obtained
    by normalising the mapping scores over the retained top-h mappings.

    Parameters
    ----------
    matching:
        The schema matching the mappings were derived from.
    mappings:
        The possible mappings.  Their ``mapping_id`` values must be the
        positions ``0 .. len-1``.
    normalize:
        When ``True`` (default) the constructor recomputes probabilities from
        the mapping scores; when ``False`` the provided probabilities are
        validated instead.
    """

    def __init__(
        self,
        matching: SchemaMatching,
        mappings: Sequence[Mapping],
        normalize: bool = True,
    ) -> None:
        if not mappings:
            raise MappingError("a mapping set must contain at least one mapping")
        self.matching = matching
        if normalize:
            total = sum(mapping.score for mapping in mappings)
            if total <= 0:
                # All-empty mappings: fall back to a uniform distribution.
                uniform = 1.0 / len(mappings)
                mappings = [m.with_probability(uniform) for m in mappings]
            else:
                mappings = [m.with_probability(m.score / total) for m in mappings]
        self._mappings: list[Mapping] = list(mappings)
        self._validate()
        # Compiled bitset view (repro.engine.compiled), built lazily on first
        # use and memoized for the set's lifetime: a MappingSet is immutable,
        # so the engine's generation machinery (which swaps whole sets on
        # invalidation) also governs the compiled artifact.
        self._compiled: "CompiledMappingSet | None" = None
        self._compiled_lock = threading.Lock()

    @classmethod
    def _patched(
        cls, matching: SchemaMatching, mappings: Sequence[Mapping]
    ) -> "MappingSet":
        """Fast private constructor for delta application (no re-validation).

        :func:`repro.engine.delta.apply_mapping_delta` validates exactly the
        touched mappings (the untouched ones were validated when the
        predecessor set was built), so re-running the full ``O(h x pairs)``
        validation here would defeat the point of an incremental update.
        """
        self = cls.__new__(cls)
        self.matching = matching
        self._mappings = list(mappings)
        self._compiled = None
        self._compiled_lock = threading.Lock()
        return self

    def _validate(self) -> None:
        # Mappings share most of their pairs: look each distinct one up once.
        known: set[tuple[int, int]] = set()
        for index, mapping in enumerate(self._mappings):
            if mapping.mapping_id != index:
                raise MappingError(
                    f"mapping at position {index} has id {mapping.mapping_id}; ids must be "
                    "their positions"
                )
            for source_id, target_id in mapping.correspondences - known:
                if self.matching.get(source_id, target_id) is None:
                    raise MappingError(
                        f"mapping {index} uses pair ({source_id}, {target_id}) which is not a "
                        f"correspondence of matching {self.matching.name!r}"
                    )
            known |= mapping.correspondences
        total_probability = sum(m.probability for m in self._mappings)
        if abs(total_probability - 1.0) > 1e-6:
            raise MappingError(
                f"mapping probabilities must sum to 1, got {total_probability:.6f}"
            )

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._mappings)

    def __iter__(self) -> Iterator[Mapping]:
        return iter(self._mappings)

    def __getitem__(self, mapping_id: int) -> Mapping:
        return self._mappings[mapping_id]

    @property
    def mappings(self) -> list[Mapping]:
        """The mappings, indexed by ``mapping_id``."""
        return list(self._mappings)

    def subset(self, mask: int) -> MappingSubset:
        """This set's mappings whose ids are in ``mask`` (ascending id), carrying ``mask``.

        Also re-anchors a subset taken from an earlier set with the same ids
        to this set's current :class:`Mapping` objects: ``subset(old.mask)``.
        """
        return MappingSubset(map(self._mappings.__getitem__, iter_mapping_ids(mask)), mask)

    # ------------------------------------------------------------------ #
    # Compiled bitset view
    # ------------------------------------------------------------------ #
    def compile(self) -> "CompiledMappingSet":
        """Lower the set into the compiled bitset representation (memoized).

        The first call builds a :class:`~repro.engine.compiled.CompiledMappingSet`
        — per-correspondence posting lists, per-target source partitions and a
        probability column, all encoded as Python-int bitmasks — and caches it
        on the set; later calls (from any thread) return the same object.
        """
        if self._compiled is None:
            from repro.engine.compiled import CompiledMappingSet

            with self._compiled_lock:
                if self._compiled is None:
                    self._compiled = CompiledMappingSet(self)
        return self._compiled

    @property
    def is_compiled(self) -> bool:
        """``True`` once :meth:`compile` has built the bitset view."""
        return self._compiled is not None

    # ------------------------------------------------------------------ #
    # Queries used by the block tree and PTQ evaluation
    # ------------------------------------------------------------------ #
    def mappings_with_pair(self, key: CorrespondenceKey) -> set[int]:
        """Return ids of the mappings containing the correspondence ``key``."""
        return set(iter_mapping_ids(self.compile().pair_mask(key)))

    def relevant_mappings(self, target_ids: Iterable[int]) -> list[Mapping]:
        """The paper's ``filter_mappings``: mappings covering every target id.

        A mapping is *irrelevant* for a query when some query node's target
        element has no correspondence in it; such mappings can only produce
        empty (zero-probability) results and are pruned.  Runs on the compiled
        bitset view: one AND per target element instead of per-mapping hash
        lookups.
        """
        return self.compile().mappings_covering(target_ids)

    def top_k_by_probability(self, k: int) -> list[Mapping]:
        """Return the ``k`` mappings with the highest probabilities."""
        if k <= 0:
            raise MappingError(f"k must be positive, got {k}")
        from repro.query.results import rank_by_probability

        return rank_by_probability(self._mappings)[:k]

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def o_ratio(self) -> float:
        """Average pairwise overlap ratio of the mappings (Table II's *o-ratio*)."""
        mappings = self._mappings
        if len(mappings) < 2:
            return 1.0
        total = 0.0
        pairs = 0
        for i in range(len(mappings)):
            for j in range(i + 1, len(mappings)):
                total += mappings[i].overlap_ratio(mappings[j])
                pairs += 1
        return total / pairs

    def naive_storage_bytes(self) -> int:
        """Estimated bytes to store every mapping with all its correspondences.

        This is the denominator of the paper's compression ratio: the cost of
        the plain representation that repeats shared correspondences in every
        mapping.
        """
        total = 0
        for mapping in self._mappings:
            total += MAPPING_HEADER_BYTES
            total += CORRESPONDENCE_BYTES * len(mapping.correspondences)
        return total

    def describe(self) -> dict:
        """Summary statistics of the mapping set."""
        sizes = [len(m) for m in self._mappings]
        return {
            "num_mappings": len(self._mappings),
            "matching": self.matching.name,
            "min_size": min(sizes),
            "max_size": max(sizes),
            "mean_size": sum(sizes) / len(sizes),
            "o_ratio": self.o_ratio(),
        }

    def __repr__(self) -> str:
        return f"MappingSet(matching={self.matching.name!r}, mappings={len(self._mappings)})"
