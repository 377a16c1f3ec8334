"""A single possible mapping between two schemas."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import MappingError
from repro.matching.correspondence import CorrespondenceKey

__all__ = ["Mapping"]


def _check_probability(probability: float) -> None:
    if not (0.0 <= probability <= 1.0 + 1e-9):
        raise MappingError(f"mapping probability must be in [0, 1], got {probability!r}")


@dataclass(frozen=True)
class Mapping:
    """One possible mapping ``m_i`` of a schema matching.

    A mapping is a set of correspondences in which every source element and
    every target element appears at most once (the paper's requirement that
    an element "either has no correspondence, or only matches to one single
    element in another schema").

    Parameters
    ----------
    mapping_id:
        Index of the mapping within its :class:`~repro.mapping.mapping_set.MappingSet`.
    correspondences:
        The ``(source_id, target_id)`` pairs the mapping contains.
    score:
        Unnormalised mapping score (by default the sum of correspondence
        scores, following the paper and [Gal 2006]).
    probability:
        Probability ``p_i`` that the mapping is the true one; assigned by the
        mapping set when normalising scores.
    """

    mapping_id: int
    correspondences: frozenset[CorrespondenceKey]
    score: float
    probability: float = 0.0
    _target_index: dict[int, int] = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        if self.score < 0:
            raise MappingError(f"mapping score must be non-negative, got {self.score!r}")
        _check_probability(self.probability)
        source_ids = [source_id for source_id, _ in self.correspondences]
        target_ids = [target_id for _, target_id in self.correspondences]
        if len(set(source_ids)) != len(source_ids):
            raise MappingError(
                f"mapping {self.mapping_id} maps some source element more than once"
            )
        if len(set(target_ids)) != len(target_ids):
            raise MappingError(
                f"mapping {self.mapping_id} maps some target element more than once"
            )
        # Cache the target -> source lookup; the dataclass is frozen so we
        # populate the pre-created dict in place.
        self._target_index.update(
            {target_id: source_id for source_id, target_id in self.correspondences}
        )

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.correspondences)

    def __contains__(self, key: object) -> bool:
        return key in self.correspondences

    def source_ids(self) -> set[int]:
        """Source element ids that have a correspondence in this mapping."""
        return {source_id for source_id, _ in self.correspondences}

    def target_ids(self) -> set[int]:
        """Target element ids that have a correspondence in this mapping."""
        return set(self._target_index)

    def source_for_target(self, target_id: int) -> int | None:
        """Return the source element mapped to ``target_id``, or ``None``."""
        return self._target_index.get(target_id)

    def covers_targets(self, target_ids) -> bool:
        """``True`` when every target element in ``target_ids`` is mapped."""
        return all(target_id in self._target_index for target_id in target_ids)

    # ------------------------------------------------------------------ #
    # Overlap
    # ------------------------------------------------------------------ #
    def overlap_ratio(self, other: "Mapping") -> float:
        """The paper's o-ratio of two mappings: ``|mi ∩ mj| / |mi ∪ mj|``."""
        if not self.correspondences and not other.correspondences:
            return 1.0
        intersection = len(self.correspondences & other.correspondences)
        union = len(self.correspondences | other.correspondences)
        return intersection / union

    def with_probability(self, probability: float) -> "Mapping":
        """Return a copy of this mapping carrying ``probability``.

        The correspondences are unchanged and were validated when this
        mapping was built, so only the probability is checked, and the copy
        shares the (read-only) target index instead of rebuilding it.
        """
        _check_probability(probability)
        copy = object.__new__(Mapping)
        copy.__dict__.update(self.__dict__, probability=probability)
        return copy

    def __repr__(self) -> str:
        return (
            f"Mapping(id={self.mapping_id}, correspondences={len(self.correspondences)}, "
            f"score={self.score:.3f}, p={self.probability:.4f})"
        )
