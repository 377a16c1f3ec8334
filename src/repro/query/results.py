"""Result model for probabilistic twig queries.

A result keeps the shape evaluation produces: disjoint *cells* (a bitmask of
the mappings that share one match set, and that set), the probability column
and its ranking.  Mappings share sub-answers (the reason for the paper's
c-blocks), so hundreds of answers are a handful of cells, and the per-mapping
rows of :attr:`PTQResult.answers` are built only when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence, TypeVar

from repro.document.document import XMLDocument
from repro.mapping.mapping_set import ids_in_order
from repro.query.twig import TwigQuery

__all__ = ["PTQAnswer", "PTQResult", "CanonicalMatch", "rank_by_probability"]

#: A canonical match: sorted tuple of ``(query node id, document node id)`` pairs.
CanonicalMatch = tuple[tuple[int, int], ...]
#: One cell of a result: the bitmask of the mappings sharing a match set, and the set.
Cell = tuple[int, frozenset[CanonicalMatch]]

_Ranked = TypeVar("_Ranked")
_BY_ID = attrgetter("mapping_id")
_BY_PROBABILITY = attrgetter("probability")


def rank_by_probability(items: Iterable[_Ranked]) -> list[_Ranked]:
    """Order answers or mappings most probable first, ties by ascending mapping id.

    Equivalent to sorting by ``(-probability, mapping_id)``, but as two
    stable sorts on attributes, so no key tuple is allocated per item (a
    sort key tuple per answer was a measurable share of what each query
    evaluation allocated).  Input already in ascending-id order makes the
    first sort a linear pass.
    """
    ranked = sorted(items, key=_BY_ID)
    ranked.sort(key=_BY_PROBABILITY, reverse=True)
    return ranked


@dataclass(frozen=True, slots=True)
class PTQAnswer:
    """One ``(R_i, pr(R_i))`` pair of a PTQ result.

    ``matches`` is the set of matches of the query on the source document
    through mapping ``mapping_id``; ``probability`` is the probability that
    this mapping (and therefore this answer) is the correct one.
    """

    mapping_id: int
    probability: float
    matches: frozenset[CanonicalMatch]

    @property
    def is_empty(self) -> bool:
        """``True`` when the mapping produced no match at all."""
        return not self.matches

    def __repr__(self) -> str:
        return (
            f"PTQAnswer(mapping={self.mapping_id}, p={self.probability:.4f}, "
            f"matches={len(self.matches)})"
        )


class PTQResult:
    """The full answer ``R`` of a probabilistic twig query.

    Besides the per-mapping answers, the class offers the aggregated views
    used in the paper's introduction example: the probability that a
    particular *value* (or a particular match pattern) appears in the answer.
    The constructor groups given rows into cells; evaluators that hold cells
    use :meth:`from_cells`.  A result is immutable (cached results are shared).
    """

    __slots__ = (
        "query",
        "document",
        "_cells",
        "_mask",
        "_probabilities",
        "_ranked",
        "_ids",
        "_rows",
        "__weakref__",
    )

    def __init__(
        self,
        query: TwigQuery,
        answers: Iterable[PTQAnswer],
        document: Optional[XMLDocument] = None,
    ) -> None:
        rows = tuple(rank_by_probability(answers))
        masks: dict[frozenset[CanonicalMatch], int] = {}
        for row in rows:
            masks[row.matches] = masks.get(row.matches, 0) | 1 << row.mapping_id
        ids = [row.mapping_id for row in rows]
        probabilities = {row.mapping_id: row.probability for row in rows}
        self._setup(query, document, [(m, s) for s, m in masks.items()], probabilities, ids)
        self._ids = ids
        self._rows = rows

    @classmethod
    def from_cells(
        cls,
        query: TwigQuery,
        cells: Iterable[Cell],
        probabilities: Sequence[float],
        ranked: Sequence[int],
        document: Optional[XMLDocument] = None,
    ) -> "PTQResult":
        """A result over evaluation's cells, building no row.

        ``cells`` are disjoint ``(mask, match set)`` pairs; ``probabilities``
        is indexed by mapping id; ``ranked`` lists every id of that column
        most probable first, ties by ascending id.  None of them is copied.
        """
        self = cls.__new__(cls)
        self._setup(query, document, cells, probabilities, ranked)
        self._ids = None
        self._rows = None
        return self

    def _setup(self, query, document, cells, probabilities, ranked) -> None:
        self.query = query
        self.document = document
        self._cells: tuple[Cell, ...] = tuple(cells)
        self._mask = 0
        for mask, _ in self._cells:
            self._mask |= mask
        self._probabilities = probabilities
        self._ranked = ranked

    # ------------------------------------------------------------------ #
    # Rows
    # ------------------------------------------------------------------ #
    def _row_ids(self) -> list[int]:
        """The answering mapping ids in row order (computed once)."""
        if self._ids is None:
            self._ids = ids_in_order(self._ranked, self._mask)
        return self._ids

    def _matches_of(self, mapping_id: int) -> frozenset[CanonicalMatch]:
        for mask, matches in self._cells:
            if mask >> mapping_id & 1:
                return matches
        raise KeyError(mapping_id)

    def _build_rows(self, ids: Iterable[int]) -> list[PTQAnswer]:
        probabilities, matches_of = self._probabilities, self._matches_of
        return [PTQAnswer(i, probabilities[i], matches_of(i)) for i in ids]

    @property
    def answers(self) -> tuple[PTQAnswer, ...]:
        """The answers, most probable first (ties by ascending id), built on first access."""
        if self._rows is None:
            self._rows = tuple(self._build_rows(self._row_ids()))
        return self._rows

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._mask.bit_count()

    def __iter__(self) -> Iterator[PTQAnswer]:
        return iter(self.answers)

    def answer_for(self, mapping_id: int) -> Optional[PTQAnswer]:
        """Return the answer contributed by ``mapping_id``, or ``None``."""
        if mapping_id < 0 or not self._mask >> mapping_id & 1:
            return None
        return PTQAnswer(mapping_id, self._probabilities[mapping_id], self._matches_of(mapping_id))

    # ------------------------------------------------------------------ #
    # Aggregations
    # ------------------------------------------------------------------ #
    def total_probability(self) -> float:
        """Sum of the probabilities of the returned answers."""
        return sum(map(self._probabilities.__getitem__, self._row_ids()))

    def non_empty(self) -> list[PTQAnswer]:
        """Answers whose mapping produced at least one match."""
        mask = 0
        for cell_mask, matches in self._cells:
            if matches:
                mask |= cell_mask
        return self._build_rows(ids_in_order(self._row_ids(), mask))

    def pattern_distribution(self) -> dict[frozenset[CanonicalMatch], float]:
        """Probability of each distinct match *set* (answers grouped by pattern)."""
        return self._accumulate([(matches,) for _, matches in self._cells])

    def value_distribution(self, node_id: Optional[int] = None) -> dict[Optional[str], float]:
        """Probability that each text value appears in the answer.

        For every mapping, the values taken by the query's output node (or
        the node given by ``node_id``) across its matches are collected; the
        mapping's probability is added to each distinct value it produces.
        This reproduces the paper's introduction example, where the answer to
        ``//IP//ICN`` is ``{("Cathy", 0.3), ("Bob", 0.3), ("Alice", 0.2)}``.
        The values are collected once per cell.

        Requires the result to have been built with its source document.
        """
        if self.document is None:
            raise ValueError("value_distribution requires the result's source document")
        output_id = self.query.output_node.node_id if node_id is None else node_id
        cell_values = []
        for _, matches in self._cells:
            values: set[Optional[str]] = set()
            for match in matches:
                for query_node_id, document_node_id in match:
                    if query_node_id == output_id:
                        values.add(self.document.get(document_node_id).value)
            cell_values.append(values)
        return self._accumulate(cell_values)

    def _accumulate(self, cell_keys: list) -> dict:
        """Add each row's probability to the keys of its cell (``cell_keys[i]``), rows in order.

        Row by row, so sums and key order equal accumulating over the answers.
        """
        cells = [(mask, keys) for (mask, _), keys in zip(self._cells, cell_keys)]
        distribution: dict = {}
        for mapping_id in self._row_ids():
            probability = self._probabilities[mapping_id]
            keys = next(keys for mask, keys in cells if mask >> mapping_id & 1)
            for key in keys:
                distribution[key] = distribution.get(key, 0.0) + probability
        return distribution

    def __repr__(self) -> str:
        return f"PTQResult(query={self.query.text!r}, answers={len(self)})"
