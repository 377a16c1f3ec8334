"""Result model for probabilistic twig queries."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Optional, TypeVar

from repro.document.document import XMLDocument
from repro.query.twig import TwigQuery

__all__ = ["PTQAnswer", "PTQResult", "CanonicalMatch", "rank_by_probability"]

#: A canonical match: sorted tuple of ``(query node id, document node id)`` pairs.
CanonicalMatch = tuple[tuple[int, int], ...]

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

    Besides the raw per-mapping answers, the class offers the aggregated
    views used in the paper's introduction example: the probability that a
    particular *value* (or a particular match pattern) appears in the answer.
    """

    def __init__(
        self,
        query: TwigQuery,
        answers: list[PTQAnswer],
        document: Optional[XMLDocument] = None,
    ) -> None:
        self.query = query
        self.answers = rank_by_probability(answers)
        self.document = document

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator[PTQAnswer]:
        return iter(self.answers)

    def answer_for(self, mapping_id: int) -> Optional[PTQAnswer]:
        """Return the answer contributed by ``mapping_id``, or ``None``."""
        for answer in self.answers:
            if answer.mapping_id == mapping_id:
                return answer
        return None

    # ------------------------------------------------------------------ #
    # Aggregations
    # ------------------------------------------------------------------ #
    def total_probability(self) -> float:
        """Sum of the probabilities of the returned answers."""
        return sum(answer.probability for answer in self.answers)

    def non_empty(self) -> list[PTQAnswer]:
        """Answers whose mapping produced at least one match."""
        return [answer for answer in self.answers if not answer.is_empty]

    def pattern_distribution(self) -> dict[frozenset[CanonicalMatch], float]:
        """Probability of each distinct match *set* (answers grouped by pattern)."""
        distribution: dict[frozenset[CanonicalMatch], float] = {}
        for answer in self.answers:
            distribution[answer.matches] = distribution.get(answer.matches, 0.0) + answer.probability
        return distribution

    def value_distribution(self, node_id: Optional[int] = None) -> dict[Optional[str], float]:
        """Probability that each text value appears in the answer.

        For every mapping, the values taken by the query's output node (or
        the node given by ``node_id``) across its matches are collected; the
        mapping's probability is added to each distinct value it produces.
        This reproduces the paper's introduction example, where the answer to
        ``//IP//ICN`` is ``{("Cathy", 0.3), ("Bob", 0.3), ("Alice", 0.2)}``.

        Requires the result to have been built with its source document.
        """
        if self.document is None:
            raise ValueError("value_distribution requires the result's source document")
        output_id = self.query.output_node.node_id if node_id is None else node_id
        distribution: dict[Optional[str], float] = {}
        for answer in self.answers:
            values: set[Optional[str]] = set()
            for match in answer.matches:
                for query_node_id, document_node_id in match:
                    if query_node_id == output_id:
                        values.add(self.document.get(document_node_id).value)
            for value in values:
                distribution[value] = distribution.get(value, 0.0) + answer.probability
        return distribution

    def __repr__(self) -> str:
        return f"PTQResult(query={self.query.text!r}, answers={len(self.answers)})"
