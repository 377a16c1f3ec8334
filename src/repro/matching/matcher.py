"""The COMA++-like schema matcher.

:class:`SchemaMatcher` produces a :class:`~repro.matching.matching.SchemaMatching`
from two schemas by combining three similarity signals:

* **linguistic** — :func:`repro.matching.similarity.name_similarity` over the
  element labels;
* **context** — the same measure over the *parent* labels (a light-weight
  version of COMA++'s path/context matchers);
* **structure** — soft overlap between the label-token multisets of the two
  elements' children, which lets structurally equivalent containers match
  even when their own labels differ (e.g. ``POLine`` vs ``LineItemDetail``).

The paper's datasets are produced by COMA++ with either the *fragment* (`f`)
or the *context* (`c`) strategy; the matcher mirrors that switch: the
``fragment`` strategy ignores the parent-context signal and uses a stricter
acceptance threshold, which — as in Table II — yields fewer correspondences.

Candidate generation is token-indexed: only element pairs sharing at least
one label token (of either the element or its children) are scored, which
keeps matching two ~1000-element schemas fast while retaining every pair a
linguistic matcher could plausibly accept.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._rng import make_rng
from repro.exceptions import MatchingError
from repro.matching.correspondence import Correspondence
from repro.matching.matching import SchemaMatching
from repro.matching.similarity import (
    name_similarity,
    path_similarity,
    token_set_similarity,
    tokenize,
)
from repro.schema.element import SchemaElement
from repro.schema.schema import Schema

__all__ = ["MatcherConfig", "SchemaMatcher"]


@dataclass(frozen=True, slots=True)
class MatcherConfig:
    """Configuration of :class:`SchemaMatcher`.

    Parameters
    ----------
    strategy:
        ``"context"`` (COMA++ `c` option) or ``"fragment"`` (`f` option).
    threshold:
        Minimum combined score for a correspondence to be kept.  The fragment
        strategy adds :attr:`fragment_threshold_bonus` on top of this.
    max_per_target:
        At most this many correspondences are kept per target element
        (the highest-scoring ones), mirroring COMA++'s top-N selection.
    max_per_source:
        At most this many correspondences are kept per source element.
    noise:
        Half-width of the uniform perturbation added to every score, modelling
        matcher instability.  Scores stay clipped to ``[0, 1]``.
    seed:
        Base seed for the noise stream.
    """

    strategy: str = "context"
    threshold: float = 0.56
    max_per_target: int = 3
    max_per_source: int = 2
    noise: float = 0.015
    fragment_threshold_bonus: float = 0.10
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.strategy not in ("context", "fragment"):
            raise MatchingError(
                f"unknown matcher strategy {self.strategy!r}; expected 'context' or 'fragment'"
            )
        if not (0.0 < self.threshold < 1.0):
            raise MatchingError("matcher threshold must be strictly between 0 and 1")
        if self.max_per_target < 1 or self.max_per_source < 1:
            raise MatchingError("per-element correspondence caps must be at least 1")
        if self.noise < 0:
            raise MatchingError("noise must be non-negative")


class SchemaMatcher:
    """Produces scored correspondences between two schemas (see module docs)."""

    def __init__(self, config: MatcherConfig | None = None) -> None:
        self.config = config or MatcherConfig()

    # ------------------------------------------------------------------ #
    # Feature extraction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _child_tokens(schema: Schema) -> dict[int, tuple[str, ...]]:
        """Sorted distinct label tokens of each element's children, by id."""
        return {
            element.element_id: tuple(
                sorted({token for child in element.children for token in tokenize(child.label)})
            )
            for element in schema
        }

    def _score_pair(
        self,
        source: SchemaElement,
        target: SchemaElement,
        source_children: tuple[str, ...],
        target_children: tuple[str, ...],
    ) -> float:
        """Combined similarity score of an element pair, before noise."""
        linguistic = name_similarity(source.label, target.label)
        structural = token_set_similarity(source_children, target_children)
        if self.config.strategy == "fragment":
            return 0.7 * linguistic + 0.3 * structural
        # Context strategy: compare the full root paths, which disambiguates
        # identically labelled elements living under different parents
        # (e.g. the addresses of the delivery and the billing party).
        context = path_similarity(source.path, target.path)
        return 0.5 * linguistic + 0.25 * structural + 0.25 * context

    # ------------------------------------------------------------------ #
    # Candidate generation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _token_index(schema: Schema) -> dict[str, set[int]]:
        index: dict[str, set[int]] = {}
        for element in schema:
            for token in tokenize(element.label):
                index.setdefault(token, set()).add(element.element_id)
        return index

    def _candidate_pairs(self, source: Schema, target: Schema) -> set[tuple[int, int]]:
        """Pairs sharing at least one label token (directly or via children)."""
        target_index = self._token_index(target)
        candidates: set[tuple[int, int]] = set()
        for source_element in source:
            tokens = set(tokenize(source_element.label))
            # Give containers a chance to match by their content as well.
            for child in source_element.children:
                tokens.update(tokenize(child.label))
            target_ids: set[int] = set()
            for token in tokens:
                target_ids.update(target_index.get(token, ()))
            for target_id in target_ids:
                candidates.add((source_element.element_id, target_id))
        return candidates

    # ------------------------------------------------------------------ #
    # Matching
    # ------------------------------------------------------------------ #
    def match(self, source: Schema, target: Schema, name: str = "matching") -> SchemaMatching:
        """Match ``source`` against ``target`` and return the scored matching.

        The result is deterministic for a given configuration and pair of
        schemas.
        """
        config = self.config
        rng = make_rng(config.seed, f"matcher:{source.name}->{target.name}:{config.strategy}")
        threshold = config.threshold
        if config.strategy == "fragment":
            threshold += config.fragment_threshold_bonus

        source_children = self._child_tokens(source)
        target_children = self._child_tokens(target)
        scored: list[Correspondence] = []
        for source_id, target_id in sorted(self._candidate_pairs(source, target)):
            score = self._score_pair(
                source.get(source_id),
                target.get(target_id),
                source_children[source_id],
                target_children[target_id],
            )
            if config.noise:
                # Multiplicative perturbation keeps scores in [0, 1] without
                # clipping, so near-ties stay near ties instead of collapsing
                # into exact ties at 1.0.
                score *= 1.0 - rng.uniform(0.0, config.noise)
            score = min(1.0, max(0.0, score))
            if score >= threshold:
                scored.append(Correspondence(source_id, target_id, round(score, 4)))

        selected = self._select(scored)
        matching = SchemaMatching(source, target, name=name)
        for correspondence in selected:
            matching.add(correspondence)
        return matching

    def _select(self, scored: list[Correspondence]) -> list[Correspondence]:
        """Apply the per-source and per-target caps (highest scores win)."""
        config = self.config
        by_target: dict[int, list[Correspondence]] = {}
        for correspondence in scored:
            by_target.setdefault(correspondence.target_id, []).append(correspondence)

        per_target_kept: list[Correspondence] = []
        for correspondences in by_target.values():
            correspondences.sort(key=lambda c: (-c.score, c.source_id))
            per_target_kept.extend(correspondences[: config.max_per_target])

        by_source: dict[int, list[Correspondence]] = {}
        for correspondence in per_target_kept:
            by_source.setdefault(correspondence.source_id, []).append(correspondence)

        final: list[Correspondence] = []
        for correspondences in by_source.values():
            correspondences.sort(key=lambda c: (-c.score, c.target_id))
            final.extend(correspondences[: config.max_per_source])
        final.sort(key=lambda c: c.key)
        return final
