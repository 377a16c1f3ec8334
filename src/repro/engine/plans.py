"""Pluggable PTQ evaluation plans — the engine's strategy layer.

A :class:`QueryPlan` packages one way of evaluating a probabilistic twig
query: the ``basic`` plan runs the paper's per-mapping Algorithm 3, the
``blocktree`` plan runs the c-block sharing Algorithm 4, and the ``compiled``
plan (the engine default) runs on the mapping set's compiled bitset view —
mappings are grouped by identical query rewrite up front and each distinct
rewrite is evaluated exactly once.  All plans produce identical
:class:`~repro.query.results.PTQResult` contents; a plan is a pure strategy
choice, so the engine (or a caller forcing an override) can pick one without
affecting answers.

Every plan shares the resolve → filter → evaluate pipeline through
:meth:`QueryPlan.run`, which accepts pre-computed ``embeddings`` and
``relevant`` mappings so a :class:`~repro.engine.prepared.PreparedQuery` can
cache that work across executions.  Top-k restriction (Definition 5) also
lives here: the k best answers are exactly the k most probable relevant
mappings.

Additional plans can be added with :func:`register_plan`; lookup by name is
case-, dash- and underscore-insensitive (``"block-tree"`` and ``"blocktree"``
name the same plan).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from repro.core.blocktree import BlockTree
from repro.document.document import XMLDocument
from repro.exceptions import QueryError
from repro.mapping.mapping import Mapping
from repro.mapping.mapping_set import MappingSet, MappingSubset
from repro.query.ptq import (
    evaluate_resolved_basic,
    evaluate_resolved_blocktree,
    evaluate_resolved_compiled,
    filter_mappings,
)
from repro.query.resolve import Embedding, resolve_query
from repro.query.results import PTQResult, rank_by_probability
from repro.query.twig import TwigQuery

__all__ = [
    "QueryPlan",
    "BasicPlan",
    "BlockTreePlan",
    "CompiledPlan",
    "ExplainReport",
    "plan_for",
    "register_plan",
    "available_plans",
    "select_top_k",
    "anchored_subtree_paths",
]


def select_top_k(relevant: Sequence[Mapping], k: int) -> list[Mapping]:
    """Keep the ``k`` most probable mappings (ties broken by mapping id).

    Raises
    ------
    QueryError
        If ``k`` is not positive.
    """
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    return rank_by_probability(relevant)[:k]


class QueryPlan:
    """One strategy for evaluating a PTQ (see module docstring).

    Subclasses set :attr:`name` (the registry key) and
    :attr:`uses_block_tree`, and implement :meth:`evaluate` over
    pre-resolved embeddings and a pre-filtered mapping subset.
    """

    #: Registry name of the plan (normalised: lowercase, no separators).
    name: str = "abstract"
    #: Whether :meth:`evaluate` needs a block tree.
    uses_block_tree: bool = False
    #: Whether :meth:`evaluate` runs on the compiled bitset view of the
    #: mapping set (``MappingSet.compile()``); ``explain()`` reports the
    #: compiled rewrite/bitset statistics for such plans.
    uses_compiled: bool = False

    def run(
        self,
        query: TwigQuery,
        mapping_set: MappingSet,
        document: XMLDocument,
        *,
        block_tree: Optional[BlockTree] = None,
        embeddings: Optional[list[Embedding]] = None,
        relevant: Optional[Iterable[Mapping]] = None,
        mappings: Optional[Iterable[Mapping]] = None,
        k: Optional[int] = None,
    ) -> PTQResult:
        """Full pipeline: resolve and filter (unless pre-computed), then evaluate.

        Parameters
        ----------
        query, mapping_set, document:
            The PTQ and the artifacts it runs over.
        block_tree:
            Required by plans with :attr:`uses_block_tree`.
        embeddings:
            Pre-resolved embeddings of the query into the target schema;
            resolved here when omitted.
        relevant:
            Pre-filtered relevant mappings (from :func:`filter_mappings`
            over the whole mapping set); computed here when omitted.  Any
            iterable is accepted and materialised once; a
            :class:`~repro.mapping.mapping_set.MappingSubset` is used as is.
        mappings:
            Explicit candidate subset (any iterable); overrides ``relevant``
            and is re-filtered, mirroring the seed free functions.
        k:
            Optional top-k restriction (Definition 5).
        """
        if k is not None and k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        if embeddings is None:
            embeddings = resolve_query(query, mapping_set.matching.target)
        # Normalise candidate inputs to concrete lists exactly once: the
        # evaluators iterate their mapping subset once per embedding, so a
        # caller-supplied generator or other one-shot iterable must not reach
        # them raw (it would silently drain after the first embedding).
        if mappings is not None:
            selected: Sequence[Mapping] = filter_mappings(mappings, embeddings)
        elif isinstance(relevant, MappingSubset):
            # Already concrete and carrying its mask for the compiled plan.
            selected = relevant
        elif relevant is not None:
            selected = list(relevant)
        else:
            selected = filter_mappings(mapping_set, embeddings)
        if k is not None:
            selected = select_top_k(selected, k)
        return self.evaluate(
            query, mapping_set, document, embeddings, selected, block_tree
        )

    def evaluate(
        self,
        query: TwigQuery,
        mapping_set: MappingSet,
        document: XMLDocument,
        embeddings: list[Embedding],
        mappings: Sequence[Mapping],
        block_tree: Optional[BlockTree],
    ) -> PTQResult:
        """Evaluate over pre-resolved embeddings and pre-filtered mappings."""
        raise NotImplementedError


class BasicPlan(QueryPlan):
    """Algorithm 3: rewrite and match the whole query once per mapping."""

    name = "basic"
    uses_block_tree = False

    def evaluate(
        self, query, mapping_set, document, embeddings, mappings, block_tree
    ):
        """Delegate to :func:`repro.query.ptq.evaluate_resolved_basic`."""
        return evaluate_resolved_basic(query, mapping_set, document, embeddings, mappings)


class BlockTreePlan(QueryPlan):
    """Algorithm 4: share evaluation across mappings through c-blocks."""

    name = "blocktree"
    uses_block_tree = True

    def evaluate(
        self, query, mapping_set, document, embeddings, mappings, block_tree
    ):
        """Delegate to :func:`repro.query.ptq.evaluate_resolved_blocktree`."""
        if block_tree is None:
            raise QueryError("the blocktree plan requires a block tree")
        return evaluate_resolved_blocktree(
            query, mapping_set, document, block_tree, embeddings, mappings
        )


class CompiledPlan(QueryPlan):
    """Compiled core: group mappings by identical rewrite, evaluate each once.

    Runs on the mapping set's compiled bitset view
    (:mod:`repro.engine.compiled`).  Generalises the c-block sharing of
    Algorithm 4 — sharing applies even where the block tree carries no
    anchored blocks — without needing the tree at all.
    """

    name = "compiled"
    uses_block_tree = False
    uses_compiled = True

    def evaluate(
        self, query, mapping_set, document, embeddings, mappings, block_tree
    ):
        """Delegate to :func:`repro.query.ptq.evaluate_resolved_compiled`."""
        return evaluate_resolved_compiled(
            query, mapping_set, document, embeddings, mappings
        )


# --------------------------------------------------------------------------- #
# Plan registry
# --------------------------------------------------------------------------- #
_PLAN_REGISTRY: dict[str, QueryPlan] = {}


def _normalize(name: str) -> str:
    return name.strip().lower().replace("-", "").replace("_", "")


def register_plan(plan: QueryPlan) -> QueryPlan:
    """Register ``plan`` under its (normalised) :attr:`~QueryPlan.name`."""
    _PLAN_REGISTRY[_normalize(plan.name)] = plan
    return plan


def available_plans() -> tuple[str, ...]:
    """Names of the registered plans, in registration order."""
    return tuple(plan.name for plan in _PLAN_REGISTRY.values())


def plan_for(plan: Union[str, QueryPlan]) -> QueryPlan:
    """Resolve a plan name (or pass a plan instance through).

    Raises
    ------
    QueryError
        If the name is not registered.
    """
    if isinstance(plan, QueryPlan):
        return plan
    try:
        return _PLAN_REGISTRY[_normalize(str(plan))]
    except KeyError:
        raise QueryError(
            f"unknown query plan {plan!r}; available plans: {', '.join(available_plans())}"
        ) from None


register_plan(BasicPlan())
register_plan(BlockTreePlan())
register_plan(CompiledPlan())


# --------------------------------------------------------------------------- #
# Explain support
# --------------------------------------------------------------------------- #
def anchored_subtree_paths(
    query: TwigQuery, embeddings: list[Embedding], block_tree: BlockTree
) -> tuple[str, ...]:
    """Highest anchored subtree per embedding, as target-schema paths.

    For each embedding this walks the query top-down (pre-order) and records
    the first query node whose target element has an entry in the block
    tree's hash table — the point where Algorithm 4 switches from
    decomposition to per-block evaluation.
    """
    paths: list[str] = []
    schema = block_tree.target_schema
    for embedding in embeddings:
        for node in query.root.iter_subtree():
            path = schema.get(embedding[node.node_id]).path
            tree_node = block_tree.node_for_path(path)
            if tree_node is not None and tree_node.has_blocks:
                paths.append(path)
                break
    return tuple(dict.fromkeys(paths))


@dataclass(frozen=True)
class ExplainReport:
    """Structured account of how one PTQ execution was (or would be) carried out.

    Produced by :meth:`repro.engine.prepared.PreparedQuery.explain`; rendered
    by the CLI's ``explain`` subcommand.  ``timings_ms`` holds the measured
    ``resolve``/``filter``/``evaluate`` stage times — a stage served from a
    prepared-query cache reports (close to) zero.  ``cache`` records how the session's result cache
    participated (``"hit"``, ``"miss"``, ``"retained"`` — a pre-delta entry
    that survived the last mapping delta — or ``"bypass"``) and
    ``cache_stats`` snapshots its counters.
    ``compiled_stats`` is populated when the plan ran on the compiled bitset
    core: distinct-rewrite counts for this query plus bitset statistics of the
    compiled artifact (see
    :meth:`repro.engine.compiled.CompiledMappingSet.rewrite_stats`).
    ``artifacts`` records per-artifact provenance — ``loaded`` (restored from
    a persistent store, with the deserialization time) versus ``built`` (cold
    derivation) — mirroring the cache-participation reporting.
    ``reason`` says why the plan ran: the default plan, or forced by the
    caller.
    """

    query: str
    plan: str
    reason: str
    num_mappings: int
    num_embeddings: int
    num_relevant: int
    relevant_mapping_ids: tuple[int, ...]
    k: Optional[int]
    num_selected: int
    num_blocks: Optional[int]
    anchored_paths: tuple[str, ...]
    timings_ms: dict[str, float]
    num_answers: int
    num_non_empty: int
    cache: Optional[str] = None
    cache_stats: Optional[dict] = None
    compiled_stats: Optional[dict] = None
    artifacts: Optional[dict] = None

    def to_dict(self) -> dict:
        """JSON-serialisable view of the report."""
        return {
            "query": self.query,
            "plan": self.plan,
            "reason": self.reason,
            "num_mappings": self.num_mappings,
            "num_embeddings": self.num_embeddings,
            "num_relevant": self.num_relevant,
            "relevant_mapping_ids": list(self.relevant_mapping_ids),
            "k": self.k,
            "num_selected": self.num_selected,
            "num_blocks": self.num_blocks,
            "anchored_paths": list(self.anchored_paths),
            "timings_ms": {stage: round(ms, 3) for stage, ms in self.timings_ms.items()},
            "num_answers": self.num_answers,
            "num_non_empty": self.num_non_empty,
            "cache": self.cache,
            "cache_stats": self.cache_stats,
            "compiled_stats": self.compiled_stats,
            "artifacts": self.artifacts,
        }

    def format(self) -> str:
        """Human-readable multi-line rendering (used by the CLI)."""
        ids = ", ".join(str(mapping_id) for mapping_id in self.relevant_mapping_ids[:12])
        if len(self.relevant_mapping_ids) > 12:
            ids += f", ... ({len(self.relevant_mapping_ids)} total)"
        timings = "  ".join(f"{stage}={ms:.2f} ms" for stage, ms in self.timings_ms.items())
        lines = [
            f"query:      {self.query}",
            f"plan:       {self.plan} ({self.reason})",
            f"mappings:   |M|={self.num_mappings}  relevant={self.num_relevant}"
            f"  selected={self.num_selected}"
            + (f"  (top-k, k={self.k})" if self.k is not None else ""),
            f"relevant:   [{ids}]",
            f"embeddings: {self.num_embeddings}",
        ]
        if self.num_blocks is not None:
            anchored = ", ".join(self.anchored_paths) if self.anchored_paths else "(none)"
            lines.append(f"c-blocks:   {self.num_blocks}")
            lines.append(f"anchored:   {anchored}")
        if self.compiled_stats is not None:
            stats = self.compiled_stats
            lines.append(
                "compiled:   "
                f"{stats.get('num_distinct_rewrites', 0)} distinct rewrites / "
                f"{stats.get('num_rewrite_groups', 0)} groups "
                f"(saved {stats.get('evaluations_saved', 0)} evaluations; "
                f"{stats.get('num_posting_lists', 0)} posting lists, "
                f"{stats.get('bitset_bytes', 0)} B bitsets)"
            )
        lines.append(f"timings:    {timings}")
        if self.cache is not None:
            stats = self.cache_stats or {}
            detail = ""
            if stats:
                detail = (
                    f" (hits={stats.get('hits', 0)} misses={stats.get('misses', 0)}"
                    f" hit_rate={stats.get('hit_rate', 0.0)})"
                )
            lines.append(f"cache:      {self.cache}{detail}")
        if self.artifacts:
            parts = []
            for name, info in sorted(self.artifacts.items()):
                source = info.get("source", "?")
                ms = info.get("ms")
                parts.append(
                    f"{name}={source}" + (f"({ms:.1f} ms)" if ms is not None else "")
                )
            lines.append(f"artifacts:  {'  '.join(parts)}")
        lines.append(f"answers:    {self.num_answers} ({self.num_non_empty} non-empty)")
        return "\n".join(lines)
