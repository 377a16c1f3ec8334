"""Probabilistic twig query evaluation (Algorithms 3 and 4, plus the compiled core).

All evaluators share the same pipeline:

1. **resolve** the query against the target schema
   (:func:`repro.query.resolve.resolve_query`);
2. **filter** irrelevant mappings — those lacking a correspondence for some
   query node (:func:`filter_mappings`);
3. **evaluate** the query per mapping.

They differ only in step 3: :func:`evaluate_ptq_basic` rewrites and matches
the whole query once per mapping (Algorithm 3, ``query_basic``);
:func:`evaluate_ptq_blocktree` walks the query top-down, uses the block
tree's hash table to find anchored subtrees whose c-blocks let it evaluate a
sub-query *once per block* instead of once per mapping, and re-assembles
partial results with structural joins (Algorithm 4, ``twig_query_tree`` /
``query_subtree``); :func:`evaluate_resolved_compiled` runs on the
mapping set's compiled bitset view (:mod:`repro.engine.compiled`), grouping
mappings by their full query rewrite and evaluating each distinct rewrite
exactly once.

All evaluators produce identical :class:`~repro.query.results.PTQResult`
contents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.core.blocktree import BlockTree
from repro.document.document import XMLDocument
from repro.exceptions import QueryError
from repro.mapping.mapping import Mapping
from repro.mapping.mapping_set import (
    MappingSet,
    MappingSubset,
    iter_mapping_ids,
    mapping_mask,
)
from repro.query.resolve import Embedding, resolve_query
from repro.query.results import CanonicalMatch, Cell, PTQAnswer, PTQResult
from repro.query.twig import TwigNode, TwigQuery
from repro.query.twigmatch import Match, match_twig, stack_join

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.compiled import CompiledMappingSet

__all__ = [
    "filter_mappings",
    "evaluate_resolved_basic",
    "evaluate_resolved_blocktree",
    "evaluate_resolved_compiled",
    "evaluate_ptq_basic",
    "evaluate_ptq_blocktree",
    "evaluate_ptq",
]

#: Per-mapping results inside the evaluators: mapping id -> list of matches.
MappingResults = dict[int, list[Match]]


# --------------------------------------------------------------------------- #
# Shared pipeline pieces
# --------------------------------------------------------------------------- #
def filter_mappings(
    mapping_set: MappingSet | Iterable[Mapping], embeddings: list[Embedding]
) -> list[Mapping]:
    """Drop mappings that cannot produce any match (the paper's ``filter_mappings``).

    A mapping is *relevant* when, for at least one embedding of the query
    into the target schema, it contains a correspondence for every query
    node's target element.

    ``mapping_set`` may be a :class:`MappingSet` or any iterable of
    :class:`Mapping` objects (including a one-shot generator): the input is
    normalised to a concrete list exactly once at this boundary, and the
    returned list is always freshly materialised, so downstream evaluators —
    which iterate their mapping subset once per embedding — can never drain a
    caller's iterator or alias its storage.

    A :class:`MappingSet` input is filtered through its compiled bitset view
    (one AND per query node instead of per-mapping hash probes); the result —
    relevant mappings in ascending-id order — is identical to the plain scan
    used for loose iterables, and is a
    :class:`~repro.mapping.mapping_set.MappingSubset` carrying its bitmask.
    """
    if isinstance(mapping_set, MappingSet):
        if not embeddings:
            return MappingSubset()
        return mapping_set.compile().relevant_mappings(embeddings)
    mappings = list(mapping_set)
    if not embeddings:
        return []
    required_sets = [set(embedding.values()) for embedding in embeddings]
    return [
        mapping
        for mapping in mappings
        if any(mapping.covers_targets(required) for required in required_sets)
    ]


def _element_map_for_mapping(
    qnode: TwigNode, embedding: Embedding, mapping: Mapping
) -> Optional[dict[int, int]]:
    """Rewrite the resolved subquery under ``mapping`` (query node -> source element)."""
    element_map: dict[int, int] = {}
    for node in qnode.iter_subtree():
        source_id = mapping.source_for_target(embedding[node.node_id])
        if source_id is None:
            return None
        element_map[node.node_id] = source_id
    return element_map


def _single_node_matches(
    document: XMLDocument, qnode: TwigNode, source_element_id: int
) -> list[Match]:
    """Matches of the single-node query ``q0`` (root only), with its value predicate."""
    candidates = document.nodes_of_element(source_element_id)
    if qnode.value is not None:
        candidates = [node for node in candidates if node.value == qnode.value]
    return [{qnode.node_id: candidate} for candidate in candidates]


def _canonicalize(matches: list[Match]) -> frozenset[CanonicalMatch]:
    return frozenset(
        tuple(sorted((query_node_id, node.node_id) for query_node_id, node in match.items()))
        for match in matches
    )


# --------------------------------------------------------------------------- #
# Algorithm 3: query_basic
# --------------------------------------------------------------------------- #
def _twig_query(
    qnode: TwigNode,
    mappings: Sequence[Mapping],
    document: XMLDocument,
    embedding: Embedding,
) -> MappingResults:
    """The paper's ``twig_query``: rewrite and match once per mapping."""
    results: MappingResults = {}
    for mapping in mappings:
        element_map = _element_map_for_mapping(qnode, embedding, mapping)
        if element_map is None:
            results[mapping.mapping_id] = []
        else:
            results[mapping.mapping_id] = match_twig(document, qnode, element_map)
    return results


def _evaluate_resolved(
    query: TwigQuery,
    mapping_set: MappingSet,
    document: XMLDocument,
    embeddings: list[Embedding],
    mappings: Sequence[Mapping],
    twig_query,
) -> PTQResult:
    """Shared per-embedding loop of Algorithms 3 and 4.

    ``twig_query(qnode, covered, embedding) -> MappingResults`` is the only
    point where the two algorithms differ.
    """
    per_mapping: dict[int, frozenset[CanonicalMatch]] = {}
    for embedding in embeddings:
        required = set(embedding.values())
        covered = [mapping for mapping in mappings if mapping.covers_targets(required)]
        results = twig_query(query.root, covered, embedding)
        for mapping_id, matches in results.items():
            canonical = _canonicalize(matches)
            per_mapping[mapping_id] = per_mapping.get(mapping_id, frozenset()) | canonical
    answers = [
        PTQAnswer(mapping_id=mapping_id, probability=mapping_set[mapping_id].probability,
                  matches=matches)
        for mapping_id, matches in per_mapping.items()
    ]
    return PTQResult(query, answers, document=document)


def evaluate_resolved_basic(
    query: TwigQuery,
    mapping_set: MappingSet,
    document: XMLDocument,
    embeddings: list[Embedding],
    mappings: Sequence[Mapping],
) -> PTQResult:
    """Algorithm 3's evaluation loop over pre-resolved embeddings.

    ``embeddings`` must come from :func:`~repro.query.resolve.resolve_query`
    on the same query and target schema, and ``mappings`` from
    :func:`filter_mappings` (optionally restricted further, as in top-k
    evaluation).  The engine's plan layer calls this directly so a prepared
    query can reuse its cached resolve/filter work.
    """

    def twig_query(qnode, covered, embedding):
        return _twig_query(qnode, covered, document, embedding)

    return _evaluate_resolved(query, mapping_set, document, embeddings, mappings, twig_query)


def evaluate_ptq_basic(
    query: TwigQuery,
    mapping_set: MappingSet,
    document: XMLDocument,
    mappings: Optional[Iterable[Mapping]] = None,
) -> PTQResult:
    """Evaluate a PTQ with the basic per-mapping algorithm (Algorithm 3).

    This is a thin wrapper over the engine's ``basic`` query plan
    (:class:`repro.engine.plans.BasicPlan`), kept as the low-level functional
    entry point.

    Parameters
    ----------
    query:
        The twig query over the target schema.
    mapping_set:
        The possible mappings of the schema matching.
    document:
        The source document.
    mappings:
        Optional subset of mappings to consider (used by the top-k variant);
        defaults to the whole mapping set.
    """
    from repro.engine.plans import plan_for

    return plan_for("basic").run(query, mapping_set, document, mappings=mappings)


# --------------------------------------------------------------------------- #
# Algorithm 4: twig_query_tree / query_subtree
# --------------------------------------------------------------------------- #
def _query_subtree(
    qnode: TwigNode,
    tree_node,
    mappings: Sequence[Mapping],
    document: XMLDocument,
    embedding: Embedding,
) -> MappingResults:
    """The paper's ``query_subtree``: evaluate once per c-block, replicate per mapping."""
    results: MappingResults = {}
    covered_mask = 0
    relevant_mask = mapping_mask(mapping.mapping_id for mapping in mappings)
    subquery_nodes = list(qnode.iter_subtree())

    for block in tree_node.blocks:
        shared_mask = block.mapping_mask & relevant_mask
        if not shared_mask:
            continue
        block_sources = {target_id: source_id for source_id, target_id in block.correspondences}
        element_map: dict[int, int] = {}
        usable = True
        for node in subquery_nodes:
            source_id = block_sources.get(embedding[node.node_id])
            if source_id is None:
                usable = False
                break
            element_map[node.node_id] = source_id
        if not usable:
            continue
        matches = match_twig(document, qnode, element_map)
        for mapping_id in iter_mapping_ids(shared_mask):
            results[mapping_id] = matches
        covered_mask |= shared_mask

    for mapping in mappings:
        if covered_mask >> mapping.mapping_id & 1:
            continue
        element_map = _element_map_for_mapping(qnode, embedding, mapping)
        if element_map is None:
            results[mapping.mapping_id] = []
        else:
            results[mapping.mapping_id] = match_twig(document, qnode, element_map)
    return results


def _twig_query_tree(
    qnode: TwigNode,
    mappings: Sequence[Mapping],
    document: XMLDocument,
    block_tree: BlockTree,
    embedding: Embedding,
) -> MappingResults:
    """The paper's ``twig_query_tree``: recursive decomposition over the block tree."""
    target_schema = block_tree.target_schema
    target_element = target_schema.get(embedding[qnode.node_id])
    tree_node = block_tree.node_for_path(target_element.path)
    if tree_node is not None and tree_node.blocks:
        return _query_subtree(qnode, tree_node, mappings, document, embedding)

    if qnode.is_leaf:
        return _twig_query(qnode, mappings, document, embedding)

    # Decompose: q0 is the root-only query; q1..qf are the child subtrees.
    # Mappings sharing the same source element for q0 share the same match
    # list (and, lower down, mappings covered by the same c-block share the
    # same sub-result object), so joins are cached on the identity of their
    # operands: the join of a shared pair of lists is computed only once for
    # all mappings that share it.
    root_results: MappingResults = {}
    root_match_cache: dict[int, list[Match]] = {}
    for mapping in mappings:
        source_id = mapping.source_for_target(embedding[qnode.node_id])
        if source_id is None:
            root_results[mapping.mapping_id] = []
        else:
            if source_id not in root_match_cache:
                root_match_cache[source_id] = _single_node_matches(document, qnode, source_id)
            root_results[mapping.mapping_id] = root_match_cache[source_id]

    child_results = [
        _twig_query_tree(child, mappings, document, block_tree, embedding)
        for child in qnode.children
    ]

    results: MappingResults = {}
    join_cache: dict[tuple[int, int, int], list[Match]] = {}
    for mapping in mappings:
        combined = root_results[mapping.mapping_id]
        for child, child_result in zip(qnode.children, child_results):
            if not combined:
                break
            child_matches = child_result[mapping.mapping_id]
            cache_key = (id(combined), id(child_matches), child.node_id)
            cached = join_cache.get(cache_key)
            if cached is None:
                cached = stack_join(combined, child_matches, qnode.node_id, child.node_id)
                join_cache[cache_key] = cached
            combined = cached
        results[mapping.mapping_id] = combined
    return results


def evaluate_resolved_blocktree(
    query: TwigQuery,
    mapping_set: MappingSet,
    document: XMLDocument,
    block_tree: BlockTree,
    embeddings: list[Embedding],
    mappings: Sequence[Mapping],
) -> PTQResult:
    """Algorithm 4's evaluation loop over pre-resolved embeddings.

    The block-tree counterpart of :func:`evaluate_resolved_basic`; see there
    for the contract on ``embeddings`` and ``mappings``.

    Raises
    ------
    QueryError
        If the block tree was not built over the same target schema as the
        mapping set's matching.
    """
    if block_tree.target_schema is not mapping_set.matching.target:
        raise QueryError(
            "the block tree's target schema differs from the mapping set's target schema"
        )

    def twig_query(qnode, covered, embedding):
        return _twig_query_tree(qnode, covered, document, block_tree, embedding)

    return _evaluate_resolved(query, mapping_set, document, embeddings, mappings, twig_query)


def evaluate_ptq_blocktree(
    query: TwigQuery,
    mapping_set: MappingSet,
    document: XMLDocument,
    block_tree: BlockTree,
    mappings: Optional[Iterable[Mapping]] = None,
) -> PTQResult:
    """Evaluate a PTQ with the block-tree algorithm (Algorithm 4).

    Produces exactly the same answers as :func:`evaluate_ptq_basic`, but
    mappings that share the correspondences of a c-block are evaluated only
    once per block.  This is a thin wrapper over the engine's ``blocktree``
    query plan (:class:`repro.engine.plans.BlockTreePlan`).

    Raises
    ------
    QueryError
        If the block tree was not built over the same target schema as the
        mapping set's matching.
    """
    from repro.engine.plans import plan_for

    return plan_for("blocktree").run(
        query, mapping_set, document, block_tree=block_tree, mappings=mappings
    )


# --------------------------------------------------------------------------- #
# Compiled core: evaluate each distinct rewrite exactly once
# --------------------------------------------------------------------------- #
#: One rewrite of a query: the bitmask of the mappings that share it, and the
#: source element each query node is rewritten to, in query-node-id order.
Rewrite = tuple[int, tuple[int, ...]]


def derive_rewrites(
    query: TwigQuery,
    compiled: "CompiledMappingSet",
    embeddings: list[Embedding],
    selected_mask: int,
) -> list[Rewrite]:
    """Group the selected mappings by their full rewrite of ``query``.

    For every embedding, the mappings in ``selected_mask`` are partitioned
    into groups that rewrite *every* query node to the same source element
    (:meth:`~repro.engine.compiled.CompiledMappingSet.rewrite_groups`).  The
    groups of one embedding are disjoint; two embeddings can induce the same
    source signature, which :func:`match_rewrites` then matches once.  This is
    the only place rewrites are derived: the compiled plan and
    ``explain()``'s sharing statistics both consume its output.
    """
    node_ids = _node_ids(query)
    rewrites: list[Rewrite] = []
    for embedding in embeddings:
        targets = [embedding[node_id] for node_id in node_ids]
        for group_mask, assignment in compiled.rewrite_groups(
            set(embedding.values()), selected_mask
        ):
            rewrites.append((group_mask, tuple([assignment[t] for t in targets])))
    return rewrites


def match_rewrites(
    document: XMLDocument,
    query: TwigQuery,
    rewrites: Iterable[Rewrite],
) -> tuple[list[Cell], dict[tuple[int, ...], frozenset[CanonicalMatch]]]:
    """Match each distinct rewrite once; group the mappings into cells by bitmask.

    Returns ``(cells, by_signature)``: disjoint ``(mask, match set)`` cells
    whose union is every mapping some rewrite reached, each mapping's set
    being the union of its rewrites' match sets, and the match set of each
    distinct source signature.

    The cells hold the mappings that the same rewrites reached so far.  A
    rewrite whose group overlaps a cell splits it, and the overlap takes the
    cell's set united with the rewrite's, so the unions run once per cell
    rather than once per mapping, in the same rewrite order.  The result is
    built on the cells as they are (:meth:`PTQResult.from_cells`).
    """
    node_ids = _node_ids(query)
    root = query.root
    by_signature: dict[tuple[int, ...], frozenset[CanonicalMatch]] = {}
    cells: list[Cell] = []
    covered = 0
    for group_mask, signature in rewrites:
        canonical = by_signature.get(signature)
        if canonical is None:
            element_map = dict(zip(node_ids, signature))
            canonical = _canonicalize(match_twig(document, root, element_map))
            by_signature[signature] = canonical
        fresh = group_mask
        if group_mask & covered:
            refined = []
            for cell_mask, cell_set in cells:
                shared = cell_mask & group_mask
                if shared:
                    refined.append((shared, cell_set | canonical))
                    fresh ^= shared
                    if shared != cell_mask:
                        refined.append((cell_mask ^ shared, cell_set))
                else:
                    refined.append((cell_mask, cell_set))
            cells = refined
        if fresh:
            cells.append((fresh, canonical))
        covered |= group_mask
    return cells, by_signature


def _node_ids(query: TwigQuery) -> tuple[int, ...]:
    """The query's node ids, ascending (pre-order, so the root comes first)."""
    return tuple(sorted(node.node_id for node in query.root.iter_subtree()))


def evaluate_resolved_compiled(
    query: TwigQuery,
    mapping_set: MappingSet,
    document: XMLDocument,
    embeddings: list[Embedding],
    mappings: Sequence[Mapping],
) -> PTQResult:
    """Compiled-core evaluation loop over pre-resolved embeddings.

    Runs on the mapping set's compiled bitset view
    (:meth:`~repro.mapping.mapping_set.MappingSet.compile`): the selected
    mappings are grouped by rewrite (:func:`derive_rewrites`), each distinct
    rewrite is matched against the document exactly once, and the mappings
    sharing a match set form one cell of the result (:func:`match_rewrites`),
    which holds the compiled probability column and its ranking instead of
    one answer row per mapping.  This generalises Algorithm 4's c-block
    sharing — it needs no anchored blocks and never misses sharing due to
    construction budgets — and produces results identical to
    :func:`evaluate_resolved_basic`.

    The contract on ``embeddings`` and ``mappings`` matches
    :func:`evaluate_resolved_basic`.
    """
    compiled = mapping_set.compile()
    rewrites = derive_rewrites(query, compiled, embeddings, compiled.mask_for(mappings))
    cells, _ = match_rewrites(document, query, rewrites)
    return PTQResult.from_cells(
        query, cells, compiled.probabilities, compiled.ranked_ids(), document=document
    )


def evaluate_ptq(
    query: TwigQuery,
    mapping_set: MappingSet,
    document: XMLDocument,
    block_tree: Optional[BlockTree] = None,
) -> PTQResult:
    """Convenience dispatcher: use the block tree when one is provided."""
    if block_tree is None:
        return evaluate_ptq_basic(query, mapping_set, document)
    return evaluate_ptq_blocktree(query, mapping_set, document, block_tree)
