"""Matching twig patterns on documents, and structural joins.

The evaluation semantics follow the paper's query-rewriting approach with one
documented simplification (see ``docs/architecture.md``): a query's axes are
enforced against the *target schema* during resolution, while on the *source
document* matched nodes only need to satisfy ancestor-descendant containment
along every query edge.  This keeps the basic (per-mapping) and the
block-tree (decompose-and-join) evaluation algorithms exactly equivalent, as
both ultimately check containment between document nodes.

A *match* is a dictionary from query node id to the
:class:`~repro.document.node.DocumentNode` assigned to it.

Both matchers use the region encoding: the descendants of a node are exactly
the nodes whose ``start`` lies strictly inside its ``(start, end)`` interval,
so a candidate's nested matches are one bisected slice of the matches sorted
by ``start``, and a structural join is one pass over two sorted lists.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.document.document import XMLDocument
from repro.document.node import DocumentNode
from repro.exceptions import QueryError
from repro.query.twig import TwigNode

__all__ = ["Match", "match_twig", "stack_join"]

#: A match of a (sub)query: query node id -> document node.
Match = dict[int, DocumentNode]


def match_twig(
    document: XMLDocument,
    query_root: TwigNode,
    element_map: dict[int, int],
) -> list[Match]:
    """Find all matches of the query subtree rooted at ``query_root``.

    Parameters
    ----------
    document:
        The (finalized) source document.
    query_root:
        Root of the query subtree to match.
    element_map:
        For every query node id in the subtree, the *source* schema element
        id its matches must instantiate (produced by rewriting the resolved
        query under a mapping or a c-block).

    Returns
    -------
    list[Match]
        Every assignment of document nodes to the query nodes such that each
        node instantiates its mapped source element, satisfies its value
        predicate, and is a descendant of the node matched by its parent
        query node.
    """
    if not document.finalized:
        raise QueryError("the document must be finalized before matching queries on it")
    return _match_node(document, query_root, element_map)


def _candidate_nodes(
    document: XMLDocument, qnode: TwigNode, element_map: dict[int, int]
) -> list[DocumentNode]:
    try:
        source_element_id = element_map[qnode.node_id]
    except KeyError:
        raise QueryError(
            f"no source element for query node {qnode.node_id} ({qnode.label!r})"
        ) from None
    candidates = document.nodes_of_element(source_element_id)
    if qnode.value is not None:
        candidates = [node for node in candidates if node.value == qnode.value]
    return candidates


def _match_node(
    document: XMLDocument, qnode: TwigNode, element_map: dict[int, int]
) -> list[Match]:
    candidates = _candidate_nodes(document, qnode, element_map)
    if not candidates:
        return []
    if qnode.is_leaf:
        return [{qnode.node_id: candidate} for candidate in candidates]

    # Per child: its matches, their starts in document order, and each sorted
    # position's index into the original list.
    per_child: list[tuple[list[Match], list[int], list[int]]] = []
    for child in qnode.children:
        child_matches = _match_node(document, child, element_map)
        if not child_matches:
            return []
        child_id = child.node_id
        order = sorted(
            range(len(child_matches)), key=lambda i: child_matches[i][child_id].start
        )
        starts = [child_matches[i][child_id].start for i in order]
        per_child.append((child_matches, starts, order))

    results: list[Match] = []
    for candidate in candidates:
        combinations: list[Match] = [{qnode.node_id: candidate}]
        for child_matches, starts, order in per_child:
            low = bisect_right(starts, candidate.start)
            high = bisect_left(starts, candidate.end, low)
            if low == high:
                combinations = []
                break
            # Back in ``child_matches`` order: every match list, and so every
            # answer built from it, follows candidate order, not ``start``.
            nested = [child_matches[i] for i in sorted(order[low:high])]
            combinations = [
                {**combination, **child_match}
                for combination in combinations
                for child_match in nested
            ]
        results.extend(combinations)
    return results


def stack_join(
    ancestor_matches: list[Match],
    descendant_matches: list[Match],
    ancestor_node_id: int,
    descendant_node_id: int,
) -> list[Match]:
    """Structural (ancestor-descendant) join of two match lists.

    Combines every match in ``ancestor_matches`` with every match in
    ``descendant_matches`` whose node for ``descendant_node_id`` lies inside
    the ancestor match's node for ``ancestor_node_id``.  This is the binary
    stack-based structural join the paper relies on ([Al-Khalifa et al.,
    ICDE 2002]) for re-assembling decomposed sub-query results.

    Both inputs may be in any order.  The output follows the descendants'
    document order (ties in their input order); the ancestors joined to one
    descendant follow in document order.
    """
    if not ancestor_matches or not descendant_matches:
        return []

    ancestors = sorted(ancestor_matches, key=lambda m: m[ancestor_node_id].start)
    descendants = sorted(descendant_matches, key=lambda m: m[descendant_node_id].start)

    results: list[Match] = []
    # Open ancestor matches; each region contains the next one's.
    stack: list[Match] = []
    a_index = 0
    for descendant_match in descendants:
        start = descendant_match[descendant_node_id].start
        # Push every ancestor that starts before this descendant, first
        # popping the open ones whose region ended before it begins.
        while a_index < len(ancestors):
            ancestor_node = ancestors[a_index][ancestor_node_id]
            if ancestor_node.start >= start:
                break
            while stack and stack[-1][ancestor_node_id].end < ancestor_node.start:
                stack.pop()
            stack.append(ancestors[a_index])
            a_index += 1
        # Pop the open ancestors whose region ended before this descendant.
        while stack and stack[-1][ancestor_node_id].end < start:
            stack.pop()
        for ancestor_match in stack:
            results.append({**ancestor_match, **descendant_match})
    return results
