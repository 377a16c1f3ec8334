"""Top-k probabilistic twig queries (Definition 5, Section IV-C).

A top-k PTQ returns only the k answer tuples with the highest probabilities.
Because each answer's probability is exactly its mapping's probability, the
k best answers come from the k most probable *relevant* mappings; so, as in
the paper, evaluation simply sorts the relevant mappings by probability,
keeps the first k, and runs the ordinary PTQ machinery on that subset.
"""

from __future__ import annotations

from typing import Optional

from repro.core.blocktree import BlockTree
from repro.document.document import XMLDocument
from repro.mapping.mapping_set import MappingSet
from repro.query.results import PTQResult
from repro.query.twig import TwigQuery

__all__ = ["evaluate_topk_ptq"]


def evaluate_topk_ptq(
    query: TwigQuery,
    mapping_set: MappingSet,
    document: XMLDocument,
    k: int,
    block_tree: Optional[BlockTree] = None,
) -> PTQResult:
    """Evaluate a top-k PTQ.

    Parameters
    ----------
    query:
        The twig query over the target schema.
    mapping_set:
        The possible mappings.
    document:
        The source document.
    k:
        Number of answers (mappings) to return.  If fewer than ``k`` mappings
        are relevant, all of them are returned.
    block_tree:
        Optional block tree; when provided, the restricted evaluation uses
        Algorithm 4.  Otherwise it runs on the mapping set's compiled bitset
        view (the engine's ``compiled`` plan) — identical answers, with each
        distinct rewrite of the restricted mapping subset evaluated once.

    Returns
    -------
    PTQResult
        At most ``k`` answers, those with the highest probabilities.
    """
    from repro.engine.plans import plan_for

    plan = plan_for("compiled" if block_tree is None else "blocktree")
    return plan.run(query, mapping_set, document, block_tree=block_tree, k=k)
