"""The twig matcher and the structural join against brute-force oracles.

:func:`~repro.query.twigmatch.match_twig` bisects each candidate's region
range in child matches sorted by ``start``, and
:func:`~repro.query.twigmatch.stack_join` keeps a stack of open ancestors.
Both must return exactly what the obvious quadratic algorithms kept here
return: the same matches, in the same order.  Order matters because every
plan's answer lists are built from these lists.

The documents are grown by adding children to random existing nodes, so a
parent often gains a child after later parts of the document already exist.
Then ``nodes_of_element`` (insertion order) differs from document order
(``start``), which is the case where a bisected slice must be put back in
its original order.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from _scenarios import random_tree_schema
from repro.document.document import XMLDocument
from repro.query.twig import AXIS_DESCENDANT, TwigNode, TwigQuery
from repro.query.twigmatch import match_twig, stack_join
from repro.schema.schema import Schema

LABELS = ["Order", "Party", "Contact", "Name", "Line", "Qty"]
VALUES = ["a", "b", "c"]
#: Offset of the descendant twig's node ids in a join, so merged matches
#: keep both sides' nodes.
JOIN_OFFSET = 100


def oracle_match(document: XMLDocument, qnode: TwigNode, element_map: dict) -> list:
    """Every candidate checked against every child match (quadratic)."""
    candidates = [
        node
        for node in document.nodes_of_element(element_map[qnode.node_id])
        if qnode.value is None or node.value == qnode.value
    ]
    child_matches = [
        (child, oracle_match(document, child, element_map)) for child in qnode.children
    ]
    results = []
    for candidate in candidates:
        combinations = [{qnode.node_id: candidate}]
        for child, matches in child_matches:
            nested = [m for m in matches if candidate.is_ancestor_of(m[child.node_id])]
            combinations = [{**c, **m} for c in combinations for m in nested]
        results.extend(combinations)
    return results


def oracle_join(ancestors: list, descendants: list, a_id: int, d_id: int) -> list:
    """Descendants in document order, each joined to every containing ancestor."""
    ancestors = sorted(ancestors, key=lambda m: m[a_id].start)
    return [
        {**a, **d}
        for d in sorted(descendants, key=lambda m: m[d_id].start)
        for a in ancestors
        if a[a_id].is_ancestor_of(d[d_id])
    ]


def node_ids(matches: list) -> list:
    """A match list as comparable data: sorted (query node, document node) pairs."""
    return [sorted((q, n.node_id) for q, n in match.items()) for match in matches]


def grow_document(rng: random.Random, schema: Schema, additions: int) -> XMLDocument:
    """A conforming document grown by adding children to random nodes."""
    document = XMLDocument(schema, "grown.xml")
    nodes = [document.add_root(schema.root.element_id)]
    for _ in range(additions):
        parents = [node for node in nodes if schema.get(node.element_id).children]
        if not parents:
            break
        parent = rng.choice(parents)
        element = rng.choice(schema.get(parent.element_id).children)
        value = rng.choice(VALUES) if element.is_leaf else None
        nodes.append(document.add_child(parent, element.element_id, value=value))
    return document.finalize()


def random_twig(rng: random.Random, schema: Schema) -> tuple[TwigQuery, dict]:
    """A random twig and its element map, mostly following schema descent."""
    elements = list(schema.iter_preorder())

    def descendants(element):
        return [
            other
            for other in elements
            if other is not element
            and any(ancestor is element for ancestor in _ancestors(other))
        ]

    root = TwigNode("N0", axis=AXIS_DESCENDANT)
    element_of = {id(root): rng.choice(elements)}
    twig_nodes = [root]
    for index in range(1, rng.randint(1, 5)):
        parent = rng.choice(twig_nodes)
        below = descendants(element_of[id(parent)])
        element = rng.choice(below) if below and rng.random() < 0.85 else rng.choice(elements)
        value = rng.choice(VALUES) if element.is_leaf and rng.random() < 0.3 else None
        child = parent.add_child(TwigNode(f"N{index}", axis=AXIS_DESCENDANT, value=value))
        element_of[id(child)] = element
        twig_nodes.append(child)
    query = TwigQuery(root)
    return query, {node.node_id: element_of[id(node)].element_id for node in query.nodes}


def _ancestors(element):
    parent = element.parent
    while parent is not None:
        yield parent
        parent = parent.parent


@st.composite
def twig_cases(draw):
    seed = draw(st.integers(0, 1_000_000))
    rng = random.Random(seed)
    schema = random_tree_schema(rng, "S", draw(st.integers(2, 8)), LABELS)
    document = grow_document(rng, schema, draw(st.integers(0, 40)))
    return rng, schema, document


class TestMatcherAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(twig_cases())
    def test_match_twig_equals_quadratic_oracle_in_order(self, case):
        rng, schema, document = case
        for _ in range(4):
            query, element_map = random_twig(rng, schema)
            got = match_twig(document, query.root, element_map)
            expected = oracle_match(document, query.root, element_map)
            assert node_ids(got) == node_ids(expected)

    @settings(max_examples=150, deadline=None)
    @given(twig_cases())
    def test_stack_join_equals_brute_force_in_order(self, case):
        rng, schema, document = case
        for _ in range(4):
            upper, upper_map = random_twig(rng, schema)
            lower, lower_map = random_twig(rng, schema)
            ancestors = match_twig(document, upper.root, upper_map)
            descendants = [
                {q + JOIN_OFFSET: node for q, node in match.items()}
                for match in match_twig(document, lower.root, lower_map)
            ]
            # The join accepts its inputs in any order.
            rng.shuffle(ancestors)
            rng.shuffle(descendants)
            a_id = rng.choice(list(upper_map))
            d_id = rng.choice(list(lower_map)) + JOIN_OFFSET
            got = stack_join(ancestors, descendants, a_id, d_id)
            expected = oracle_join(ancestors, descendants, a_id, d_id)
            assert node_ids(got) == node_ids(expected)


def test_children_added_out_of_document_order():
    """Insertion order and document order disagree inside one candidate."""
    schema = Schema("S")
    root = schema.add_root("R")
    a = schema.add_child(root, "A", repeatable=True)
    g = schema.add_child(a, "G", repeatable=True)
    schema.freeze()
    document = XMLDocument(schema, "out-of-order.xml")
    r = document.add_root(root.element_id)
    first, second = document.add_child(r, a.element_id), document.add_child(r, a.element_id)
    for parent in (second, first, second):
        document.add_child(parent, g.element_id, value="x")
    document.finalize()
    instances = document.nodes_of_element(g.element_id)
    assert [n.start for n in instances] != sorted(n.start for n in instances)

    query_root = TwigNode("R")
    query_root.add_child(TwigNode("G", axis=AXIS_DESCENDANT))
    query = TwigQuery(query_root)
    element_map = {0: root.element_id, 1: g.element_id}
    got = match_twig(document, query.root, element_map)
    assert node_ids(got) == node_ids(oracle_match(document, query.root, element_map))
    assert [m[1] for m in got] == instances
