"""Property-based tests for query evaluation and schema round-trips.

The central property is the paper's correctness claim for Algorithm 4: on any
scenario, the block-tree PTQ evaluation returns exactly the same answers as
the basic per-mapping evaluation, for any block-tree configuration.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from _scenarios import query_scenarios, random_tree_schema
from repro.core.blocktree import BlockTreeConfig, build_block_tree
from repro.mapping.mapping_set import iter_mapping_ids
from repro.query import ptq
from repro.query.parser import parse_twig
from repro.query.ptq import evaluate_ptq_basic, evaluate_ptq_blocktree, match_rewrites
from repro.query.topk import evaluate_topk_ptq
from repro.schema.parser import parse_schema, schema_to_text


def _answer_set(result):
    return {(answer.mapping_id, answer.matches) for answer in result}


class TestPTQEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(query_scenarios())
    def test_blocktree_equals_basic(self, scenario):
        mapping_set, document, query, tau = scenario
        tree = build_block_tree(mapping_set, BlockTreeConfig(tau=tau))
        basic = evaluate_ptq_basic(query, mapping_set, document)
        block = evaluate_ptq_blocktree(query, mapping_set, document, tree)
        assert _answer_set(basic) == _answer_set(block)

    @settings(max_examples=25, deadline=None)
    @given(query_scenarios())
    def test_fewer_blocks_never_change_answers(self, scenario):
        mapping_set, document, query, _ = scenario
        rich = build_block_tree(mapping_set, BlockTreeConfig(tau=0.05))
        poor = build_block_tree(mapping_set, BlockTreeConfig(tau=0.95, max_blocks=0))
        rich_result = evaluate_ptq_blocktree(query, mapping_set, document, rich)
        poor_result = evaluate_ptq_blocktree(query, mapping_set, document, poor)
        assert _answer_set(rich_result) == _answer_set(poor_result)

    @settings(max_examples=25, deadline=None)
    @given(query_scenarios(), st.integers(1, 6))
    def test_topk_is_prefix_of_full_result(self, scenario, k):
        mapping_set, document, query, tau = scenario
        tree = build_block_tree(mapping_set, BlockTreeConfig(tau=tau))
        full = evaluate_ptq_basic(query, mapping_set, document)
        topk = evaluate_topk_ptq(query, mapping_set, document, k=k, block_tree=tree)
        assert len(topk) <= k
        full_by_id = {answer.mapping_id: answer.matches for answer in full}
        top_probabilities = sorted((a.probability for a in full), reverse=True)[: len(topk)]
        for answer in topk:
            assert full_by_id[answer.mapping_id] == answer.matches
        if len(full) > len(topk):
            assert min(top_probabilities) >= max(
                a.probability for a in full if a.mapping_id not in {x.mapping_id for x in topk}
            ) - 1e-12

    @settings(max_examples=30, deadline=None)
    @given(query_scenarios())
    def test_probabilities_bounded(self, scenario):
        mapping_set, document, query, _ = scenario
        result = evaluate_ptq_basic(query, mapping_set, document)
        assert 0.0 <= result.total_probability() <= 1.0 + 1e-9


#: Rewrites over up to 40 mappings, each a nonempty random group mask and
#: one of 6 source signatures; groups may overlap arbitrarily.
_REWRITES = st.integers(1, 40).flatmap(
    lambda width: st.lists(
        st.tuples(st.integers(1, (1 << width) - 1), st.integers(0, 5).map(lambda s: (s,))),
        max_size=12,
    )
)
#: Each signature's matches: a small set of document node ids.
_MATCHES = st.lists(st.frozensets(st.integers(0, 6), max_size=3), min_size=6, max_size=6)


class TestMatchRewritesFanOut:
    @settings(max_examples=200, deadline=None)
    @given(_REWRITES, _MATCHES)
    def test_cells_equal_per_mapping_unions(self, rewrites, node_ids):
        query = parse_twig("A")
        root_id = query.root.node_id

        def fake_match_twig(document, qnode, element_map):
            return [
                {root_id: SimpleNamespace(node_id=node_id)}
                for node_id in node_ids[element_map[root_id]]
            ]

        with mock.patch.object(ptq, "match_twig", fake_match_twig):
            cells, by_signature = match_rewrites(None, query, rewrites)
        # The cells are disjoint; expanded, they give each mapping's set.
        per_mapping: dict = {}
        for cell_mask, cell_set in cells:
            for mapping_id in iter_mapping_ids(cell_mask):
                assert mapping_id not in per_mapping
                per_mapping[mapping_id] = cell_set

        canonical = {
            (signature,): frozenset(((root_id, n),) for n in node_ids[signature])
            for signature in range(6)
        }
        expected: dict = {}
        membership: dict = {}
        for index, (group_mask, signature) in enumerate(rewrites):
            for mapping_id in iter_mapping_ids(group_mask):
                existing = expected.get(mapping_id)
                expected[mapping_id] = (
                    canonical[signature]
                    if existing is None
                    else existing | canonical[signature]
                )
                membership.setdefault(mapping_id, []).append(index)
        assert per_mapping == expected
        assert by_signature == {sig: canonical[sig] for _, sig in rewrites}
        # Mappings reached by the same rewrites share one match set object.
        shared: dict = {}
        for mapping_id, indices in membership.items():
            first = shared.setdefault(tuple(indices), per_mapping[mapping_id])
            assert per_mapping[mapping_id] is first


class TestSchemaRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 15))
    def test_text_round_trip(self, seed, size):
        rng = random.Random(seed)
        labels = ["Order", "Party", "Contact", "Name", "Line"]
        schema = random_tree_schema(rng, "RT", size, labels)
        text = schema_to_text(schema)
        parsed = parse_schema(text, name="RT")
        assert [e.path for e in parsed.iter_preorder()] == [
            e.path for e in schema.iter_preorder()
        ]
        assert [e.repeatable for e in parsed.iter_preorder()] == [
            e.repeatable for e in schema.iter_preorder()
        ]
