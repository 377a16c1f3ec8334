"""Tests for the compiled bitset core (repro.engine.compiled)."""

from __future__ import annotations

import pytest

from repro.engine import CompiledMappingSet, Dataspace, compile_mapping_set, plan_for
from repro.mapping.mapping_set import iter_mapping_ids, mapping_mask
from repro.query.parser import parse_twig
from repro.query.ptq import derive_rewrites
from repro.query.resolve import resolve_query

ICN_QUERY = "//INVOICE_PARTY//CONTACT_NAME"


def answers_of(result):
    return {(answer.mapping_id, answer.matches, answer.probability) for answer in result}


class TestMaskPrimitives:
    def test_mask_round_trip(self):
        ids = [0, 3, 7, 40, 129]
        mask = mapping_mask(ids)
        assert list(iter_mapping_ids(mask)) == ids

    def test_empty_mask(self):
        assert mapping_mask([]) == 0
        assert list(iter_mapping_ids(0)) == []

    def test_mask_is_idempotent_on_duplicates(self):
        assert mapping_mask([2, 2, 2]) == mapping_mask([2])


class TestCompiledMappingSet:
    def test_compile_is_memoized(self, figure_mappings):
        compiled = figure_mappings.compile()
        assert isinstance(compiled, CompiledMappingSet)
        assert figure_mappings.compile() is compiled
        assert compile_mapping_set(figure_mappings) is compiled
        assert figure_mappings.is_compiled

    def test_probability_column_matches_mappings(self, figure_mappings):
        compiled = figure_mappings.compile()
        assert compiled.num_mappings == len(figure_mappings)
        assert compiled.all_mask == (1 << len(figure_mappings)) - 1
        for mapping in figure_mappings:
            assert compiled.probabilities[mapping.mapping_id] == mapping.probability

    def test_pair_masks_match_brute_force(self, figure_mappings):
        compiled = figure_mappings.compile()
        keys = {key for mapping in figure_mappings for key in mapping.correspondences}
        for key in keys:
            brute = {
                m.mapping_id for m in figure_mappings if key in m.correspondences
            }
            assert set(iter_mapping_ids(compiled.pair_mask(key))) == brute
            assert figure_mappings.mappings_with_pair(key) == brute
        assert compiled.pair_mask((999, 999)) == 0

    def test_covers_mask_matches_covers_targets(self, figure_mappings):
        compiled = figure_mappings.compile()
        target_ids = {t for m in figure_mappings for _, t in m.correspondences}
        for target_id in target_ids:
            brute = {
                m.mapping_id
                for m in figure_mappings
                if m.covers_targets([target_id])
            }
            assert set(iter_mapping_ids(compiled.covers_mask([target_id]))) == brute
            for mapping in figure_mappings:
                assert compiled.covers_targets(
                    mapping.mapping_id, [target_id]
                ) == mapping.covers_targets([target_id])

    def test_empty_target_set_covers_everything(self, figure_mappings):
        compiled = figure_mappings.compile()
        assert compiled.covers_mask([]) == compiled.all_mask
        assert figure_mappings.relevant_mappings([]) == figure_mappings.mappings

    def test_unknown_target_covers_nothing(self, figure_mappings):
        compiled = figure_mappings.compile()
        assert compiled.covers_mask([987654]) == 0
        assert figure_mappings.relevant_mappings([987654]) == []

    def test_relevant_mappings_identical_to_scan(self, figure_mappings):
        query = parse_twig(ICN_QUERY)
        embeddings = resolve_query(query, figure_mappings.matching.target)
        via_bitsets = figure_mappings.compile().relevant_mappings(embeddings)
        required_sets = [set(e.values()) for e in embeddings]
        via_scan = [
            m
            for m in figure_mappings
            if any(m.covers_targets(required) for required in required_sets)
        ]
        assert via_bitsets == via_scan

    def test_rewrite_groups_partition_the_candidates(self, figure_mappings):
        compiled = figure_mappings.compile()
        query = parse_twig(ICN_QUERY)
        embeddings = resolve_query(query, figure_mappings.matching.target)
        for embedding in embeddings:
            required = set(embedding.values())
            candidates = compiled.covers_mask(required)
            groups = compiled.rewrite_groups(required)
            union = 0
            for group_mask, assignment in groups:
                assert group_mask  # no empty groups
                assert union & group_mask == 0  # pairwise disjoint
                union |= group_mask
                assert set(assignment) == required
                # Every member really maps each target to the group's source.
                for mapping_id in iter_mapping_ids(group_mask):
                    mapping = figure_mappings[mapping_id]
                    for target_id, source_id in assignment.items():
                        assert mapping.source_for_target(target_id) == source_id
            assert union == candidates

    def test_rewrite_groups_respect_restriction_mask(self, figure_mappings):
        compiled = figure_mappings.compile()
        query = parse_twig(ICN_QUERY)
        embeddings = resolve_query(query, figure_mappings.matching.target)
        required = set(embeddings[0].values())
        restricted = mapping_mask([0, 2])
        union = 0
        for group_mask, _ in compiled.rewrite_groups(required, restricted):
            union |= group_mask
        assert union == compiled.covers_mask(required) & restricted

    def test_source_partitions_split_the_coverage_mask(self, figure_mappings):
        compiled = figure_mappings.compile()
        target_ids = {t for m in figure_mappings for _, t in m.correspondences}
        for target_id in target_ids:
            partitions = compiled.source_partitions(target_id)
            assert [s for s, _ in partitions] == sorted(s for s, _ in partitions)
            union = 0
            for _, source_mask in partitions:
                assert union & source_mask == 0  # a mapping maps t to one source
                union |= source_mask
            assert union == compiled.covered_mask(target_id)
        assert compiled.source_partitions(987654) == ()

    def test_stats_shape(self, figure_mappings):
        stats = figure_mappings.compile().stats()
        assert stats["num_mappings"] == len(figure_mappings)
        assert stats["num_posting_lists"] > 0
        assert stats["bitset_bytes"] > 0
        assert stats["max_posting_popcount"] <= len(figure_mappings)

    def test_rewrite_stats_counts_sharing(self, figure_mappings):
        compiled = figure_mappings.compile()
        query = parse_twig(ICN_QUERY)
        embeddings = resolve_query(query, figure_mappings.matching.target)
        mask = compiled.mask_for(figure_mappings.mappings)
        rewrites = derive_rewrites(query, compiled, embeddings, mask)
        stats = compiled.rewrite_stats(rewrites, mask)
        assert stats["num_selected"] == len(figure_mappings)
        assert stats["num_rewrite_groups"] == len(rewrites)
        assert stats["num_distinct_rewrites"] >= 1
        assert stats["num_rewrite_groups"] >= stats["num_distinct_rewrites"]
        assert stats["evaluations_saved"] >= 0


class TestCompiledPlan:
    def test_compiled_plan_equals_basic(self, figure_mappings, figure_document):
        query = parse_twig(ICN_QUERY)
        basic = plan_for("basic").run(query, figure_mappings, figure_document)
        compiled = plan_for("compiled").run(query, figure_mappings, figure_document)
        assert answers_of(basic) == answers_of(compiled)

    def test_compiled_plan_topk_equals_basic(self, figure_mappings, figure_document):
        query = parse_twig(ICN_QUERY)
        basic = plan_for("basic").run(query, figure_mappings, figure_document, k=2)
        compiled = plan_for("compiled").run(query, figure_mappings, figure_document, k=2)
        assert answers_of(basic) == answers_of(compiled)

    def test_topk_free_function_runs_compiled(self, figure_mappings, figure_document):
        from repro.query.topk import evaluate_topk_ptq

        result = evaluate_topk_ptq(
            parse_twig(ICN_QUERY), figure_mappings, figure_document, k=2
        )
        assert len(result) == 2
        assert figure_mappings.is_compiled  # ran on the compiled artifacts

    def test_reevaluation_reuses_unchanged_answers(self, figure_mappings, figure_document):
        # After a reweight, only the reweighted mappings get new answer
        # objects; the others are the previous evaluation's, unchanged.
        from repro.engine import MappingDelta

        session = Dataspace.from_mapping_set(figure_mappings, document=figure_document)
        query = "//CONTACT_NAME"
        before = {a.mapping_id: a for a in session.execute(query, use_cache=False)}
        p = [mapping.probability for mapping in session.mapping_set]
        session.apply_delta(MappingDelta.build(reweight={0: p[2], 2: p[0]}))
        after = {a.mapping_id: a for a in session.execute(query, use_cache=False)}
        assert after.keys() == before.keys() == {0, 1, 2, 3, 4}
        for mapping_id in (1, 3, 4):
            assert after[mapping_id] is before[mapping_id]
        for mapping_id, probability in ((0, p[2]), (2, p[0])):
            assert after[mapping_id] is not before[mapping_id]
            assert after[mapping_id].probability.hex() == probability.hex()
            assert after[mapping_id].matches == before[mapping_id].matches

    def test_invalid_k_rejected(self, figure_mappings, figure_document):
        from repro.exceptions import QueryError

        with pytest.raises(QueryError):
            plan_for("compiled").run(
                parse_twig(ICN_QUERY), figure_mappings, figure_document, k=0
            )


class TestEngineIntegration:
    def test_dataspace_compiled_property_tracks_generation(
        self, figure_mappings, figure_document
    ):
        ds = Dataspace.from_mapping_set(figure_mappings, document=figure_document)
        first = ds.compiled
        assert first is figure_mappings.compile()
        assert ds.describe()["compiled_built"]
        # A pinned mapping set survives invalidate(); its compiled view with it.
        ds.invalidate()
        assert ds.compiled is first

    def test_reconfigure_retires_compiled_artifact(self, source_schema, target_schema):
        ds = Dataspace(source_schema, target_schema, h=5, seed=1)
        first = ds.compiled
        ds.configure(h=3)
        second = ds.compiled
        assert second is not first
        assert second.num_mappings == len(ds.mapping_set)

    def test_block_mapping_mask_matches_ids(self, figure_block_tree):
        for block in figure_block_tree.all_blocks():
            assert set(iter_mapping_ids(block.mapping_mask)) == set(block.mapping_ids)
