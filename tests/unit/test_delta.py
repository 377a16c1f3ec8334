"""Unit tests for the incremental delta-update engine (repro.engine.delta)."""

from __future__ import annotations

import pytest

from repro.engine import Dataspace, MappingDelta, apply_mapping_delta
from repro.engine.compiled import CompiledMappingSet
from repro.exceptions import DataspaceError, MappingError
from repro.mapping.mapping_set import MappingSet
from repro.service import QueryService


def answer_set(result):
    return {(a.mapping_id, a.matches, a.probability) for a in result}


def rebuilt_from_scratch(patched: MappingSet) -> MappingSet:
    """A reference set built the slow way from the patched mappings."""
    return MappingSet(patched.matching, patched.mappings, normalize=False)


def compiled_state(compiled: CompiledMappingSet) -> tuple:
    return (
        compiled.num_mappings,
        compiled.all_mask,
        compiled.probabilities,
        compiled._pair_masks,
        compiled._covered_masks,
        compiled._target_sources,
    )


class TestMappingDeltaRecord:
    def test_build_normalises_inputs(self):
        delta = MappingDelta.build(
            add=[(1, (2, 3))], remove=[(0, (4, 5))], reweight={2: 0.5},
            replace=[(3, [(6, 7)], 1.5)],
        )
        assert delta.add == ((1, (2, 3)),)
        assert delta.remove == ((0, (4, 5)),)
        assert delta.reweight == ((2, 0.5),)
        assert delta.replace == ((3, frozenset({(6, 7)}), 1.5),)

    def test_touched_and_structural_ids(self):
        delta = MappingDelta.build(
            add=[(1, (2, 3))], reweight={2: 0.5}, replace=[(3, [(6, 7)], 1.0)]
        )
        assert delta.touched_ids() == frozenset({1, 2, 3})
        assert delta.structural_ids() == frozenset({1, 3})

    def test_is_empty(self):
        assert MappingDelta().is_empty()
        assert not MappingDelta.build(reweight={0: 1.0}).is_empty()


class TestApplyValidation:
    def test_out_of_range_mapping_id(self, figure_mappings):
        with pytest.raises(MappingError, match="0..4"):
            apply_mapping_delta(figure_mappings, MappingDelta.build(reweight={99: 0.1}))

    def test_add_pair_not_in_matching(self, figure_mappings):
        with pytest.raises(MappingError, match="not a"):
            apply_mapping_delta(
                figure_mappings, MappingDelta.build(add=[(0, (999, 999))])
            )

    def test_add_duplicate_pair(self, figure_mappings, figure_elements):
        pair = (figure_elements["Order"], figure_elements["ORDER"])
        with pytest.raises(MappingError, match="already contains"):
            apply_mapping_delta(figure_mappings, MappingDelta.build(add=[(0, pair)]))

    def test_remove_absent_pair(self, figure_mappings, figure_elements):
        pair = (figure_elements["SP"], figure_elements["T_IP"])  # only in mapping 2
        with pytest.raises(MappingError, match="does not contain"):
            apply_mapping_delta(figure_mappings, MappingDelta.build(remove=[(0, pair)]))

    def test_reweight_twice_rejected(self, figure_mappings):
        delta = MappingDelta(reweight=((0, 0.1), (0, 0.2)))
        with pytest.raises(MappingError, match="twice"):
            apply_mapping_delta(figure_mappings, delta)

    def test_reweight_must_preserve_mass(self, figure_mappings):
        with pytest.raises(MappingError, match="preserve probability mass"):
            apply_mapping_delta(
                figure_mappings, MappingDelta.build(reweight={0: 0.9999})
            )

    def test_replace_conflicts_with_pair_edit(self, figure_mappings, figure_elements):
        e = figure_elements
        pairs = frozenset({(e["Order"], e["ORDER"])})
        delta = MappingDelta.build(
            replace=[(0, pairs, 1.0)], remove=[(0, (e["BCN"], e["ICN"]))]
        )
        with pytest.raises(MappingError, match="both replaces"):
            apply_mapping_delta(figure_mappings, delta)

    def test_replace_pair_must_exist_in_matching(self, figure_mappings):
        delta = MappingDelta.build(replace=[(0, [(999, 999)], 1.0)])
        with pytest.raises(MappingError, match="not a correspondence"):
            apply_mapping_delta(figure_mappings, delta)

    def test_add_breaking_one_target_rule_rejected(self, figure_mappings, figure_elements):
        e = figure_elements
        # Mapping 0 already maps BCN (to ICN); adding BCN->SCN maps the same
        # source twice.
        with pytest.raises(MappingError, match="more than once"):
            apply_mapping_delta(
                figure_mappings, MappingDelta.build(add=[(0, (e["BCN"], e["SCN"]))])
            )


class TestApplySemantics:
    def test_untouched_mappings_are_shared(self, figure_mappings):
        swap = {0: figure_mappings[3].probability, 3: figure_mappings[0].probability}
        patched, effect = apply_mapping_delta(
            figure_mappings, MappingDelta.build(reweight=swap)
        )
        assert patched is not figure_mappings
        for mapping_id in (1, 2, 4):
            assert patched[mapping_id] is figure_mappings[mapping_id]
        for mapping_id in (0, 3):
            assert patched[mapping_id] is not figure_mappings[mapping_id]
        assert effect.dirty_mask == (1 << 0) | (1 << 3)
        assert effect.structural_mask == 0
        assert effect.dirty_target_mask == 0

    def test_probabilities_still_sum_to_one(self, figure_mappings):
        swap = {0: figure_mappings[3].probability, 3: figure_mappings[0].probability}
        patched, _ = apply_mapping_delta(figure_mappings, MappingDelta.build(reweight=swap))
        assert sum(m.probability for m in patched) == pytest.approx(1.0)
        assert patched[0].probability == pytest.approx(figure_mappings[3].probability)

    def test_remove_adjusts_score_and_targets(self, figure_mappings, figure_elements):
        e = figure_elements
        pair = (e["RCN"], e["SCN"])  # in mapping 0, score 0.61
        patched, effect = apply_mapping_delta(
            figure_mappings, MappingDelta.build(remove=[(0, pair)])
        )
        assert pair not in patched[0].correspondences
        assert patched[0].score == pytest.approx(figure_mappings[0].score - 0.61)
        assert effect.structural_mask == 1
        assert effect.dirty_targets == frozenset({e["SCN"]})
        assert effect.dirty_target_mask == 1 << e["SCN"]

    def test_replace_inherits_slot_probability(self, figure_mappings, figure_elements):
        e = figure_elements
        new_pairs = frozenset({(e["Order"], e["ORDER"]), (e["OCN"], e["SCN"])})
        patched, effect = apply_mapping_delta(
            figure_mappings, MappingDelta.build(replace=[(4, new_pairs, 9.0)])
        )
        assert patched[4].correspondences == new_pairs
        assert patched[4].score == 9.0
        assert patched[4].probability == pytest.approx(figure_mappings[4].probability)
        # Changed targets are the symmetric difference's targets only.
        assert e["ICN"] in effect.dirty_targets  # OCN->ICN was dropped

    def test_empty_delta_is_a_noop_patch(self, figure_mappings):
        patched, effect = apply_mapping_delta(figure_mappings, MappingDelta())
        assert list(patched) == list(figure_mappings)
        assert effect.dirty_mask == 0 and effect.structural_mask == 0


class TestIncrementalCompile:
    def test_patched_compiled_equals_fresh_compile(self, figure_mappings, figure_elements):
        e = figure_elements
        figure_mappings.compile()  # make the predecessor artifact exist
        delta = MappingDelta.build(
            remove=[(0, (e["RCN"], e["SCN"]))],
            add=[(0, (e["OCN"], e["SCN"]))],
            reweight={3: figure_mappings[4].probability, 4: figure_mappings[3].probability},
        )
        patched, effect = apply_mapping_delta(figure_mappings, delta)
        assert effect.compiled_incrementally
        assert patched.is_compiled  # pre-seeded, not lazily rebuilt
        fresh = rebuilt_from_scratch(patched).compile()
        assert compiled_state(patched.compile()) == compiled_state(fresh)

    def test_uncompiled_predecessor_compiles_lazily(self, figure_mappings, figure_elements):
        e = figure_elements
        assert not figure_mappings.is_compiled
        patched, effect = apply_mapping_delta(
            figure_mappings, MappingDelta.build(remove=[(2, (e["SP"], e["T_IP"]))])
        )
        assert not effect.compiled_incrementally
        assert not patched.is_compiled
        fresh = rebuilt_from_scratch(patched).compile()
        assert compiled_state(patched.compile()) == compiled_state(fresh)

    def test_removing_last_pair_of_target_drops_columns(self, figure_mappings, figure_elements):
        e = figure_elements
        figure_mappings.compile()
        # T_SP is covered only by mapping 2's (BP, T_SP).
        patched, _ = apply_mapping_delta(
            figure_mappings, MappingDelta.build(remove=[(2, (e["BP"], e["T_SP"]))])
        )
        compiled = patched.compile()
        assert compiled.covered_mask(e["T_SP"]) == 0
        assert compiled.source_partitions(e["T_SP"]) == ()
        fresh = rebuilt_from_scratch(patched).compile()
        assert compiled_state(compiled) == compiled_state(fresh)


class TestDataspaceApplyDelta:
    def query_session(self, figure_mappings, figure_document):
        return Dataspace.from_mapping_set(figure_mappings, document=figure_document)

    def test_epoch_bumps_generation_does_not(self, figure_mappings, figure_document):
        session = self.query_session(figure_mappings, figure_document)
        swap = {0: figure_mappings[3].probability, 3: figure_mappings[0].probability}
        report = session.apply_delta(MappingDelta.build(reweight=swap))
        assert report.delta_epoch == 1
        assert session.delta_epoch == 1
        assert session.generation == 0
        assert session.describe()["delta_epoch"] == 1

    def test_results_reflect_the_delta(self, figure_mappings, figure_document):
        session = self.query_session(figure_mappings, figure_document)
        before = session.execute("//CONTACT_NAME")
        swap = {0: figure_mappings[2].probability, 2: figure_mappings[0].probability}
        session.apply_delta(MappingDelta.build(reweight=swap))
        after = session.execute("//CONTACT_NAME")
        probabilities = {a.mapping_id: a.probability for a in after}
        assert probabilities[0] == pytest.approx(figure_mappings[2].probability)
        assert probabilities[2] == pytest.approx(figure_mappings[0].probability)
        assert answer_set(before) != answer_set(after)

    def test_block_tree_rebuilt_lazily_from_patched_set(
        self, figure_mappings, figure_document, figure_elements
    ):
        e = figure_elements
        session = self.query_session(figure_mappings, figure_document)
        session.block_tree  # build the pre-delta tree
        session.apply_delta(
            MappingDelta.build(remove=[(0, (e["RCN"], e["SCN"]))])
        )
        assert session.describe()["block_tree_built"] is False
        tree_result = session.execute("//CONTACT_NAME", plan="blocktree", use_cache=False)
        compiled_result = session.execute("//CONTACT_NAME", plan="compiled", use_cache=False)
        assert answer_set(tree_result) == answer_set(compiled_result)

    def test_report_counts(self, figure_mappings, figure_document, figure_elements):
        e = figure_elements
        session = self.query_session(figure_mappings, figure_document)
        session.compiled  # compile pre-delta so the patch path runs
        report = session.apply_delta(
            MappingDelta.build(remove=[(0, (e["RCN"], e["SCN"]))])
        )
        assert report.touched_mappings == 1
        assert report.structural_mappings == 1
        assert report.posting_lists_touched == 1
        assert report.compiled_incrementally
        assert report.posting_lists_reused == (
            report.posting_lists_total - report.posting_lists_touched
        )
        payload = report.to_dict()
        assert payload["delta_epoch"] == 1
        assert "delta" in report.format()

    def test_in_flight_snapshot_unaffected(self, figure_mappings, figure_document):
        session = self.query_session(figure_mappings, figure_document)
        snapshot = session.snapshot(need_tree=False)
        swap = {0: figure_mappings[3].probability, 3: figure_mappings[0].probability}
        session.apply_delta(MappingDelta.build(reweight=swap))
        # The pre-delta snapshot still holds the pre-delta artifacts.
        assert snapshot.delta_epoch == 0
        assert snapshot.mapping_set[0].probability == pytest.approx(
            figure_mappings[0].probability
        )
        assert session.snapshot(need_tree=False).delta_epoch == 1

    def test_pinned_session_accepts_deltas(self, figure_mappings, figure_document):
        session = self.query_session(figure_mappings, figure_document)
        with pytest.raises(DataspaceError):
            session.configure(h=3)  # pinned set: configure stays rejected
        swap = {0: figure_mappings[3].probability, 3: figure_mappings[0].probability}
        session.apply_delta(MappingDelta.build(reweight=swap))  # delta is fine
        assert session.delta_epoch == 1


class TestServiceAndCorpusDelta:
    def test_service_apply_delta_routes_to_session(self, figure_mappings, figure_document):
        session = Dataspace.from_mapping_set(figure_mappings, document=figure_document)
        swap = {0: figure_mappings[3].probability, 3: figure_mappings[0].probability}
        with QueryService(session, max_workers=2) as service:
            before = service.submit("//CONTACT_NAME").result(timeout=30)
            report = service.apply_delta(MappingDelta.build(reweight=swap))
            after = service.submit("//CONTACT_NAME").result(timeout=30)
        assert report.delta_epoch == 1
        assert {a.mapping_id: a.probability for a in after}[0] == pytest.approx(
            figure_mappings[3].probability
        )
        assert answer_set(before) != answer_set(after)
