"""Unit tests for the compiled core's bitset kernels.

The hot loops of :class:`~repro.engine.compiled.CompiledMappingSet` —
coverage intersection, the union-of-coverage filter step, partition
refinement and probability accumulation — run on Python-int bitmasks.
Each is checked here against a naive per-mapping computation over the
:class:`~repro.mapping.mapping.Mapping` objects, on both narrow
(single-word) and wide (multi-word) mask columns.
"""

from __future__ import annotations

from repro.mapping.mapping_set import mapping_mask


class TestOperationIdentity:
    """Every bitset operation agrees with its per-mapping definition."""

    def check_identity(self, mapping_set):
        compiled = mapping_set.compile()
        mappings = list(mapping_set)
        all_mask = compiled.all_mask
        targets = sorted(compiled._covered_masks)

        def covering(target_ids):
            return mapping_mask(
                m.mapping_id for m in mappings if m.covers_targets(set(target_ids))
            )

        # Coverage intersections, including missing targets and empty input.
        missing = max(targets) + 1000
        for subset in ([], targets[:1], targets[:3], targets, [missing], targets[:2] + [missing]):
            assert compiled.covers_mask(subset) == covering(subset)

        # Union-of-coverage over several target sets (one per "embedding").
        sets = [targets[:2], targets[1:4], [missing], targets]
        embeddings = [{index: target for index, target in enumerate(s)} for s in sets]
        expected = 0
        for target_set in sets:
            expected |= covering(target_set)
        assert compiled.relevant_mask(embeddings) == expected

        # Partition refinement: disjoint groups, each sharing one rewrite,
        # covering exactly the candidates, in deterministic order.
        for required in (targets[:1], targets[:2], targets[:4]):
            groups = compiled.rewrite_groups(required)
            union = 0
            for group_mask, assignment in groups:
                assert group_mask and not union & group_mask
                union |= group_mask
                for mapping_id in compiled.iter_ids(group_mask):
                    mapping = mapping_set[mapping_id]
                    for target_id in required:
                        assert mapping.source_for_target(target_id) == assignment[target_id]
            assert union == covering(required)
            assert groups == compiled.rewrite_groups(list(reversed(required)))

        # Probability column operations — exact float equality with a
        # sequential ascending-id sum.
        for mask in (0, 1, all_mask, all_mask >> 1, all_mask & 0x5555555555555555):
            members = [m for m in mappings if mask >> m.mapping_id & 1]
            assert compiled.probabilities_of(mask) == [m.probability for m in members]
            total = 0.0
            for mapping in members:
                total += mapping.probability
            assert compiled.probability_of_mask(mask).hex() == total.hex()
        assert compiled.max_probability() == max(m.probability for m in mappings)

    def test_identity_on_single_word_masks(self, figure_mappings):
        # Five mappings: every mask fits one 64-bit word.
        self.check_identity(figure_mappings)

    def test_identity_on_multi_word_masks(self, d7_mappings):
        # One hundred mappings: masks span two machine words.
        assert len(d7_mappings) > 64
        self.check_identity(d7_mappings)
