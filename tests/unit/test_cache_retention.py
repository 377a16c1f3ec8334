"""ResultCache delta-retention semantics (CacheKey.delta_epoch + lookup()).

Three behaviours are pinned here, straight from the issue's contract:

* entries whose guard masks do **not** intersect a delta's dirty masks
  survive the epoch boundary (promoted by the first post-delta lookup);
* entries whose guards **do** intersect die (the lookup misses);
* entries never cross a ``delta_epoch`` boundary after a full
  ``invalidate()`` — a generation bump makes every older entry unreachable
  no matter how clean the delta log looks.
"""

from __future__ import annotations

import pytest

from repro.engine import CacheKey, Dataspace, MappingDelta, ResultCache


def key_at(epoch, **overrides):
    fields = dict(
        query="Q7",
        plan="compiled",
        k=None,
        tau=0.2,
        generation=0,
        document_version=0,
        delta_epoch=epoch,
    )
    fields.update(overrides)
    return CacheKey(**fields)


class TestRetainPrimitive:
    def test_non_intersecting_entry_survives(self):
        cache = ResultCache(8)
        cache.put(key_at(0), "value")
        cache.record_delta(1, probability_mask=0b1000, target_mask=1 << 5)
        # Entry depends on mappings {0,1} and targets {2}: disjoint from the dirt.
        assert cache.lookup(key_at(1), 0b0011, 1 << 2) == ("value", "retained")
        assert cache.stats().retained == 1

    def test_retained_serve_counts_one_miss_and_one_retained(self):
        cache = ResultCache(8)
        cache.put(key_at(0), "value")
        cache.record_delta(1, 0b1000, 0)
        assert cache.lookup(key_at(1), 0b0011, 0) == ("value", "retained")
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.retained) == (0, 1, 1)
        # The promoted entry is a plain hit from now on.
        assert cache.lookup(key_at(1), 0b0011, 0) == ("value", "hit")
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.retained) == (1, 1, 1)

    def test_promotion_rekeys_the_entry(self):
        cache = ResultCache(8)
        cache.put(key_at(0), "value")
        cache.record_delta(1, 0b1000, 0)
        assert cache.lookup(key_at(1), 0b0011, 0) == ("value", "retained")
        assert cache.peek(key_at(0)) is None  # old key removed
        assert cache.get(key_at(1)) == "value"  # plain hit from now on

    def test_intersecting_probability_mask_dies(self):
        cache = ResultCache(8)
        cache.put(key_at(0), "value")
        cache.record_delta(1, probability_mask=0b0010, target_mask=0)
        assert cache.lookup(key_at(1), 0b0011, 0) == (None, "miss")
        assert cache.peek(key_at(0)) == "value"  # not promoted, still at old epoch

    def test_intersecting_target_mask_dies(self):
        cache = ResultCache(8)
        cache.put(key_at(0), "value")
        cache.record_delta(1, probability_mask=0, target_mask=1 << 4)
        # Probability dirt is empty, but the delta edited a target element
        # the query requires — relevance or rewrites could have changed.
        assert cache.lookup(key_at(1), 0b0011, (1 << 4) | (1 << 9)) == (None, "miss")

    def test_probability_insensitive_skips_the_mapping_check(self):
        cache = ResultCache(8)
        cache.put(key_at(0, query="Q1"), "partial")
        # A pure reweight: probability-dirty, structurally clean.
        cache.record_delta(1, probability_mask=0b0011, target_mask=0)
        key = key_at(1, query="Q1")
        # Probability-sensitive: dies.
        assert cache.lookup(key, 0b0011, 0) == (None, "miss")
        cache.put(key_at(0, query="Q2"), "partial-1")
        assert cache.lookup(
            key_at(1, query="Q2"),
            0b0011,
            0,
            probability_sensitive=False,
        ) == ("partial-1", "retained")

    def test_insensitive_still_dies_on_target_dirt(self):
        cache = ResultCache(8)
        cache.put(key_at(0, query="Q1"), "partial")
        cache.record_delta(1, probability_mask=0, target_mask=1 << 3)
        assert cache.lookup(
            key_at(1, query="Q1"),
            0,
            1 << 3,
            probability_sensitive=False,
        ) == (None, "miss")

    def test_multi_epoch_walk_accumulates_dirt(self):
        cache = ResultCache(8)
        cache.put(key_at(0), "value")
        cache.record_delta(1, 0b0100, 0)
        cache.record_delta(2, 0b1000, 0)
        cache.record_delta(3, 0b10000, 0)
        # Three clean transitions: the epoch-0 entry survives to epoch 3.
        assert cache.lookup(key_at(3), 0b0011, 0) == ("value", "retained")

    def test_multi_epoch_walk_stops_on_dirty_transition(self):
        cache = ResultCache(8)
        cache.put(key_at(0), "value")
        cache.record_delta(1, 0b0100, 0)
        cache.record_delta(2, 0b0001, 0)  # touches mapping 0
        cache.record_delta(3, 0b1000, 0)
        assert cache.lookup(key_at(3), 0b0011, 0) == (None, "miss")

    def test_unknown_transition_is_conservative(self):
        cache = ResultCache(8)
        cache.put(key_at(0), "value")
        # No record_delta call for epoch 1: nothing can be proven.
        assert cache.lookup(key_at(1), 0, 0) == (None, "miss")

    def test_disabled_cache_never_retains(self):
        cache = ResultCache(0)
        cache.record_delta(1, 0, 0)
        assert cache.lookup(key_at(1), 0, 0) == (None, "miss")
        assert cache.stats().misses == 1

    def test_epoch_zero_or_non_int_never_retains(self):
        cache = ResultCache(8)
        cache.put(key_at(0), "value")
        assert cache.lookup(key_at(0), 0, 0) == ("value", "hit")
        assert cache.lookup(key_at(0, plan="basic"), 0, 0) == (None, "miss")
        assert cache.lookup(key_at(None), 0, 0) == (None, "miss")
        assert cache.stats().retained == 0

    def test_clear_drops_the_delta_log(self):
        cache = ResultCache(8)
        cache.record_delta(1, 0, 0)
        cache.put(key_at(0), "value")
        cache.clear()
        cache.put(key_at(0), "value")
        assert cache.lookup(key_at(1), 0, 0) == (None, "miss")


class TestEngineRetention:
    """End-to-end: cached results surviving (or dying on) real deltas.

    The Figure 1 scenario gives asymmetric relevance:
    ``ORDER/SUPPLIER_PARTY`` is relevant only to mapping 2 (the only mapping
    with a ``BP -> T_SP`` correspondence), while ``//CONTACT_NAME`` is
    relevant to all five mappings.
    """

    @pytest.fixture()
    def session(self, figure_mappings, figure_document):
        return Dataspace.from_mapping_set(figure_mappings, document=figure_document)

    def swap(self, figure_mappings, a, b):
        return MappingDelta.build(
            reweight={
                a: figure_mappings[b].probability,
                b: figure_mappings[a].probability,
            }
        )

    def test_entry_survives_non_intersecting_delta(self, session, figure_mappings):
        warm = session.execute("ORDER/SUPPLIER_PARTY")
        session.apply_delta(self.swap(figure_mappings, 0, 3))  # mapping 2 untouched
        served = session.execute("ORDER/SUPPLIER_PARTY")
        assert served is warm  # the very same cached object, across the epoch
        assert session.result_cache.stats().retained == 1
        assert session.explain("ORDER/SUPPLIER_PARTY").cache == "hit"

    def test_entry_dies_on_intersecting_delta(self, session, figure_mappings):
        warm = session.execute("ORDER/SUPPLIER_PARTY")
        session.apply_delta(self.swap(figure_mappings, 0, 2))  # touches mapping 2
        served = session.execute("ORDER/SUPPLIER_PARTY")
        assert served is not warm
        assert {a.probability for a in served} != {a.probability for a in warm}
        assert session.result_cache.stats().retained == 0

    def test_structural_delta_outside_query_targets_survives(
        self, session, figure_mappings, figure_elements
    ):
        e = figure_elements
        warm = session.execute("ORDER/SUPPLIER_PARTY")
        # Retract a CONTACT_NAME correspondence of mapping 0: dirty targets
        # {ICN}, dirty mappings {0} — both disjoint from this query.
        session.apply_delta(
            MappingDelta.build(remove=[(0, (e["BCN"], e["ICN"]))])
        )
        assert session.execute("ORDER/SUPPLIER_PARTY") is warm

    def test_structural_delta_on_relevant_mapping_outside_targets_survives(
        self, session, figure_mappings, figure_elements
    ):
        e = figure_elements
        warm = session.execute("ORDER/SUPPLIER_PARTY")  # relevant = {mapping 2}
        # Retract mapping 2's CONTACT_NAME pair: the mapping is relevant, but
        # the edit touches only target ICN — coverage, rewrite and
        # probability at this query's targets (ORDER, T_SP) are untouched,
        # so the entry provably survives.
        session.apply_delta(
            MappingDelta.build(remove=[(2, (e["RCN"], e["ICN"]))])
        )
        assert session.execute("ORDER/SUPPLIER_PARTY") is warm
        # And the retained answer is still what a cold evaluation computes.
        cold = session.execute("ORDER/SUPPLIER_PARTY", use_cache=False)
        assert {(a.mapping_id, a.matches, a.probability) for a in warm} == {
            (a.mapping_id, a.matches, a.probability) for a in cold
        }

    def test_structural_delta_on_query_targets_dies(
        self, session, figure_mappings, figure_elements
    ):
        e = figure_elements
        warm = session.execute("//CONTACT_NAME")
        session.apply_delta(
            MappingDelta.build(remove=[(0, (e["BCN"], e["ICN"]))])
        )
        served = session.execute("//CONTACT_NAME")
        assert served is not warm

    def test_explain_reports_retained(self, session, figure_mappings):
        session.execute("ORDER/SUPPLIER_PARTY")
        session.apply_delta(self.swap(figure_mappings, 0, 3))
        report = session.explain("ORDER/SUPPLIER_PARTY")
        # explain() runs after execute() already promoted the entry in the
        # line above?  No — this is the first post-delta lookup.
        assert report.cache == "retained"
        assert report.cache_stats["retained"] == 1

    def test_never_crosses_full_invalidate(self, session, figure_mappings):
        warm = session.execute("ORDER/SUPPLIER_PARTY")
        session.invalidate()  # generation bump: every old entry unreachable
        session.apply_delta(self.swap(figure_mappings, 0, 3))
        served = session.execute("ORDER/SUPPLIER_PARTY")
        assert served is not warm
        assert session.result_cache.stats().retained == 0

    def test_chained_deltas_accumulate(self, session, figure_mappings):
        warm = session.execute("ORDER/SUPPLIER_PARTY")
        session.apply_delta(self.swap(figure_mappings, 0, 3))
        session.apply_delta(self.swap(figure_mappings, 1, 4))
        assert session.execute("ORDER/SUPPLIER_PARTY") is warm  # both clean
        session.apply_delta(
            MappingDelta.build(
                reweight={
                    2: session.mapping_set[0].probability,
                    0: session.mapping_set[2].probability,
                }
            )
        )
        assert session.execute("ORDER/SUPPLIER_PARTY") is not warm
