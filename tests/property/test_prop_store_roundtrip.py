"""Differential properties: persist → reopen ≡ never having restarted.

The persistent artifact store's core contract (ISSUE 6) is that a session
reopened from a populated store is *indistinguishable* from the session that
persisted it.  On hypothesis-generated scenarios this suite pins:

* a reopened ``CompiledMappingSet`` is dict-equal, column by column, to a
  fresh compile of the original mapping set;
* query results are byte-identical across every plan after a round trip;
* state produced by chained deltas survives a round trip — the reopened
  session answers exactly like the session that applied the deltas;
* an overlay-staged delta is queryable without touching the base store
  (byte-identical blocks and refs), and committing the overlay produces the
  very same manifest as applying the delta directly against the base —
  content addressing makes the equivalence literal key equality.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from _scenarios import query_scenarios
from test_prop_delta_equivalence import random_delta
from repro.engine import Dataspace
from repro.mapping.mapping_set import MappingSet
from repro.store import MemoryBlockStore, OverlayBlockStore

def answer_list(result):
    """Canonical, order-pinned view of a PTQ result (exact probabilities)."""
    return [
        (answer.mapping_id, answer.probability, sorted(answer.matches))
        for answer in result
    ]


def open_session(scenario) -> Dataspace:
    mapping_set, document, _, tau = scenario
    return Dataspace.from_mapping_set(mapping_set, document=document, tau=tau)


def roundtrip(session: Dataspace) -> Dataspace:
    """Persist ``session`` into a fresh store and reopen it from there."""
    store = MemoryBlockStore()
    report = session.persist(store)
    return Dataspace.from_store(store, report["ref"])


class TestStoreRoundtrip:
    @settings(max_examples=25, deadline=None)
    @given(query_scenarios())
    def test_reopened_compiled_equals_fresh_compile(self, scenario):
        mapping_set, _, _, _ = scenario
        session = open_session(scenario)
        session.compiled  # ensure the compiled columns are persisted
        reopened = roundtrip(session)
        assert reopened.mapping_set.is_compiled, "compiled artifact not restored"
        compiled = reopened.compiled
        fresh = MappingSet(
            mapping_set.matching, mapping_set.mappings, normalize=False
        ).compile()
        assert compiled.num_mappings == fresh.num_mappings
        assert compiled.all_mask == fresh.all_mask
        assert compiled.probabilities == fresh.probabilities
        assert compiled._pair_masks == fresh._pair_masks
        assert compiled._covered_masks == fresh._covered_masks
        assert compiled._target_sources == fresh._target_sources

    @settings(max_examples=20, deadline=None)
    @given(query_scenarios())
    def test_results_identical_across_plans(self, scenario):
        _, _, query, _ = scenario
        session = open_session(scenario)
        reopened = roundtrip(session)
        for plan in ("basic", "blocktree", "compiled"):
            expected = answer_list(session.execute(query, plan=plan, use_cache=False))
            got = answer_list(reopened.execute(query, plan=plan, use_cache=False))
            assert got == expected, f"plan {plan} diverges after reopen"
        assert answer_list(session.execute(query, k=2, use_cache=False)) == answer_list(
            reopened.execute(query, k=2, use_cache=False)
        )

    @settings(max_examples=15, deadline=None)
    @given(query_scenarios(), st.integers(0, 100_000), st.integers(0, 100_000))
    def test_chained_delta_state_survives_roundtrip(self, scenario, seed_a, seed_b):
        _, _, query, _ = scenario
        session = open_session(scenario)
        session.execute(query)
        session.apply_delta(random_delta(session.mapping_set, seed_a))
        session.apply_delta(random_delta(session.mapping_set, seed_b))
        reopened = roundtrip(session)
        assert reopened.delta_epoch == session.delta_epoch
        assert answer_list(reopened.execute(query, use_cache=False)) == answer_list(
            session.execute(query, use_cache=False)
        )

    @settings(max_examples=15, deadline=None)
    @given(query_scenarios(), st.integers(0, 100_000))
    def test_overlay_staged_delta_leaves_base_untouched(self, scenario, seed):
        _, _, query, _ = scenario
        session = open_session(scenario)
        base = MemoryBlockStore()
        ref = session.persist(base)["ref"]
        base_blocks = {key: base.get_block(key) for key in base.iter_keys()}
        base_refs = base.refs()
        delta = random_delta(session.mapping_set, seed)

        # Stage the delta behind an overlay: the write-through lands in the
        # upper layer only.
        overlay = OverlayBlockStore(lower=base)
        staged = Dataspace.from_store(overlay, ref)
        staged.apply_delta(delta)
        staged_manifest = overlay.upper.get_ref(ref)
        assert staged_manifest is not None, "write-through did not stage a manifest"
        assert base.refs() == base_refs
        assert {key: base.get_block(key) for key in base.iter_keys()} == base_blocks

        # Applying the same delta directly (behind a second, independent
        # overlay) produces the *same* manifest key: canonical bytes make
        # "commit the staged overlay" ≡ "apply the delta against the base".
        shadow = OverlayBlockStore(lower=base)
        direct = Dataspace.from_store(shadow, ref)
        direct.apply_delta(delta)
        assert shadow.upper.get_ref(ref) == staged_manifest

        # Staged state is queryable without committing...
        expected = answer_list(direct.execute(query, use_cache=False))
        assert answer_list(staged.execute(query, use_cache=False)) == expected

        # ...and committing flushes exactly that state into the base.
        overlay.commit()
        assert base.get_ref(ref) == staged_manifest
        committed = Dataspace.from_store(base, ref)
        assert committed.delta_epoch == staged.delta_epoch
        assert answer_list(committed.execute(query, use_cache=False)) == expected
