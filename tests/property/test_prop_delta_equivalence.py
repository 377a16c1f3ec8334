"""Differential properties: delta-applied state ≡ rebuilt-from-scratch state.

The delta engine's core contract (ISSUE 5) is that ``apply_delta`` must be
*indistinguishable* from throwing the mapping set away and rebuilding it with
the edits already in place.  On hypothesis-generated scenarios with random
deltas (reweights, pair removals/additions, top-h replacements) this suite
pins:

* the incrementally patched ``CompiledMappingSet`` equals a fresh compile of
  the same set, column by column;
* every plan (``basic``, ``blocktree``, ``compiled``) returns identical
  answers on the delta session and on a from-scratch reference session;
* a *warmed* session (result cache populated pre-delta) returns the same
  answers as the cold reference — the adversarial case for cache retention:
  if the retain check ever kept an entry it should have killed, this test
  catches the stale answer.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from _scenarios import query_scenarios
from repro.engine import Dataspace, MappingDelta, apply_mapping_delta
from repro.mapping.mapping_set import MappingSet, mapping_mask

def answer_set(result):
    return {(answer.mapping_id, answer.matches, answer.probability) for answer in result}


def random_delta(mapping_set, seed: int) -> MappingDelta:
    """A valid random delta over ``mapping_set``: reweights + structural edits."""
    rng = random.Random(seed)
    h = len(mapping_set)

    reweight = {}
    if h >= 2 and rng.random() < 0.8:
        ids = rng.sample(range(h), k=rng.randint(2, min(4, h)))
        for index, mapping_id in enumerate(ids):
            reweight[mapping_id] = mapping_set[ids[(index + 1) % len(ids)]].probability

    remove = []
    removed_from: set[int] = set()
    if rng.random() < 0.7:
        mapping_id = rng.randrange(h)
        pairs = sorted(mapping_set[mapping_id].correspondences)
        if pairs:
            remove.append((mapping_id, rng.choice(pairs)))
            removed_from.add(mapping_id)

    add = []
    if rng.random() < 0.7:
        candidates = []
        for correspondence in sorted(
            mapping_set.matching, key=lambda c: (c.source_id, c.target_id)
        ):
            for mapping in mapping_set:
                if mapping.mapping_id in removed_from:
                    continue
                if (
                    correspondence.key not in mapping.correspondences
                    and correspondence.source_id not in mapping.source_ids()
                    and correspondence.target_id not in mapping.target_ids()
                ):
                    candidates.append((mapping.mapping_id, correspondence.key))
        if candidates:
            add.append(rng.choice(candidates))

    replace = []
    if h >= 2 and rng.random() < 0.4:
        edited = removed_from | {mid for mid, _ in add}
        slots = [mid for mid in range(h) if mid not in edited]
        if slots:
            slot = rng.choice(slots)
            donor = mapping_set[rng.randrange(h)]
            replace.append((slot, donor.correspondences, donor.score))

    return MappingDelta.build(
        add=add, remove=remove, reweight=reweight, replace=replace
    )


def reference_session(delta_session: Dataspace, scenario) -> Dataspace:
    """A from-scratch session over the delta session's *current* mappings."""
    _, document, _, tau = scenario
    rebuilt = MappingSet(
        delta_session.mapping_set.matching,
        delta_session.mapping_set.mappings,
        normalize=False,
    )
    return Dataspace.from_mapping_set(rebuilt, document=document, tau=tau)


class TestDeltaEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(scenario=query_scenarios(), seed=st.integers(0, 100_000))
    def test_patched_compiled_equals_fresh_compile(self, scenario, seed):
        mapping_set, _, _, _ = scenario
        mapping_set.compile()
        delta = random_delta(mapping_set, seed)
        patched, _ = apply_mapping_delta(mapping_set, delta)
        fresh = MappingSet(
            patched.matching, patched.mappings, normalize=False
        ).compile()
        compiled = patched.compile()
        assert compiled.probabilities == fresh.probabilities
        assert compiled._pair_masks == fresh._pair_masks
        assert compiled._covered_masks == fresh._covered_masks
        assert compiled._target_sources == fresh._target_sources

    @settings(max_examples=20, deadline=None)
    @given(scenario=query_scenarios(), seed=st.integers(0, 100_000))
    def test_relevant_mask_travels_with_the_relevant_set(self, scenario, seed):
        """The bitmask carried with the relevant set is exact at every epoch.

        A seeded stream alternates rotations (probability-only, so the
        filter prefix is promoted across the epoch by the filter cache)
        with random structural edits; at each epoch the carried mask must
        equal ``mapping_mask`` of the set's ids, the set must hold the
        current mapping objects, and its ids must match a from-scratch
        filter over the current mappings.
        """
        mapping_set, document, query, tau = scenario
        session = Dataspace.from_mapping_set(mapping_set, document=document, tau=tau)
        prepared = session.prepare(query)
        rng = random.Random(seed)

        def check() -> None:
            relevant = prepared.relevant_mappings()
            ids = [mapping.mapping_id for mapping in relevant]
            assert relevant.mask == mapping_mask(ids)
            current = session.mapping_set
            assert all(mapping is current[mapping.mapping_id] for mapping in relevant)
            fresh = reference_session(session, scenario).prepare(query).relevant_mappings()
            assert ids == [mapping.mapping_id for mapping in fresh]

        check()
        rotations = 0
        for step in range(6):
            current = session.mapping_set
            if step % 2 == 0 and len(current) >= 2:
                ids = rng.sample(range(len(current)), k=min(3, len(current)))
                delta = MappingDelta.build(
                    reweight={
                        mapping_id: current[ids[(index + 1) % len(ids)]].probability
                        for index, mapping_id in enumerate(ids)
                    }
                )
                rotations += 1
            else:
                delta = random_delta(current, rng.randrange(1_000_000))
            if not delta.is_empty():
                session.apply_delta(delta)
            check()
        if rotations:
            assert session.cache_stats()["filter_cache"]["retained"] >= 1

    @settings(max_examples=25, deadline=None)
    @given(scenario=query_scenarios(), seed=st.integers(0, 100_000))
    def test_all_plans_identical_after_delta(self, scenario, seed):
        mapping_set, document, query, tau = scenario
        session = Dataspace.from_mapping_set(mapping_set, document=document, tau=tau)
        session.apply_delta(random_delta(mapping_set, seed))
        reference = reference_session(session, scenario)
        expected = answer_set(reference.execute(query, use_cache=False))
        for plan in ("basic", "blocktree", "compiled"):
            got = session.execute(query, plan=plan, use_cache=False)
            assert answer_set(got) == expected, f"plan {plan} diverges after delta"

    @settings(max_examples=25, deadline=None)
    @given(query_scenarios(), st.integers(0, 100_000))
    def test_warm_cache_never_serves_stale_answers(self, scenario, seed):
        mapping_set, document, query, tau = scenario
        session = Dataspace.from_mapping_set(mapping_set, document=document, tau=tau)
        session.execute(query)  # populate the result cache pre-delta
        session.execute(query, k=2)
        session.apply_delta(random_delta(mapping_set, seed))
        reference = reference_session(session, scenario)
        assert answer_set(session.execute(query)) == answer_set(
            reference.execute(query, use_cache=False)
        )
        assert answer_set(session.execute(query, k=2)) == answer_set(
            reference.execute(query, k=2, use_cache=False)
        )

    @settings(max_examples=15, deadline=None)
    @given(query_scenarios(), st.integers(0, 100_000), st.integers(0, 100_000))
    def test_chained_deltas_equal_one_rebuild(self, scenario, seed_a, seed_b):
        mapping_set, document, query, tau = scenario
        session = Dataspace.from_mapping_set(mapping_set, document=document, tau=tau)
        session.execute(query)
        session.apply_delta(random_delta(mapping_set, seed_a))
        session.execute(query)
        session.apply_delta(random_delta(session.mapping_set, seed_b))
        reference = reference_session(session, scenario)
        assert answer_set(session.execute(query)) == answer_set(
            reference.execute(query, use_cache=False)
        )
