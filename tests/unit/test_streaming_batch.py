"""Regression pin: a singleton :class:`DeltaBatch` is bit-identical to
:func:`apply_mapping_delta`.

The session routes its single-delta path (``Dataspace.apply_delta``) through
the batch machinery internally, so this equivalence is what keeps that
refactor honest: the batch path must produce the same patched
:class:`~repro.mapping.Mapping` values, the same compiled bitset columns, the
same epoch/bookkeeping and the same cache-retention behaviour as the
single-delta path it replaced.
"""

from __future__ import annotations

import pytest

from repro.engine import Dataspace
from repro.engine.delta import MappingDelta, apply_mapping_delta
from repro.engine.streaming import DeltaBatch, DeltaBatchReport, apply_delta_batch
from repro.exceptions import MappingError


def _reweight_delta(mapping_set) -> MappingDelta:
    """A mass-preserving probability rotation over mappings 0 and 1."""
    p0, p1 = mapping_set[0].probability, mapping_set[1].probability
    return MappingDelta.build(reweight={0: p1, 1: p0})


def _structural_delta(mapping_set) -> MappingDelta:
    """Remove mapping 2's lexicographically largest correspondence."""
    pairs = sorted(mapping_set[2].correspondences)
    return MappingDelta.build(remove=[(2, pairs[-1])])


def _mixed_delta(mapping_set) -> MappingDelta:
    """One delta exercising reweight and structural edits together."""
    p0, p1 = mapping_set[0].probability, mapping_set[1].probability
    pairs = sorted(mapping_set[3].correspondences)
    return MappingDelta.build(
        reweight={0: p0 * 0.5, 1: p1 + p0 * 0.5}, remove=[(3, pairs[-1])]
    )


def _compiled_state(compiled) -> tuple:
    """Every observable column of a compiled artifact, as comparable values."""
    return (
        compiled.num_mappings,
        compiled.all_mask,
        compiled.probabilities,
        dict(compiled._pair_masks),
        dict(compiled._covered_masks),
        dict(compiled._target_sources),
    )


@pytest.fixture(scope="module")
def base_session():
    """A compiled D7 session the equivalence cases derive fresh sets from."""
    session = Dataspace.from_dataset("D7", h=40)
    session.compiled  # force the compiled artifact
    return session


@pytest.mark.parametrize(
    "make_delta", [_reweight_delta, _structural_delta, _mixed_delta]
)
def test_singleton_batch_matches_apply_mapping_delta(base_session, make_delta):
    """Function-level pin: same mappings, same compiled columns, same masks."""
    mapping_set = base_session.snapshot(need_tree=False).mapping_set
    delta = make_delta(mapping_set)

    single_set, single_effect = apply_mapping_delta(mapping_set, delta)
    batch_set, batch_effect = apply_delta_batch(mapping_set, DeltaBatch.of(delta))

    assert list(batch_set) == list(single_set)
    assert _compiled_state(batch_set.compile()) == _compiled_state(
        single_set.compile()
    )
    assert batch_effect.num_deltas == 1
    assert batch_effect.dirty_mask == single_effect.dirty_mask
    assert batch_effect.structural_mask == single_effect.structural_mask
    assert batch_effect.probability_mask == single_effect.probability_mask
    assert batch_effect.dirty_target_mask == single_effect.dirty_target_mask
    assert batch_effect.dirty_targets == single_effect.dirty_targets
    assert batch_effect.posting_lists_touched == single_effect.posting_lists_touched
    assert batch_effect.compiled_incrementally is True


def test_singleton_batch_matches_apply_delta_session_level():
    """Session-level pin: epoch, report fields and answers line up exactly."""
    single = Dataspace.from_dataset("D7", h=40)
    batched = Dataspace.from_dataset("D7", h=40)
    for session in (single, batched):
        session.compiled
        session.execute("Q1", k=5)

    delta = _mixed_delta(single.snapshot(need_tree=False).mapping_set)
    single_report = single.apply_delta(delta)
    batch_report = batched.apply_delta_batch(DeltaBatch.of(delta))

    assert isinstance(batch_report, DeltaBatchReport)
    assert batch_report.num_deltas == 1
    single_fields = single_report.to_dict()
    batch_fields = batch_report.to_dict()
    single_fields.pop("elapsed_ms")
    batch_fields.pop("elapsed_ms")
    batch_fields.pop("num_deltas")
    assert batch_fields == single_fields
    assert single.delta_epoch == batched.delta_epoch

    single_answers = [
        (a.mapping_id, a.probability.hex()) for a in single.execute("Q1", k=5)
    ]
    batch_answers = [
        (a.mapping_id, a.probability.hex()) for a in batched.execute("Q1", k=5)
    ]
    assert batch_answers == single_answers


def test_multi_delta_batch_single_epoch_bump():
    """N deltas commit as one epoch and match applying them one by one."""
    stepped = Dataspace.from_dataset("D7", h=40)
    batched = Dataspace.from_dataset("D7", h=40)
    mapping_set = stepped.snapshot(need_tree=False).mapping_set
    deltas = [
        _reweight_delta(mapping_set),
        _structural_delta(mapping_set),
        _mixed_delta(mapping_set),
    ]

    for delta in deltas:
        stepped.apply_delta(delta)
    report = batched.apply_delta_batch(deltas)

    assert report.num_deltas == 3
    assert batched.delta_epoch == 1
    assert stepped.delta_epoch == 3
    stepped_rows = [
        (a.mapping_id, a.probability.hex()) for a in stepped.execute("Q1")
    ]
    batched_rows = [
        (a.mapping_id, a.probability.hex()) for a in batched.execute("Q1")
    ]
    assert batched_rows == stepped_rows


def test_batch_reverting_edit_touches_no_posting_list():
    """An add a later delta removes contributes no net structural dirt."""
    session = Dataspace.from_dataset("D7", h=40)
    session.compiled
    mapping_set = session.snapshot(need_tree=False).mapping_set
    pair = sorted(mapping_set[2].correspondences)[-1]
    batch = DeltaBatch.of(
        MappingDelta.build(remove=[(2, pair)]),
        MappingDelta.build(add=[(2, pair)]),
    )
    patched, effect = apply_delta_batch(mapping_set, batch)
    assert effect.num_deltas == 2
    # The touched/structural masks stay conservative (the mapping *was*
    # edited mid-batch), but the net dirt — what cache retention and
    # subscription classification consume — is empty: no posting list was
    # touched, no target element is dirty.
    assert effect.structural_mask == 1 << 2
    assert effect.posting_lists_touched == 0
    assert effect.dirty_target_mask == 0
    assert effect.dirty_targets == frozenset()
    assert list(patched) == list(mapping_set)


def test_batch_payload_roundtrip_and_validation():
    session = Dataspace.from_dataset("D7", h=40)
    mapping_set = session.snapshot(need_tree=False).mapping_set
    batch = DeltaBatch.of(_reweight_delta(mapping_set), _structural_delta(mapping_set))
    rebuilt = DeltaBatch.from_payload(batch.to_payload())
    assert rebuilt == batch
    assert len(rebuilt) == 2 and not rebuilt.is_empty()
    assert rebuilt.touched_ids() == frozenset({0, 1, 2})

    with pytest.raises(MappingError):
        apply_delta_batch(mapping_set, DeltaBatch.of())
    with pytest.raises(MappingError):
        session.apply_delta_batch([])


def test_batch_report_is_a_delta_report():
    """Report compatibility: consumers of DeltaReport keep working."""
    session = Dataspace.from_dataset("D7", h=40)
    mapping_set = session.snapshot(need_tree=False).mapping_set
    report = session.apply_delta_batch(DeltaBatch.of(_reweight_delta(mapping_set)))
    from repro.engine.delta import DeltaReport

    assert isinstance(report, DeltaReport)
    assert "coalesced:  1 deltas" in report.format()
    assert report.to_dict()["num_deltas"] == 1


def test_cache_retention_matches_across_paths():
    """Retention after a singleton batch mirrors the single-delta path."""
    single = Dataspace.from_dataset("D7", h=40)
    batched = Dataspace.from_dataset("D7", h=40)
    for session in (single, batched):
        session.execute("Q1", k=5)
        session.execute("Q7", k=5)

    # A reweight far outside Q1/Q7's relevant mappings retains both entries.
    mapping_set = single.snapshot(need_tree=False).mapping_set
    delta = _reweight_delta(mapping_set)
    single.apply_delta(delta)
    batched.apply_delta_batch(DeltaBatch.of(delta))
    for query in ("Q1", "Q7"):
        single.execute(query, k=5)
        batched.execute(query, k=5)
    assert (
        batched.result_cache.stats().retained
        == single.result_cache.stats().retained
    )
