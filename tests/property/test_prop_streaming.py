"""Differential properties of the streaming notification engine.

The standing-query contract (ISSUE 10) is that the incremental notification
stream is *lossless*: folding every delivered
:class:`~repro.engine.streaming.SubscriptionUpdate` onto the subscription's
initial result set (:func:`~repro.engine.streaming.apply_update`) must
reproduce — byte for byte, probabilities compared via ``float.hex()`` — what
re-executing the standing query from scratch at the final epoch returns.  On
hypothesis-generated scenarios with random delta-batch chains this suite pins
that property:

* against uncached re-execution in the same session and against a rebuilt
  from-scratch reference session, for full (``k=None``) and top-k standing
  queries;
* across every evaluation plan (``basic``, ``blocktree``, ``compiled``);
* together with the delivery invariants: updates arrive in strictly
  increasing epoch order, never for an epoch from before the subscription's
  baseline, and at most once per committed epoch.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _scenarios import query_scenarios
from repro.engine import Dataspace, apply_mapping_delta
from repro.engine.streaming import DeltaBatch, apply_update
from repro.mapping.mapping_set import MappingSet
from test_prop_delta_equivalence import random_delta

#: Bitset kernels the compiled plan runs on.  Python ints are the only
#: implementation; the axis keeps the case id naming them.
KERNELS = ("python",)

def hex_rows(rows) -> list[tuple]:
    """Byte-stable view of answer rows: ``float.hex()`` probabilities."""
    return sorted(
        (row.mapping_id, row.probability.hex(), row.matches) for row in rows
    )


def random_batch(mapping_set, seed: int):
    """A valid batch of 1-3 random deltas, each built against the state its
    predecessors leave behind (the same validation the engine applies)."""
    rng = random.Random(seed)
    current = mapping_set
    deltas = []
    for _ in range(rng.randint(1, 3)):
        delta = random_delta(current, rng.randrange(1_000_000))
        if delta.is_empty():
            continue
        current, _ = apply_mapping_delta(current, delta)
        deltas.append(delta)
    return DeltaBatch.build(deltas) if deltas else None


def reference_session(session: Dataspace, document, tau) -> Dataspace:
    """A from-scratch session over the delta session's *current* mappings."""
    rebuilt = MappingSet(
        session.mapping_set.matching, session.mapping_set.mappings, normalize=False
    )
    return Dataspace.from_mapping_set(rebuilt, document=document, tau=tau)


def replayed_rows(events) -> list:
    """Fold a recorded notification stream onto its initial result set."""
    assert events and events[0].kind == "initial"
    rows = apply_update([], events[0])
    for update in events[1:]:
        rows = apply_update(rows, update)
    return rows


class TestStreamingReplay:
    @pytest.mark.parametrize("kernels", KERNELS)
    @settings(max_examples=15, deadline=None)
    @given(
        scenario=query_scenarios(),
        seeds=st.lists(st.integers(0, 100_000), min_size=1, max_size=3),
    )
    def test_replay_identical_to_scratch_all_plans(self, kernels, scenario, seeds):
        mapping_set, document, query, tau = scenario
        session = Dataspace.from_mapping_set(mapping_set, document=document, tau=tau)
        assert kernels == "python" and type(session.compiled.all_mask) is int
        full_events, topk_events = [], []
        session.subscribe(query, callback=full_events.append)
        session.subscribe(query, k=2, callback=topk_events.append)

        for seed in seeds:
            batch = random_batch(session.mapping_set, seed)
            if batch is not None:
                session.apply_delta_batch(batch)

        full_rows = replayed_rows(full_events)
        topk_rows = replayed_rows(topk_events)
        assert hex_rows(full_rows) == hex_rows(
            session.execute(query, use_cache=False)
        )
        assert hex_rows(topk_rows) == hex_rows(
            session.execute(query, k=2, use_cache=False)
        )
        reference = reference_session(session, document, tau)
        for plan in ("basic", "blocktree", "compiled"):
            assert hex_rows(full_rows) == hex_rows(
                reference.execute(query, plan=plan, use_cache=False)
            ), f"replayed stream diverges from plan {plan}"

    @settings(max_examples=15, deadline=None)
    @given(
        scenario=query_scenarios(),
        seeds=st.lists(st.integers(0, 100_000), min_size=1, max_size=4),
    )
    def test_delivery_invariants(self, scenario, seeds):
        """Epoch monotonicity, no pre-baseline epochs, one update per epoch."""
        mapping_set, document, query, tau = scenario
        session = Dataspace.from_mapping_set(mapping_set, document=document, tau=tau)
        events = []
        handle = session.subscribe(query, k=3, callback=events.append)
        baseline_epoch = events[0].delta_epoch

        committed = 0
        for seed in seeds:
            batch = random_batch(session.mapping_set, seed)
            if batch is not None:
                session.apply_delta_batch(batch)
                committed += 1

        epochs = [update.delta_epoch for update in events[1:]]
        assert epochs == sorted(set(epochs)), "updates out of order or duplicated"
        assert all(epoch > baseline_epoch for epoch in epochs)
        assert all(epoch <= session.delta_epoch for epoch in epochs)
        assert len(events) - 1 <= committed
        assert handle.updates_delivered == len(events)
        assert handle.cancel()
        assert not handle.active
